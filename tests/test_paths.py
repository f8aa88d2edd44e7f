"""Geodesic constructions in all three spaces."""

import math
import random
from fractions import Fraction

import pytest

from conftest import coprime_types
from tetrageo.combinat import GeodesicType, crossing_sequence
from tetrageo.errors import InvalidTetrahedron, PreconditionFailed, VertexHit
from tetrageo.geom import SpaceKind
from tetrageo.paths import (GeodesicPath, NotContained, euclid_geodesic,
                            euclid_mu_interval, full_fractions_from_quarter,
                            generic_hyperbolic_geodesic, midpoint_geodesic,
                            simplicity_check, vertex_clearance)
from tetrageo.tetra import TetrahedronSpec, edge_from_angle, generic_from_edges

E, S, H = SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL, SpaceKind.HYPERBOLIC


# ---------------------------------------------------------------------------
# Euclidean

def test_euclid_lengths_and_midpoints():
    for p, q in [(0, 1), (1, 2), (2, 3), (3, 5)]:
        t = GeodesicType(p, q)
        path = euclid_geodesic(t)
        assert path.total_length == pytest.approx(2 * math.sqrt(t.norm), abs=1e-12)
        assert path.closed and path.simple
        n = len(path.crossings)
        for idx in (0, n // 4, n // 2, 3 * n // 4):
            assert path.fractions[idx] == pytest.approx(0.5, abs=1e-15)


def test_euclid_examples():
    assert euclid_geodesic(GeodesicType(0, 1)).total_length == pytest.approx(2.0)
    assert euclid_geodesic(GeodesicType(1, 2)).total_length == pytest.approx(
        2 * math.sqrt(7.0))


def test_mu_interval():
    assert euclid_mu_interval(GeodesicType(0, 1)) == (Fraction(0), Fraction(1))
    lo, hi = euclid_mu_interval(GeodesicType(1, 2))
    assert lo < Fraction(1, 2) < hi
    lo, hi = euclid_mu_interval(GeodesicType(2, 3))
    assert (lo, hi) == (Fraction(1, 3), Fraction(2, 3))


def test_mu_interval_brute_force():
    # oracle: scan a fine mu grid; tracing succeeds exactly inside the interval
    from tetrageo.combinat import trace_crossings
    for p, q in [(1, 2), (2, 3), (1, 4)]:
        t = GeodesicType(p, q)
        lo, hi = euclid_mu_interval(t)
        for k in range(1, 40):
            mu = Fraction(k, 40)
            inside = lo < mu < hi
            try:
                trace_crossings(t, mu)
                ok = True
            except VertexHit:
                ok = False
            # outside the interval the word may still avoid vertices only if
            # mu lies in ANOTHER valid interval; near-boundary must fail
            if inside:
                assert ok, (p, q, mu)
        with pytest.raises(VertexHit):
            euclid_geodesic(t, lo)


def test_euclid_length_independent_of_mu():
    t = GeodesicType(2, 3)
    lo, hi = euclid_mu_interval(t)
    for k in range(1, 6):
        mu = lo + (hi - lo) * Fraction(k, 6)
        path = euclid_geodesic(t, mu)
        assert path.total_length == pytest.approx(2 * math.sqrt(t.norm), abs=1e-10)
        assert path.tokens == euclid_geodesic(t).tokens


def test_euclid_clearance_bound():
    for p, q in coprime_types(12):
        t = GeodesicType(p, q)
        path = euclid_geodesic(t)
        bound = math.sqrt(3.0) / (4.0 * math.sqrt(t.norm))
        assert path.clearance >= bound - 1e-12
        assert vertex_clearance(path, TetrahedronSpec(E, math.pi / 3)) == pytest.approx(
            path.clearance, abs=1e-14)


def test_simplicity_rejects_crossing_polyline():
    # hand-made (0,1)-style data with two crossing chords on one face
    t = GeodesicType(0, 1)
    path = euclid_geodesic(t)
    spec = TetrahedronSpec(E, math.pi / 3)
    assert simplicity_check(path, spec)
    from dataclasses import replace
    bad = replace(path, crossings=(("12", 0.2), ("13", 0.8), ("12", 0.8), ("13", 0.2)))
    assert not simplicity_check(bad, spec)


# ---------------------------------------------------------------------------
# spherical

def test_spherical_base_cases():
    for alpha in (1.1, 1.4, 1.7, 2.0):
        r = midpoint_geodesic(TetrahedronSpec(S, alpha), GeodesicType(0, 1))
        assert isinstance(r, GeodesicPath)
        assert r.closed and r.simple
        assert r.total_length < 2 * math.pi
        assert all(abs(f - 0.5) < 1e-12 for f in r.fractions)  # all four midpoints
    r = midpoint_geodesic(TetrahedronSpec(S, 1.45), GeodesicType(1, 1))
    assert isinstance(r, GeodesicPath)
    r = midpoint_geodesic(TetrahedronSpec(S, 0.55 * math.pi), GeodesicType(1, 1))
    assert isinstance(r, NotContained)
    assert r.signed_distance > 0


def test_spherical_not_contained_witness():
    r = midpoint_geodesic(TetrahedronSpec(S, 1.30), GeodesicType(1, 2))
    assert isinstance(r, NotContained)
    assert r.edge in ("12", "13", "14", "23", "24", "34")


def test_spherical_midpoint_law():
    path = midpoint_geodesic(TetrahedronSpec(S, 1.12), GeodesicType(2, 3))
    n = len(path.crossings)
    for idx in (0, n // 4, n // 2, 3 * n // 4):
        assert abs(path.fractions[idx] - 0.5) < 1e-8
    assert path.closure_residual < 1e-8


def test_spherical_uniqueness_same_word():
    # two независимes constructions with the same crossing word coincide
    p1 = midpoint_geodesic(TetrahedronSpec(S, 1.2), GeodesicType(1, 2))
    p2 = midpoint_geodesic(TetrahedronSpec(S, 1.2), GeodesicType(1, 2))
    assert p1.tokens == p2.tokens
    for f1, f2 in zip(p1.fractions, p2.fractions):
        assert abs(f1 - f2) < 1e-8


# ---------------------------------------------------------------------------
# hyperbolic

def test_hyperbolic_existence_and_bounds():
    for alpha in (0.2, 0.7, 1.0):
        spec = TetrahedronSpec(H, alpha)
        for p, q in coprime_types(8):
            t = GeodesicType(p, q)
            path = midpoint_geodesic(spec, t)
            assert isinstance(path, GeodesicPath), (alpha, p, q)
            assert path.closed and path.simple
            lb = 2 * (p + q) * math.log(2 * math.sqrt(3) * (1 - 3 * alpha / math.pi) + 1)
            assert path.total_length > lb


def test_hyperbolic_deep_regular():
    path = midpoint_geodesic(TetrahedronSpec(H, 0.05), GeodesicType(7, 13))
    assert path.closed and path.simple
    assert path.closure_residual < 1e-8
    assert path.extras["method"] == "relax"


def test_hyperbolic_shoot_and_relax_agree():
    spec = TetrahedronSpec(H, 0.9)
    t = GeodesicType(3, 5)
    seq = crossing_sequence(t)
    from tetrageo import frames
    K = len(seq.tokens) // 4
    tokens_q = list(seq.tokens[:K + 1])
    steps = frames.build_chain(tokens_q, spec.face_edge_length)
    ells = [spec.edge] * (K + 1)
    pe, qe = t.effective()
    _, trace = frames.shoot_chord(steps, ells, math.atan2(qe * math.sqrt(3), qe + 2 * pe))
    init = [float(f) for f in seq.fractions[:K + 1]]
    offsets, clamped = frames.relax_chord(steps, ells, init)
    assert not clamped
    for o1, o2 in zip(trace.offsets, offsets):
        assert abs(o1 - o2) < 1e-9


def test_mirrored_fractions_consistent_with_euclid():
    # the Euclid trace is exactly quarter-symmetric; the mirror map must
    # reproduce the full fraction list from the first quarter
    for p, q in [(1, 2), (2, 3), (1, 4)]:
        seq = crossing_sequence(GeodesicType(p, q))
        n = len(seq.tokens)
        quarter = [float(f) for f in seq.fractions[:n // 4 + 1]]
        full = full_fractions_from_quarter(seq, quarter)
        for f1, f2 in zip(full, [float(f) for f in seq.fractions]):
            assert abs(f1 - f2) < 1e-15


def test_euclid_rejects_midpoint_geodesic():
    with pytest.raises(PreconditionFailed):
        midpoint_geodesic(TetrahedronSpec(E, math.pi / 3), GeodesicType(1, 2))


class _ScaledEuclid:
    """Euclidean spec with edge c: the unit normalization is scale free."""

    def __init__(self, c):
        self.space = E
        self.edge = c
        self.alpha = math.pi / 3

    def face_edge_length(self, u, v):
        return self.edge

    @property
    def is_regular(self):
        return True


def test_euclid_scale_invariance():
    # fractions are scale free; lengths and clearances scale linearly
    from tetrageo.paths import path_metrics
    t = GeodesicType(2, 3)
    path = euclid_geodesic(t)
    for c in (0.25, 3.0):
        total, clearance, worst, _ = path_metrics(_ScaledEuclid(c), path.tokens,
                                                  path.fractions)
        assert total == pytest.approx(c * path.total_length, rel=1e-12)
        assert clearance == pytest.approx(c * path.clearance, rel=1e-12)
        assert worst < 1e-10


# ---------------------------------------------------------------------------
# generic hyperbolic

def test_generic_regular_matches_midpoint():
    a = edge_from_angle(H, math.pi / 6)
    reg = generic_from_edges([a] * 6)
    for pq in [(0, 1), (1, 2), (3, 5), (4, 5)]:
        t = GeodesicType(*pq)
        rg = generic_hyperbolic_geodesic(reg, t)
        rm = midpoint_geodesic(TetrahedronSpec(H, math.pi / 6), t)
        assert abs(rg.extras["s0"] - a / 2) < 1e-8
        for f1, f2 in zip(rg.fractions, rm.fractions):
            assert abs(f1 - f2) < 1e-8
        assert rg.total_length == pytest.approx(rm.total_length, abs=1e-8)


def test_generic_boundary_angle_case():
    # alpha = pi/4 boundary: the development is still convex
    a = edge_from_angle(H, math.pi / 4)
    reg = generic_from_edges([a] * 6)
    path = generic_hyperbolic_geodesic(reg, GeodesicType(1, 2))
    assert path.closed and path.simple


def test_generic_skew():
    spec = generic_from_edges([2.0, 2.0, 2.0, 2.2, 2.2, 2.2])
    for pq in [(0, 1), (1, 1), (1, 2)]:
        path = generic_hyperbolic_geodesic(spec, GeodesicType(*pq))
        assert path.closed and path.simple
        assert path.closure_residual < 1e-8
        assert 0 < path.extras["s0"] < 2.0


def test_generic_precondition():
    spec = generic_from_edges([1.0] * 6)  # small edges -> angles > pi/4
    with pytest.raises(PreconditionFailed):
        generic_hyperbolic_geodesic(spec, GeodesicType(0, 1))


def test_generic_random_sample():
    rng = random.Random(99)
    made = 0
    while made < 8:
        edges = [rng.uniform(1.8, 2.4) for _ in range(6)]
        try:
            spec = generic_from_edges(edges)
        except Exception:
            continue
        if not spec.all_angles_le(math.pi / 4):
            continue
        path = generic_hyperbolic_geodesic(spec, GeodesicType(1, 2))
        assert path.closed and path.simple
        made += 1


def test_generic_random_specs_type_35():
    # specs drawn as in acceptance criterion 08 with seed 1; the bracketing
    # grid on e_0 and e_N must keep the sign change of the frame-local end
    # condition on accepted specs 1, 9 and 12
    rng = random.Random(1)
    specs = []
    while len(specs) < 13:
        base = rng.uniform(1.9, 2.2)
        edges = [base * (1.0 + rng.uniform(-0.05, 0.05)) for _ in range(6)]
        try:
            spec = generic_from_edges(edges)
        except InvalidTetrahedron:
            continue
        if spec.all_angles_le(math.pi / 4):
            specs.append(spec)
    for i in (1, 9, 12):
        path = generic_hyperbolic_geodesic(specs[i], GeodesicType(3, 5))
        assert path.closed and path.simple, i


def test_frozen_high_precision_references():
    # values computed with an independent 40-digit construction (reflection
    # chain, chord crossings and distances reimplemented in mpmath) and frozen
    path = midpoint_geodesic(TetrahedronSpec(S, 1.10), GeodesicType(1, 2))
    assert path.total_length == pytest.approx(3.2022317567232478, abs=1e-12)
    assert path.fractions[1] == pytest.approx(0.13336576065583907, abs=1e-12)
    assert path.fractions[2] == pytest.approx(0.20530610782209722, abs=1e-12)

    path = midpoint_geodesic(TetrahedronSpec(H, math.pi / 6), GeodesicType(1, 2))
    assert path.total_length == pytest.approx(9.2489986506946630, abs=1e-12)
    assert path.fractions[1] == pytest.approx(0.35166794119883599, abs=1e-12)
    assert path.fractions[2] == pytest.approx(0.42840084302268303, abs=1e-12)


def test_generic_larger_types():
    # longer generic chains: the frame-local end condition keeps the closure
    # residual at solver precision where global-chart bisection could not
    spec = generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])
    for pq in ((1, 3), (2, 3)):
        path = generic_hyperbolic_geodesic(spec, GeodesicType(*pq))
        assert path.closed and path.simple
        assert path.closure_residual < 1e-10

"""Geodesic constructions in all three spaces."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import coprime_types
from tetrageo import frames
from tetrageo.combinat import (ROTATION_PERMS, CrossingSequence, GeodesicType,
                               crossing_sequence, relabel_sequence)
from tetrageo.errors import InvalidTetrahedron, PreconditionFailed, VertexHit
from tetrageo.geom import SpaceKind
from tetrageo.paths import (GeodesicPath, NotContained, euclid_geodesic,
                            euclid_mu_interval, full_fractions_from_quarter,
                            generic_hyperbolic_geodesic, midpoint_geodesic, path_metrics,
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


def _flat_log(alpha):
    """log(2 sqrt(3) (1 - 3 alpha / pi) + 1): depth per crossing is half of it."""
    return math.log(2.0 * math.sqrt(3.0) * (1.0 - 3.0 * alpha / math.pi) + 1.0)


@st.composite
def shallow_chains(draw):
    """(alpha, p, q) whose quarter chain has depth (p+q)/2 * _flat_log <= 2."""
    alpha = draw(st.one_of(st.floats(0.05, 0.95), st.floats(0.95, 1.047, exclude_max=True)))
    n = draw(st.integers(1, max(1, min(20, int(4.0 / _flat_log(alpha))))))
    p = draw(st.integers(0, n // 2).filter(lambda p: math.gcd(p, n - p) == 1))
    return alpha, p, n - p


@given(shallow_chains())
def test_hyperbolic_shoot_and_relax_agree(chain):
    # direction shooting is exact on shallow chains: the Newton chord must
    # reproduce its crossing offsets, near the flat limit too
    alpha, p, q = chain
    spec = TetrahedronSpec(H, alpha)
    t = GeodesicType(p, q)
    seq = crossing_sequence(t)
    K = len(seq.tokens) // 4
    steps = frames.build_chain(spec, list(seq.tokens[:K + 1]))
    ells = [spec.edge] * (K + 1)
    _, shot = frames.shoot_chord(steps, ells)
    offsets = frames.relax_chord(steps, ells, [float(f) for f in seq.fractions[:K + 1]])
    for o1, o2 in zip(shot, offsets):
        assert abs(o1 - o2) < 1e-9


@given(st.floats(0.95, 1.045), st.sampled_from(coprime_types(20)))
def test_hyperbolic_flat_limit_deficit(alpha, pq):
    # toward alpha = pi/3 the length tends to the Euclidean closed form
    # 2 a sqrt(p^2+pq+q^2) from below, within the angle defect
    p, q = pq
    spec = TetrahedronSpec(H, alpha)
    path = midpoint_geodesic(spec, GeodesicType(p, q))
    deficit = 1.0 - path.total_length / (2.0 * spec.edge * math.sqrt(p * p + p * q + q * q))
    assert 0.0 < deficit < math.pi / 3 - alpha


@given(st.floats(1e-6, 1e-3), st.sampled_from(coprime_types(20)))
def test_spherical_flat_limit_excess(eps, pq):
    # toward alpha = pi/3 from above the length tends to the Euclidean
    # closed form 2 a sqrt(p^2+pq+q^2) from above, within the angle excess
    p, q = pq
    spec = TetrahedronSpec(S, math.pi / 3 + eps)
    path = midpoint_geodesic(spec, GeodesicType(p, q))
    excess = path.total_length / (2.0 * spec.edge * math.sqrt(p * p + p * q + q * q)) - 1.0
    assert 0.0 < excess < spec.alpha - math.pi / 3


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
def test_spherical_flat_limit_all_types(eps):
    spec = TetrahedronSpec(S, math.pi / 3 + eps)
    for p, q in coprime_types(20):
        path = midpoint_geodesic(spec, GeodesicType(p, q))
        assert isinstance(path, GeodesicPath) and path.closed, (p, q)
        excess = path.total_length / (2.0 * spec.edge * math.sqrt(p * p + p * q + q * q)) - 1.0
        assert 0.0 < excess <= 0.65 * (spec.alpha - math.pi / 3), (p, q)


@given(st.sampled_from(coprime_types(12)), st.sampled_from([E, S, H]), st.floats(0.05, 1.0))
def test_isometric_copies_have_equal_lengths(pq, space, h_alpha):
    # relabelling the crossings by a rotation of the tetrahedron gives an
    # isometric path: the fold-back must measure the same length and closure
    t = GeodesicType(*pq)
    if space == E:
        spec, path = TetrahedronSpec(E, math.pi / 3), euclid_geodesic(t)
    else:
        spec = TetrahedronSpec(space, math.pi / 3 + 1e-4 if space == S else h_alpha)
        path = midpoint_geodesic(spec, t)
    seq = CrossingSequence(t, path.tokens, path.fractions)
    for perm in ROTATION_PERMS:
        copy = relabel_sequence(seq, perm)
        length, _, residual, _ = path_metrics(spec, copy.tokens, copy.fractions)
        assert abs(length - path.total_length) < 1e-9
        assert residual < 1e-8


@pytest.mark.parametrize("pq, alpha", [((17, 23), 1.01), ((20, 27), 1.0), ((20, 27), 1.01),
                                       ((20, 27), 1.02)])
def test_hyperbolic_near_flat_deep_chains(pq, alpha):
    # deep near-flat chains: many weakly curved faces couple every crossing
    path = midpoint_geodesic(TetrahedronSpec(H, alpha), GeodesicType(*pq))
    assert path.closed and path.simple
    n = len(path.crossings)
    for idx in (0, n // 4, n // 2, 3 * n // 4):
        assert path.fractions[idx] == 0.5


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


def test_euclid_rejects_unrepresentable_mu():
    t = GeodesicType(1, 2)
    with pytest.raises(ValueError):
        euclid_geodesic(t, math.inf)
    with pytest.raises(VertexHit):   # valid exactly, but the crossing rounds onto a vertex
        euclid_geodesic(t, 1e-300)


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
    for pq in [(0, 1), (1, 2), (3, 5), (4, 5), (5, 8)]:
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
    # specs drawn as in acceptance criterion 08 with seed 1: (3,5) on specs
    # 1, 9 and 12 and (5,8) on all of them close up
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
    for i, spec in enumerate(specs):
        path = generic_hyperbolic_geodesic(spec, GeodesicType(5, 8))
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
    # longer generic chains: the closed solve in edge-local frames keeps the
    # closure residual at solver precision
    spec = generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])
    for pq in ((1, 3), (2, 3)):
        path = generic_hyperbolic_geodesic(spec, GeodesicType(*pq))
        assert path.closed and path.simple
        assert path.closure_residual < 1e-10

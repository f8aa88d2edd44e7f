"""The bounded clearance scan of paths._chain_metrics against the brute-force minimum.

_chain_metrics passes a vertex on to the exact segment distance only when
its distance to the segment's line lies under two bounds: the running
minimum and the least distance from a crossing to the nearer end of its
edge (the edge-end bound).  The oracle here rebuilds the same segment
ends and takes geom.rpoint_seg_dist over every (vertex, segment) pair.
The scan's clearance is one of those values, so it is never below their
minimum, and it must be within 2 ulps of it in the curved spaces.  In the
plane the line distance and the segment distance round apart by a few
ulps of the coordinates, so the scan passes on every vertex within 1e-12
of the running minimum: there the clearance must be the minimum itself.
The edge-end bound, inflated by 1e-9 relative, must be at least the
clearance.
"""

import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import coprime_types
from face_fold import chord_segments
from tetrageo import frames
from tetrageo.combinat import GeodesicType, canonical_word
from tetrageo.errors import TooLong
from tetrageo.geom import SpaceKind, rpoint_seg_dist
from tetrageo.paths import (NotContained, _measured_chain, euclid_geodesic,
                            generic_hyperbolic_geodesic, midpoint_geodesic, path_metrics)
from tetrageo.tetra import TetrahedronSpec, generic_from_edges

H, E, S = SpaceKind.HYPERBOLIC, SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL


def _offsets(spec, tokens, fractions):
    """Chain tokens and crossing offsets that path_metrics measures."""
    chain, fracs = _measured_chain(tokens, fractions)[:2]
    return chain, [(f - 0.5) * spec.edges[tok] for tok, f in zip(chain, fracs)]


def brute_clearance(spec, tokens, fractions):
    """Least rpoint_seg_dist over every vertex of every face and its segment."""
    chain, s = _offsets(spec, tokens, fractions)
    steps = frames.build_chain(spec, chain)
    cs, sn, _ = chord_segments(steps, s)
    cut = 1 if spec.space == E else 0
    best = math.inf
    for i, step in enumerate(steps):
        (i00, i01, _), (i10, i11, _), (i20, i21, _) = step.inverse
        cb, sb = cs[i + 1], sn[i + 1]
        A = (cs[i], sn[i], 0.0)
        B = (i00 * cb + i01 * sb, i10 * cb + i11 * sb, i20 * cb + i21 * sb)
        for V in step.verts:
            best = min(best, rpoint_seg_dist(spec.space, V[cut:], A[cut:], B[cut:]))
    return best


def edge_end_bound(spec, tokens, fractions):
    """The least distance from a crossing to the nearer end of its edge, times 1 + 1e-9."""
    chain, s = _offsets(spec, tokens, fractions)
    return min(0.5 * spec.edges[tok] - abs(x) for tok, x in zip(chain, s)) * (1.0 + 1e-9)


def _assert_brute_force_minimum(spec, tokens, fractions, clearance):
    brute = brute_clearance(spec, tokens, fractions)
    slack = 0.0 if spec.space == E else 2.0 * math.ulp(brute)
    assert brute <= clearance <= brute + slack, (tokens, fractions)


def _assert_scan(spec, tokens, fractions, clearance):
    _assert_brute_force_minimum(spec, tokens, fractions, clearance)
    assert clearance <= edge_end_bound(spec, tokens, fractions), (tokens, fractions)


@pytest.mark.parametrize("spec", [TetrahedronSpec(H, alpha) for alpha in (0.05, 0.5, 1.0)]
                         + [TetrahedronSpec(S, alpha) for alpha in (1.05, 1.1, 1.2)],
                         ids=["H0.05", "H0.5", "H1.0", "S1.05", "S1.1", "S1.2"])
def test_midpoint_clearance_is_the_brute_force_minimum(spec):
    checked = 0
    for pq in coprime_types(14):
        try:
            path = midpoint_geodesic(spec, GeodesicType(*pq))
        except TooLong:
            continue
        if isinstance(path, NotContained):
            continue
        quarter = path.fractions[:len(path.tokens) // 4 + 1]     # the fractions it measured
        _assert_scan(spec, path.tokens, quarter, path.clearance)
        checked += 1
    assert checked >= 3


def test_euclidean_clearance_is_the_brute_force_minimum():
    spec = TetrahedronSpec(E, math.pi / 3)
    for pq in coprime_types(40):
        path = euclid_geodesic(GeodesicType(*pq))
        _assert_scan(spec, path.tokens, path.fractions, path.clearance)


@pytest.mark.parametrize("seed", range(6))
def test_generic_clearance_is_the_brute_force_minimum(seed):
    rng = random.Random(seed)
    spec = generic_from_edges([rng.uniform(2.1, 2.5) for _ in range(6)])
    for pq in coprime_types(10):
        path = generic_hyperbolic_geodesic(spec, GeodesicType(*pq))
        _assert_scan(spec, path.tokens, path.fractions, path.clearance)


SPECS = [TetrahedronSpec(H, 0.05), TetrahedronSpec(H, 0.7), TetrahedronSpec(S, 1.2),
         TetrahedronSpec(S, 1.9), TetrahedronSpec(E, math.pi / 3),
         generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])]


@given(st.sampled_from(SPECS), st.sampled_from(coprime_types(12)), st.booleans(),
       st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=60, max_size=60))
def test_clearance_of_drawn_fractions_is_the_brute_force_minimum(spec, pq, quarter, drawn):
    tokens = canonical_word(GeodesicType(*pq)).tokens
    n = len(tokens) // 4 + 1 if quarter and len(tokens) >= 4 else len(tokens)
    fractions = drawn[:n]
    _, clearance, _ = path_metrics(spec, tokens, fractions)
    _assert_scan(spec, tokens, fractions, clearance)


@pytest.mark.parametrize("spec", SPECS, ids=["H0.05", "H0.7", "S1.2", "S1.9", "E", "G"])
@pytest.mark.parametrize("margin", [0.0, 1e-16, 1e-13, 1e-10])
def test_clearance_of_a_crossing_at_a_vertex(spec, margin):
    # a crossing within rounding of a vertex: the bound is widened past that rounding
    # (1e-9 absolute), so the scan still reaches the pair the brute force takes
    rng = random.Random(3)
    for pq in coprime_types(9):
        tokens = canonical_word(GeodesicType(*pq)).tokens
        fractions = [rng.uniform(0.1, 0.9) for _ in tokens]
        i = rng.randrange(len(tokens))
        fractions[i] = margin if rng.random() < 0.5 else 1.0 - margin
        _, clearance, _ = path_metrics(spec, tokens, fractions)
        _assert_brute_force_minimum(spec, tokens, fractions, clearance)

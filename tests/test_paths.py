"""Geodesic constructions in all three spaces."""

import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import coprime_types
from face_fold import _cross3, _dot3, _face_fold_metrics, _rep_segments, _unit3, place_chain
from tetrageo import frames, paths
from tetrageo.combinat import (ROTATION_PERMS, CrossingSequence, GeodesicType,
                               canonical_word, crossing_sequence, relabel_sequence)
from tetrageo.errors import (InvalidTetrahedron, NumericalFailure, PreconditionFailed, TooLong,
                             VertexHit)
from tetrageo.existence import (exists_geodesic, hyperbolic_clearance_bound,
                                hyperbolic_length_lower_bound, threshold_beta)
from tetrageo.geom import SpaceKind, rdistance, rmidpoint, rpoint_at, rside_measure, rtangent
from tetrageo.paths import (FRACTION_MARGIN, STRAND_TIE, GeodesicPath, NotContained,
                            euclid_geodesic, euclid_mu_interval, full_fractions_from_quarter,
                            generic_hyperbolic_geodesic, midpoint_geodesic, path_metrics,
                            simplicity_check, vertex_clearance, _quarter_chord)
from tetrageo.tetra import EDGES, TetrahedronSpec, edge_from_angle, generic_from_edges

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


# ---------------------------------------------------------------------------
# simplicity: the combinatorial test against the geometric one it replaced

def _segments_properly_cross(space, a, b, c, d):
    """Strict interior crossing test; faces lie in convex chart regions.

    Spherical faces fit inside an open hemisphere and hyperbolic segments
    are Klein chords, so in all three spaces proper crossing reduces to the
    four orientation signs (triple products for the curved reps).
    """
    eps = 1e-14
    o1 = rside_measure(space, a, b, c)
    o2 = rside_measure(space, a, b, d)
    o3 = rside_measure(space, c, d, a)
    o4 = rside_measure(space, c, d, b)
    return (o1 * o2 < -eps) and (o3 * o4 < -eps)


def _geometric_simplicity(path, spec):
    """Reference verdict: pairwise orientation tests of the folded-back segments."""
    by_face = {}
    for labels, _, p_in, p_out in _rep_segments(spec, path.tokens, path.fractions):
        by_face.setdefault(labels, []).append((p_in, p_out))
    for segs in by_face.values():
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if _segments_properly_cross(spec.space, *segs[i], *segs[j]):
                    return False
    return True


def _with_fractions(path, fracs):
    return replace(path, crossings=tuple(zip(path.tokens, fracs)))


def _perturbed(path, rng, scale):
    """The same crossing word with every fraction moved by up to scale, kept in (0, 1)."""
    fracs = []
    for f in path.fractions:
        g = f + scale * rng.uniform(-1.0, 1.0)
        fracs.append(g if 1e-3 < g < 1.0 - 1e-3 else rng.uniform(1e-3, 1.0 - 1e-3))
    return _with_fractions(path, fracs)


# two strands of each example path cross one edge 0 to 3e-15 apart, in
# either float order; the exact word orders them and the paths stay simple
@example((2, 37), 0.1)
@example((11, 29), 0.1)
@example((19, 21), 0.1)
@given(st.sampled_from(coprime_types(40)), st.sampled_from([0.1, 0.5, 1.0]))
def test_simplicity_agrees_on_hyperbolic_paths(pq, alpha):
    spec = TetrahedronSpec(H, alpha)
    path = midpoint_geodesic(spec, GeodesicType(*pq))
    assert path.simple and _geometric_simplicity(path, spec)


def test_simplicity_orders_rounding_level_ties_by_the_word():
    spec = TetrahedronSpec(H, 0.5)
    path = midpoint_geodesic(spec, GeodesicType(2, 3))
    fracs = list(path.fractions)
    on_edge = sorted((f, i) for i, (tok, f) in enumerate(path.crossings) if tok == "12")
    (_, i), (f_j, _) = on_edge[:2]
    # crossing i moved just past its neighbour j on the edge: a swap within
    # rounding is read in the word's order, a resolved swap is a crossing
    for gap, simple in ((0.0, True), (1e-15, True), (1e-6, False)):
        fracs[i] = f_j + gap
        moved = replace(path, crossings=tuple(zip(path.tokens, fracs)))
        assert simplicity_check(moved, spec) is simple
        if gap != 1e-15:
            assert _geometric_simplicity(moved, spec) is simple


@given(st.sampled_from(coprime_types(12)), st.sampled_from([1.08, 1.15, 1.3, 1.6, 2.0]),
       st.integers(1, 9))
def test_simplicity_agrees_on_spherical_and_euclidean_paths(pq, alpha, k):
    t = GeodesicType(*pq)
    lo, hi = euclid_mu_interval(t)
    path = euclid_geodesic(t, lo + (hi - lo) * Fraction(k, 10))
    assert path.simple and _geometric_simplicity(path, TetrahedronSpec(E, math.pi / 3))
    spec = TetrahedronSpec(S, alpha)
    try:
        path = midpoint_geodesic(spec, t)
    except TooLong:
        return
    if isinstance(path, GeodesicPath):
        assert path.simple == _geometric_simplicity(path, spec)


@lru_cache(maxsize=None)
def _base_path(pq, space):
    t = GeodesicType(*pq)
    if space == E:
        return TetrahedronSpec(E, math.pi / 3), euclid_geodesic(t)
    spec = TetrahedronSpec(space, {S: 1.06, H: 0.5}[space])  # every type p+q <= 10 contained
    return spec, midpoint_geodesic(spec, t)


@given(st.sampled_from(coprime_types(10)), st.sampled_from([E, S, H]),
       st.sampled_from([1e-4, 1e-2, 0.05, 0.2, 1.0]), st.integers(0, 2**32))
def test_simplicity_agrees_on_perturbed_paths(pq, space, scale, seed):
    spec, path = _base_path(pq, space)
    bent = _perturbed(path, random.Random(seed), scale)
    assert simplicity_check(bent, spec) == _geometric_simplicity(bent, spec)


def test_perturbed_paths_are_mostly_not_simple():
    # the agreement above is only informative if non-simple inputs occur
    verdicts = []
    for seed in range(60):
        pq, space = [(1, 2), (2, 3), (3, 4)][seed % 3], [E, S, H][seed % 3]
        spec, path = _base_path(pq, space)
        bent = _perturbed(path, random.Random(seed), 0.2)
        verdicts.append(simplicity_check(bent, spec))
        assert verdicts[-1] == _geometric_simplicity(bent, spec)
    assert verdicts.count(False) >= 30 and verdicts.count(True) > 0


def _first_two_on_edge(path, tok):
    """The two crossings of edge tok with the smallest fractions: ((f, index), (f, index))."""
    return sorted((f, i) for i, (t, f) in enumerate(path.crossings) if t == tok)[:2]


def test_simplicity_shared_endpoints_do_not_cross():
    # the two lowest strands of edge 12 moved onto one point: their segments
    # share that end and cross nowhere
    for space in (E, S, H):
        spec, path = _base_path((2, 3), space)
        (f_i, i), (f_j, j) = _first_two_on_edge(path, "12")
        fracs = list(path.fractions)
        fracs[i] = fracs[j] = 0.5 * (f_i + f_j)
        shared = _with_fractions(path, fracs)
        assert simplicity_check(shared, spec) and _geometric_simplicity(shared, spec), space


def test_simplicity_rejects_crossing_polyline():
    # the two lowest strands of edge 12 put at 0.8 and 0.2: out of strand
    # order by 0.6, and their segments cross
    for space in (E, S, H):
        spec, path = _base_path((2, 3), space)
        assert simplicity_check(path, spec)
        (_, i), (_, j) = _first_two_on_edge(path, "12")
        fracs = list(path.fractions)
        fracs[i], fracs[j] = 0.8, 0.2
        bad = _with_fractions(path, fracs)
        assert not simplicity_check(bad, spec) and not _geometric_simplicity(bad, spec), space


def test_simplicity_requires_the_canonical_word():
    spec, path = _base_path((2, 3), H)
    seq = CrossingSequence(path.gtype, path.tokens, path.fractions)
    rotated = relabel_sequence(seq, ROTATION_PERMS[1])
    shifted = seq.tokens[1:] + seq.tokens[:1], seq.fractions[1:] + seq.fractions[:1]
    for tokens, fracs in ((rotated.tokens, rotated.fractions), shifted):
        with pytest.raises(PreconditionFailed, match="canonical word"):
            simplicity_check(replace(path, crossings=tuple(zip(tokens, fracs))), spec)


# The face-boundary nesting scan that decided simplicity before the strand
# rule, kept as the reference where the fractions tie within rounding and
# the geometric test cannot decide.  Faces are convex, so two segments of
# one face cross iff their ends strictly interleave along its boundary.

def _edge_ranks(path):
    """Rank of each crossing along its edge, by fraction.

    Crossings of one edge closer than STRAND_TIE take the order of the
    exact word's fractions at mu = 1/2.
    """
    tokens, fracs = path.tokens, path.fractions
    strand = crossing_sequence(path.gtype).fractions
    ranks = [0] * len(tokens)
    for tok in set(tokens):
        idx = sorted((i for i, t in enumerate(tokens) if t == tok), key=fracs.__getitem__)
        runs = accumulate((fracs[j] - fracs[i] > STRAND_TIE for i, j in zip(idx, idx[1:])),
                          initial=0)
        for r, (_, _, i) in enumerate(sorted(zip(runs, map(strand.__getitem__, idx), idx))):
            ranks[i] = r
    return ranks


def _face_slots(cur, nxt):
    """Face ijk of the segment from edge cur to edge nxt, and (slot, sign) of its two ends.

    The face's boundary loop i -> j -> k -> i runs along ij, jk, then ki
    backwards: slots 1, 3 and 5, with the rank counted backwards on ki.
    """
    face = "".join(sorted(set(cur + nxt)))
    return face, *((3, 1) if tok[0] != face[0] else (1, 1) if tok[1] == face[1] else (5, -1)
                   for tok in (cur, nxt))


# the 24 (entry, exit) edge pairs of a face
_FACE_SLOTS = {(cur, nxt): _face_slots(cur, nxt)
               for cur in EDGES for nxt in EDGES if len(set(cur) & set(nxt)) == 1}


def _nesting_simplicity(path):
    """Reference verdict: per face, a stack of open ends checks that the segments nest.

    An end's position along the face boundary is the integer
    slot * n + sign * rank (ranks lie in 0..n-1, so slots never overlap).
    """
    tokens, ranks = path.tokens, _edge_ranks(path)
    n = len(tokens)
    by_face = {}
    for i in range(n):
        j = (i + 1) % n
        face, (m0, s0), (m1, s1) = _FACE_SLOTS[tokens[i], tokens[j]]
        x, y = m0 * n + s0 * ranks[i], m1 * n + s1 * ranks[j]
        by_face.setdefault(face, []).append((x, -y) if x < y else (y, -x))
    for segs in by_face.values():
        open_ends = []  # innermost last
        for start, neg_end in sorted(segs):
            while open_ends and open_ends[-1] <= start:
                open_ends.pop()
            if open_ends and open_ends[-1] < -neg_end:
                return False
            open_ends.append(-neg_end)
    return True


def test_strand_order_matches_nesting_scan_on_tied_paths():
    # at alpha = 0.1 almost every type with 30 <= p+q <= 40 has two strands
    # of one edge within STRAND_TIE, down to equal floats; the two rules
    # agree on each path as built and with every fraction moved by up to
    # 1e-13 (within the tie) and 1e-3 (strands swap)
    spec = TetrahedronSpec(H, 0.1)
    tied, verdicts = 0, {0.0: [], 1e-13: [], 1e-3: []}
    for pq in coprime_types(40, 30):
        path = midpoint_geodesic(spec, GeodesicType(*pq))
        on_edge = {}
        for tok, f in path.crossings:
            on_edge.setdefault(tok, []).append(f)
        if min(b - a for fs in map(sorted, on_edge.values())
               for a, b in zip(fs, fs[1:])) >= STRAND_TIE:
            continue
        tied += 1
        rng = random.Random(pq[0] * 100 + pq[1])
        for scale, seen in verdicts.items():
            moved = _with_fractions(path, [f + scale * rng.uniform(-1.0, 1.0)
                                           for f in path.fractions])
            seen.append(simplicity_check(moved, spec))
            assert seen[-1] == _nesting_simplicity(moved), (pq, scale)
    assert tied >= 100
    assert all(verdicts[0.0]) and all(verdicts[1e-13]) and not any(verdicts[1e-3])


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


def test_spherical_witness_is_the_nearer_edge_end():
    # the crossing lies past the antipode of vertex 3, 1.017 from the chord's
    # great circle; vertex 2, the other end of e_1, lies 6.7e-7 from it
    spec, t = TetrahedronSpec(S, 1.2566376614359172), GeodesicType(4, 5)
    r = midpoint_geodesic(spec, t)
    assert isinstance(r, NotContained) and (r.face_index, r.edge) == (1, "23")
    assert -1e-6 < r.signed_distance < 0.0
    # both ends of e_1 against the chord's great circle, in one sphere chart
    seq = crossing_sequence(t)
    K = len(seq.tokens) // 4
    edge_pts, _ = place_chain(spec, seq.tokens[:K + 1])
    pole = _unit3(_cross3(rmidpoint(S, *edge_pts[0]), rmidpoint(S, *edge_pts[K])))
    ends = sorted((math.asin(_dot3(V, pole)) for V in edge_pts[1]), key=abs)
    assert abs(ends[1]) > 1.0
    assert abs(r.signed_distance - ends[0]) < 1e-12


def test_spherical_midpoint_law():
    path = midpoint_geodesic(TetrahedronSpec(S, 1.12), GeodesicType(2, 3))
    n = len(path.crossings)
    for idx in (0, n // 4, n // 2, 3 * n // 4):
        assert abs(path.fractions[idx] - 0.5) < 1e-8
    assert path.closure_residual < 1e-8


def _global_chart_quarter(spec, seq):
    """Reference spherical quarter: the chain placed in one sphere chart, the chord swept in theta.

    The construction the edge-frame shooting replaced: X1, Y1 and every
    glue edge are placed by reflections (face_fold.place_chain), the great
    circle from X1 towards Y1 is cut with each edge's great circle at the
    first angle past the previous crossing, and the crossings must come
    before Y1; a witness is signed by the edge end nearer the chord's great
    circle.  Returns the fractions or the witness, and extras: the quarter's
    length X1Y1 and the symmetry points' distance from the chord, the whole-chain
    residual the construction checked before it read Y1's alone.
    """
    n = len(seq.tokens)
    K = n // 4
    edge_pts, _ = place_chain(spec, seq.tokens[:K + 1])
    X1 = rmidpoint(spec.space, *edge_pts[0])
    Y1 = rmidpoint(spec.space, *edge_pts[K])
    quarter_len = rdistance(spec.space, X1, Y1)
    T = rtangent(spec.space, X1, Y1)
    n_c = _unit3(_cross3(X1, T))  # pole of the chord circle
    fracs = [0.5]
    theta_prev = 0.0
    witness = None
    for i in range(1, K):
        a, b = edge_pts[i]
        n_e = _unit3(_cross3(a, b))
        base = math.atan2(-_dot3(X1, n_e), _dot3(T, n_e))
        th = base % math.pi
        while th <= theta_prev + 1e-13:
            th += math.pi
        C = rpoint_at(spec.space, X1, T, th)
        ell = rdistance(spec.space, a, b)
        f = rdistance(spec.space, a, C) / ell
        if _dot3(rtangent(spec.space, a, b), rtangent(spec.space, a, C)) < 0:
            f = -f
        fracs.append(f)
        theta_prev = th
        if witness is None and not (FRACTION_MARGIN < f < 1.0 - FRACTION_MARGIN):
            sd = min((math.asin(max(-1.0, min(1.0, _dot3(v, n_c)))) for v in (a, b)), key=abs)
            witness = NotContained(seq.gtype, face_index=i, edge=seq.tokens[i],
                                   signed_distance=sd)
    if witness is not None:
        return None, witness, None
    if 4.0 * quarter_len >= 2.0 * math.pi:
        raise TooLong(f"candidate length {4 * quarter_len:.6f} >= 2*pi")
    if theta_prev >= quarter_len:
        return None, NotContained(seq.gtype, face_index=K, edge=seq.tokens[K % n],
                                  signed_distance=0.0,
                                  reason="crossings out of order"), None
    edge_pts, _ = place_chain(spec, list(seq.tokens) + [seq.tokens[0]])
    sym_res = 0.0
    for idx in (n // 2, 3 * n // 4, n):
        P = rmidpoint(spec.space, *edge_pts[idx])
        sym_res = max(sym_res, abs(math.asin(max(-1.0, min(1.0, _dot3(P, n_c))))))
    if sym_res > 1e-8:
        raise NumericalFailure(f"symmetry points off the chord by {sym_res:.3e}")
    fracs.append(0.5)
    return fracs, None, {"quarter_length": quarter_len, "symmetry_residual": sym_res}


def _quarter_outcome(quarter, spec, seq):
    try:
        return quarter(spec, seq)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


# regressions: a crossing just past the antipode of an edge end (1,6), one just
# short of it (4,5), and a chord meeting e_K at a grazing angle (1,3)
@example(1.319469394507713, (1, 6))
@example(1.2566376614359172, (4, 5))
@example(1.1582012796234369, (1, 3))
@given(st.floats(math.pi / 3 + 1e-6, 2 * math.pi / 3 - 1e-6), st.sampled_from(coprime_types(15)))
def test_spherical_quarter_matches_global_chart(alpha, pq):
    # shooting in edge-local frames against the global-chart sweep it replaced;
    # midpoint_geodesic checks the length and the symmetry residual
    spec = TetrahedronSpec(S, alpha)
    seq = crossing_sequence(GeodesicType(*pq))
    old = _quarter_outcome(_global_chart_quarter, spec, seq)
    new = _quarter_outcome(midpoint_geodesic, spec, seq.gtype)
    if isinstance(old, type):
        assert new is old
        return
    fracs, witness, _, _ = _quarter_chord(spec, seq)
    ref_fracs, ref_witness, ref_extras = old
    if ref_witness is not None:
        assert fracs is None and witness is not None
        assert ((witness.face_index, witness.edge, witness.reason)
                == (ref_witness.face_index, ref_witness.edge, ref_witness.reason))
        if min(abs(witness.signed_distance), abs(ref_witness.signed_distance)) < 1e-3:
            assert abs(witness.signed_distance - ref_witness.signed_distance) < 1e-12
        return
    assert isinstance(new, GeodesicPath)
    assert witness is None and len(fracs) == len(ref_fracs)
    assert max(abs(f - g) for f, g in zip(fracs, ref_fracs)) < 1e-9
    quarter_len = path_metrics(spec, seq.tokens, fracs)[0] / 4
    assert abs(quarter_len - ref_extras["quarter_length"]) < 1e-12


def _sphere_alphas(t):
    """A grid over (pi/3, 2pi/3) and beta - 10^-j for j = 5..11 where the type has a threshold."""
    alphas = [math.pi / 3 * (1.0 + k / 64) for k in range(1, 64)]
    if t.p:
        beta = threshold_beta(t, 1e-12).beta
        alphas += [beta - 10.0 ** -j for j in range(5, 12)]
    return alphas


def test_symmetry_points_lie_on_the_quarter_chord():
    # the whole-chain check the construction made before it read the residual at
    # Y1 alone: carried over the closed chain, the chord passes X2, Y2 and X1'
    contained = 0
    for pq in coprime_types(12):
        word = canonical_word(GeodesicType(*pq))
        K = len(word.tokens) // 4
        for alpha in _sphere_alphas(word.gtype):
            spec = TetrahedronSpec(S, alpha)
            if not isinstance(midpoint_geodesic(spec, word.gtype), GeodesicPath):
                continue
            contained += 1
            chain = frames.build_chain(spec, list(word.tokens) + [word.tokens[0]])
            normals = frames.carry([step.transition for step in chain[K:]],
                                   frames.shoot_chord(chain[:K])[2][K])
            assert max(abs(normals[j][0]) for j in (K, 2 * K, 3 * K)) < 1e-12, (pq, alpha)
    assert contained > 200


def _tilted_shot(monkeypatch, residual):
    """shoot_chord with the normal at e_K moved so that Y1 lies ``residual`` off the chord."""
    shoot = frames.shoot_chord

    def tilted(steps):
        theta, offsets, normals = shoot(steps)
        return theta, offsets, normals[:-1] + [(residual,) + normals[-1][1:]]

    monkeypatch.setattr(frames, "shoot_chord", tilted)


def test_symmetry_residual_above_1e_8_raises(monkeypatch):
    spec, t = TetrahedronSpec(S, 1.12), GeodesicType(2, 3)
    _tilted_shot(monkeypatch, 5e-9)
    assert midpoint_geodesic(spec, t).extras["symmetry_residual"] == 5e-9
    _tilted_shot(monkeypatch, -2e-8)
    with pytest.raises(NumericalFailure, match="off the chord by 2.000e-08"):
        midpoint_geodesic(spec, t)


def test_measured_length_of_2pi_is_too_long(monkeypatch):
    # by the exact criterion a contained chord is shorter than 2*pi, so only a
    # measure forced to 2*pi reaches the check; it runs before the residual
    measure = paths._chain_metrics
    monkeypatch.setattr(paths, "_chain_metrics",
                        lambda *args: (2.0 * math.pi,) + measure(*args)[1:])
    _tilted_shot(monkeypatch, 1.0)
    spec, t = TetrahedronSpec(S, 1.12), GeodesicType(2, 3)
    with pytest.raises(TooLong, match="length 6.283185 >= 2"):
        midpoint_geodesic(spec, t)
    verdict = exists_geodesic(spec, t)
    assert verdict.outcome == "undetermined" and "2*pi" in verdict.reason


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


def _assert_hyperbolic_geodesic(alpha, p, q):
    spec = TetrahedronSpec(H, alpha)
    t = GeodesicType(p, q)
    path = midpoint_geodesic(spec, t)
    assert path.closed and path.simple, (alpha, p, q)
    assert path.clearance > hyperbolic_clearance_bound(alpha), (alpha, p, q)
    assert path.total_length > hyperbolic_length_lower_bound(alpha, t), (alpha, p, q)


@pytest.mark.parametrize("alpha", [1e-5, 1e-3, 0.005, 0.01, 0.016, 0.021])
def test_hyperbolic_small_angles_all_types(alpha):
    # edges of length 9 to 24: the closure angles are measured at the
    # crossings themselves, so every type closes within rounding
    for p, q in coprime_types(20):
        _assert_hyperbolic_geodesic(alpha, p, q)


@given(st.one_of(st.floats(1e-5, 0.05), st.floats(0.05, 1.04)),
       st.sampled_from(coprime_types(20)))
def test_hyperbolic_geodesic_at_every_angle(alpha, pq):
    # a type-(p,q) geodesic exists for every coprime type at every angle
    _assert_hyperbolic_geodesic(alpha, *pq)


def _markov_numbers(limit):
    """Markov numbers up to limit, from the tree (a, b, c) -> (a, c, 3ac - b), (b, c, 3bc - a)."""
    found, todo = set(), [(1, 1, 1)]
    while todo:
        a, b, c = todo.pop()
        found.update((a, b, c))
        for child in ((a, c, 3 * a * c - b), (b, c, 3 * b * c - a)):
            if child[2] <= limit:
                todo.append(tuple(sorted(child)))
    return found


def test_ideal_limit_lengths_are_markov_numbers():
    # toward alpha = 0 the regular tetrahedron tends to the ideal one, whose
    # closed geodesics have 2 cosh(L/4) = 3m for Markov numbers m, a
    # different one for every type
    spec = TetrahedronSpec(H, 1e-6)
    markov = sorted(_markov_numbers(10 ** 12))
    image = {}
    for p, q in coprime_types(20):
        x = 2.0 * math.cosh(midpoint_geodesic(spec, GeodesicType(p, q)).total_length / 4.0) / 3.0
        m = min(markov, key=lambda m: abs(m - x))
        assert abs(x - m) < 1e-8 * m, (p, q, x, m)
        image[p, q] = m
    assert len(set(image.values())) == len(image)


def _assert_markov_length(alpha, pq, markov):
    # closed, simple and on the Markov number of its type, as at alpha = 1e-6
    path = midpoint_geodesic(TetrahedronSpec(H, alpha), GeodesicType(*pq))
    assert isinstance(path, GeodesicPath) and path.closed and path.simple, (alpha, pq)
    x = 2.0 * math.cosh(path.total_length / 4.0) / 3.0
    m = min(markov, key=lambda m: abs(m - x))
    assert abs(x - m) < 1e-8 * m, (alpha, pq, x, m)


@pytest.mark.parametrize("alpha, pq", [
    (1e-7, (4, 5)), (1e-7, (7, 8)), (3e-8, (5, 11)), (3e-8, (7, 12)), (3e-8, (9, 11)),
    (1e-6, (9, 14)), (1e-6, (15, 23))])
def test_near_ideal_chords_converge(alpha, pq):
    # these quarter solves ran out of Newton steps from the Euclidean fractions
    _assert_markov_length(alpha, pq, _markov_numbers(10 ** 15))


def test_near_ideal_limit_every_type_builds():
    markov = _markov_numbers(10 ** 12)
    for pq in coprime_types(20):
        _assert_markov_length(3e-8, pq, markov)


def test_ideal_limit_builds_or_raises_numerical_failure():
    # toward the ideal limit every type builds: the quarter chord is carried from its
    # two ends with no solver, where a damped Newton solve once raised NumericalFailure
    # on 524, 110 and 4 of these types (closure, S(d)^2 <= 0, no convergence)
    for alpha in (3e-8, 1e-7, 1e-6):
        spec = TetrahedronSpec(H, alpha)
        for pq in coprime_types(80):
            path = midpoint_geodesic(spec, GeodesicType(*pq))
            assert isinstance(path, GeodesicPath) and path.closed and path.simple, (alpha, pq)


@pytest.mark.parametrize("alpha", [3e-8, 1e-6])
def test_ideal_limit_builds_long_one_n_types(alpha):
    # the (1, n) quarter chains run n + 1 faces deep, with edges of length 29 to 36
    spec = TetrahedronSpec(H, alpha)
    for n in list(range(1, 60)) + list(range(60, 501, 20)):
        path = midpoint_geodesic(spec, GeodesicType(1, n))
        assert isinstance(path, GeodesicPath) and path.closed and path.simple, (alpha, n)


@given(st.floats(1e-4, 1.04), st.sampled_from(coprime_types(30)))
def test_carried_chord_matches_the_relaxed_chord(alpha, pq):
    # the quarter chord carried from X1 and Y1 against the Newton solve pinned at
    # them, run from the word's Euclidean fractions: both are the taut chord, their
    # fractions within 2e-13.  Past alpha = 0.95 the solve's own stop, a step of
    # STEP_TOL in offset, moves off the taut chord by up to 1.5e-13 in offset (6e-13
    # in fraction on edges of 0.22 at 1.04), and the offsets are held to 4 STEP_TOL
    spec = TetrahedronSpec(H, alpha)
    word = canonical_word(GeodesicType(*pq))
    fracs, witness, _, (steps, ells) = _quarter_chord(spec, word)
    assert witness is None
    offsets, length = frames.relax_chord(steps, ells, list(word.fractions[:len(ells)]))
    if alpha <= 0.95:
        assert max(abs(f - (x / ell + 0.5)) for f, x, ell in zip(fracs, offsets, ells)) < 2e-13
    else:
        assert max(abs((f - 0.5) * ell - x) for f, x, ell in zip(fracs, offsets, ells)) < (
            4.0 * frames.STEP_TOL)
    path = midpoint_geodesic(spec, word.gtype)
    assert abs(path.total_length / 4.0 - length) <= 1e-14 * length


@lru_cache(maxsize=None)
def _markov_number(pq):
    """The Markov number m of a type: its ideal-limit length is 4 acosh(3m/2)."""
    spec = TetrahedronSpec(H, 1e-6)
    x = 2.0 * math.cosh(midpoint_geodesic(spec, GeodesicType(*pq)).total_length / 4.0) / 3.0
    return min(_markov_numbers(10 ** 12), key=lambda m: abs(m - x))


@st.composite
def angle_pairs(draw):
    """alpha_1 < alpha_2 in [1e-4, 1.04], at least 1e-6 apart: closer ones are rounding."""
    a1 = draw(st.floats(1e-4, 1.04 - 1e-6))
    return a1, draw(st.floats(a1 + 1e-6, 1.04))


@given(angle_pairs(), st.sampled_from(coprime_types(16)))
def test_lengths_decrease_in_alpha_below_the_ideal_limit(alphas, pq):
    # an observation, not a theorem of the paper: the length falls as the
    # angle grows, so the ideal tetrahedron's 4 acosh(3m/2) bounds it above
    lengths = [midpoint_geodesic(TetrahedronSpec(H, a), GeodesicType(*pq)).total_length
               for a in alphas]
    assert lengths[1] < lengths[0], (alphas, pq, lengths)
    assert lengths[0] < 4.0 * math.acosh(1.5 * _markov_number(pq)), (alphas, pq, lengths)


@given(st.floats(0.05, 1.04), st.sampled_from(coprime_types(20)),
       st.sampled_from([1, 2, 3, 4, 6, 7, 8, 9]))
def test_edge_frame_metrics_match_face_fold(alpha, pq, j):
    # the edge-frame fold-back against the canonically placed single faces: the
    # hyperbolic midpoint path, and the Euclidean path anchored off centre, at
    # mu = lo + j (hi - lo) / 10 of its valid interval
    t = GeodesicType(*pq)
    lo, hi = euclid_mu_interval(t)
    hyperbolic, plane = TetrahedronSpec(H, alpha), TetrahedronSpec(E, math.pi / 3)
    for spec, path, length_tol, clearance_tol in (
            (hyperbolic, midpoint_geodesic(hyperbolic, t), 1e-10, 1e-9),
            (plane, euclid_geodesic(t, lo + (hi - lo) * Fraction(j, 10)), 1e-14, 1e-15)):
        length, clearance, residual = _face_fold_metrics(spec, path.tokens, path.fractions)
        assert abs(path.total_length - length) < length_tol * length
        assert abs(path.clearance - clearance) < clearance_tol
        assert path.closure_residual < 1e-8 and residual < 1e-8


def _contained_spherical_grid():
    """(key, spec, path) for every contained chord of the spherical verdict grid."""
    for k in range(36):
        spec = TetrahedronSpec(S, 1.05 + 0.01 * k)
        for p, q in coprime_types(7):
            try:
                path = midpoint_geodesic(spec, GeodesicType(p, q))
            except TooLong:
                continue
            if isinstance(path, GeodesicPath):
                yield (k, p, q), spec, path


def test_edge_frame_metrics_match_face_fold_on_sphere():
    compared = 0
    for key, spec, path in _contained_spherical_grid():
        length, clearance, residual = _face_fold_metrics(spec, path.tokens, path.fractions)
        assert abs(path.total_length - length) < 1e-10 * length, key
        assert abs(path.clearance - clearance) < 1e-9, key
        assert path.closure_residual < 1e-8 and residual < 1e-8, key
        compared += 1
    assert compared > 100


def _assert_quarter_matches_closed_chain(spec, path, key):
    # a midpoint path is measured on its quarter chain; the oracle measures
    # the same fractions on the whole closed chain
    length, clearance, residual = path_metrics(spec, path.tokens, path.fractions)
    assert abs(path.total_length - length) <= 1e-13 * length, key
    assert abs(path.clearance - clearance) <= max(1e-13 * clearance, 1e-15), key
    assert path.closure_residual < 1e-8 and residual < 1e-8, key
    assert abs(path.closure_residual - residual) < 1e-11, key


@given(st.floats(1e-5, 1.04), st.sampled_from(coprime_types(20)))
def test_quarter_metrics_match_closed_chain(alpha, pq):
    spec = TetrahedronSpec(H, alpha)
    _assert_quarter_matches_closed_chain(spec, midpoint_geodesic(spec, GeodesicType(*pq)),
                                         (alpha, pq))


def test_quarter_metrics_match_closed_chain_on_sphere():
    compared = 0
    for key, spec, path in _contained_spherical_grid():
        _assert_quarter_matches_closed_chain(spec, path, key)
        compared += 1
    assert compared > 100


@pytest.mark.parametrize("space", [E, S, H])
def test_quarter_metrics_reject_other_fraction_counts(space):
    # one fraction per token or the K + 1 of the quarter; any other count is an
    # error, never a measure of the tokens the fractions happen to pair with
    spec = TetrahedronSpec(space, {E: math.pi / 3, S: 1.12, H: 0.5}[space])
    t = GeodesicType(2, 3)
    path = euclid_geodesic(t) if space == E else midpoint_geodesic(spec, t)
    K = len(path.tokens) // 4
    for count in (3, K, K + 2, len(path.tokens) - 1):
        with pytest.raises(ValueError):
            path_metrics(spec, path.tokens, path.fractions[:count])
    quarter = path_metrics(spec, path.tokens, path.fractions[:K + 1])
    assert quarter[0] == pytest.approx(path.total_length, rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0, -0.5, 1.0 + 1e-15])
@pytest.mark.parametrize("space", [E, S, H])
def test_metrics_reject_fractions_off_the_edge(space, bad):
    # a NaN fraction measured as (nan, inf, 0.0): a residual of 0 read as closed
    angles = {E: math.pi / 3, S: 1.1, H: 0.5}
    spec = TetrahedronSpec(space, angles[space])
    t = GeodesicType(1, 2)
    path = euclid_geodesic(t) if space == E else midpoint_geodesic(spec, t)
    K = len(path.tokens) // 4
    for fracs in (list(path.fractions), list(path.fractions[:K + 1])):
        fracs[1] = bad
        with pytest.raises(ValueError):
            path_metrics(spec, path.tokens, fracs)
    broken = replace(path, crossings=((path.tokens[0], bad),) + path.crossings[1:])
    with pytest.raises(ValueError):
        vertex_clearance(broken, spec)
    other = {E: H, S: E, H: S}[space]   # and a path measured on another space's tetrahedron
    with pytest.raises(ValueError):
        vertex_clearance(path, TetrahedronSpec(other, angles[other]))


def test_metrics_raise_where_a_segment_rounds_to_no_length():
    # near the ideal limit the vertices lie about 3e7 from their frame's origin: two
    # crossings 1e-10 and 1e-8 of an edge from the vertex their edges share span a
    # segment whose <D, D> rounds below zero, a NumericalFailure and no length
    spec, word = TetrahedronSpec(H, 3e-8), canonical_word(GeodesicType(1, 1))
    fracs = list(word.fractions)
    fracs[:2] = 1.0 - 1e-10, 1e-8
    with pytest.raises(NumericalFailure, match=r"chain segment 0: S\(d\)\^2 = .* is not positive"):
        path_metrics(spec, word.tokens, fracs)


def test_hyperbolic_crossing_off_its_edge_is_a_witness(monkeypatch):
    # no solver holds the carried chord on its edges: a crossing 0.1 past the end of
    # e_1 is the NotContained witness, its signed distance -0.1
    spec, t = TetrahedronSpec(H, 0.5), GeodesicType(2, 3)
    carry, calls = frames.carry, []

    def moved(matrices, v, k=1.0):
        points = carry(matrices, v, k)
        calls.append(1)
        if len(calls) == 1:     # X1 carried forward: put its image in E_1 past the edge end
            x = 0.5 * spec.edge + 0.1
            points[1] = (math.cosh(x), math.sinh(x), 0.0)
        return points

    monkeypatch.setattr(frames, "carry", moved)
    witness = midpoint_geodesic(spec, t)
    assert isinstance(witness, NotContained)
    assert (witness.face_index, witness.edge) == (1, canonical_word(t).tokens[1])
    assert witness.signed_distance == pytest.approx(-0.1, rel=1e-9)


@pytest.mark.parametrize("spec", [TetrahedronSpec(E, math.pi / 3), TetrahedronSpec(S, 1.1),
                                  TetrahedronSpec(H, 0.5),
                                  generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])],
                         ids=["E", "S", "H", "generic"])
def test_metrics_reject_words_that_are_no_chain(spec):
    # an empty word, or a quarter of no segment, raised IndexError, and a pair of tokens
    # with no face between them KeyError ('12', '34'): all are ValueError, the closing
    # pair included
    with pytest.raises(ValueError, match="0 fractions for a word of 0 tokens"):
        path_metrics(spec, (), ())
    for tokens in ((), ("12", "23"), ("12", "23", "13")):
        with pytest.raises(ValueError, match=f"1 fractions for a word of {len(tokens)} tokens"):
            path_metrics(spec, tokens, [0.5])
    for tokens in (("12", "34", "13"), ("12", "23", "13", "13"), ("12", "23", "34"),
                   ("12", "21", "13"), ("12", "23", "99"), ("12",)):
        with pytest.raises(ValueError, match="must share exactly one vertex"):
            path_metrics(spec, tokens, [0.5] * len(tokens))
    path = GeodesicPath(GeodesicType(1, 2), spec.space, (("12", 0.5), ("34", 0.5)), 1.0, 0.1,
                        True, True, 0.0, 0.5)
    with pytest.raises(ValueError, match="must share exactly one vertex"):
        vertex_clearance(path, spec)
    with pytest.raises(ValueError, match="word of 0 tokens"):
        vertex_clearance(replace(path, crossings=()), spec)


@pytest.mark.parametrize("spec", [TetrahedronSpec(E, math.pi / 3), TetrahedronSpec(S, 1.1),
                                  TetrahedronSpec(H, 0.5),
                                  generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])],
                         ids=["E", "S", "H", "generic"])
def test_metrics_reject_two_crossings_at_the_vertex_their_edges_share(spec):
    # their segment has no length: the fold-back metrics read its angles off rounding,
    # or raised NumericalFailure where its S(d)^2 rounded below zero
    t = GeodesicType(1, 2)
    word = canonical_word(t)
    tokens, n = word.tokens, len(word.tokens)
    for i in (1, n - 1):        # inside the word, and the pair that closes it
        j = (i + 1) % n
        pivot = (set(tokens[i]) & set(tokens[j])).pop()
        fracs = list(word.fractions)
        fracs[i], fracs[j] = float(tokens[i].index(pivot)), float(tokens[j].index(pivot))
        path = GeodesicPath(t, spec.space, tuple(zip(tokens, fracs)), 1.0, 0.1, True, True,
                            0.0, 0.0)
        with pytest.raises(ValueError, match=f"crossing {i} and the next sit at the vertex"):
            path_metrics(spec, tokens, fracs)
        with pytest.raises(ValueError, match=f"crossing {i} and the next sit at the vertex"):
            vertex_clearance(path, spec)
        if i < n // 4:          # in the quarter too
            with pytest.raises(ValueError, match=f"crossing {i} and the next"):
                path_metrics(spec, tokens, fracs[:n // 4 + 1])
        fracs[i] = 1.0 - fracs[i]   # the other end of e_i: the segment runs along e_i
        assert vertex_clearance(replace(path, crossings=tuple(zip(tokens, fracs))), spec) == 0.0


@pytest.mark.parametrize("pq", [(0, 1), (1, 2), (3, 5), (7, 13)])
def test_hyperbolic_midpoint_path_builds_only_its_quarter_chain(monkeypatch, pq):
    lengths, build_chain = [], frames.build_chain

    def recording(spec, tokens):
        lengths.append(len(tokens))
        return build_chain(spec, tokens)

    monkeypatch.setattr(frames, "build_chain", recording)
    path = midpoint_geodesic(TetrahedronSpec(H, 0.5), GeodesicType(*pq))
    assert lengths and max(lengths) <= len(path.tokens) // 4 + 1, lengths


@pytest.mark.parametrize("alpha", [1.1, 1.3, 1.6, 2.0])
def test_spherical_midpoint_path_builds_only_its_quarter_chain(monkeypatch, alpha):
    lengths, build_chain = [], frames.build_chain
    monkeypatch.setattr(frames, "build_chain",
                        lambda spec, toks: lengths.append(len(toks)) or build_chain(spec, toks))
    for pq in coprime_types(12):
        lengths.clear()
        midpoint_geodesic(TetrahedronSpec(S, alpha), GeodesicType(*pq))
        assert lengths and max(lengths) <= sum(pq) + 1, (pq, lengths)


@pytest.mark.parametrize("spec", [TetrahedronSpec(H, 0.3), TetrahedronSpec(S, 1.2),
                                  generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])])
def test_build_chain_builds_each_pair_once(spec):
    # a step depends only on the space, the face's edge lengths and the pair's pivot
    # and exit order: a regular spec's chain holds at most four step objects
    tokens = list(crossing_sequence(GeodesicType(3, 5)).tokens)
    tokens.append(tokens[0])
    steps = frames.build_chain(spec, tokens)
    assert steps == [frames.build_chain(spec, tokens[i:i + 2])[0] for i in range(len(steps))]
    pairs = list(zip(tokens, tokens[1:]))
    assert len({id(step) for step in steps}) <= min(len(set(pairs)), 24)
    if isinstance(spec, TetrahedronSpec):       # one step per pivot side and exit order
        shared = {frames._STEP_KEYS[pair][3:]: step for pair, step in zip(pairs, steps)}
        assert len(shared) <= 4
        assert all(step is shared[frames._STEP_KEYS[pair][3:]] for pair, step in zip(pairs, steps))
    # the step table: a chain of an equal spec shares the very step objects,
    # and they equal steps built afresh with the table cleared
    twin = replace(spec)
    assert twin == spec and twin is not spec
    assert all(a is b for a, b in zip(frames.build_chain(twin, tokens), steps))
    frames._chain_step.cache_clear()
    fresh = frames.build_chain(spec, tokens)
    assert fresh == steps and all(a is not b for a, b in zip(fresh, steps))


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


@st.composite
def shot_chains(draw):
    """(space, alpha, p, q): a shallow hyperbolic chain, or a spherical one near the flat limit."""
    if draw(st.booleans()):
        return (H, *draw(shallow_chains()))
    alpha = draw(st.floats(math.pi / 3 + 1e-6, math.pi / 3 + 0.05))
    return (S, alpha, *draw(st.sampled_from(coprime_types(12))))


@given(shot_chains())
def test_shoot_and_relax_agree(chain):
    # the exact quarter chords, shot on the sphere and carried from both ends on
    # the hyperboloid, against the Newton chord pinned at both midpoints: it must
    # reproduce their crossing offsets, near the flat limit too
    space, alpha, p, q = chain
    spec = TetrahedronSpec(space, alpha)
    t = GeodesicType(p, q)
    if space == S:   # on contained quarters
        assume(isinstance(midpoint_geodesic(spec, t), GeodesicPath))
    fracs, _, _, (steps, ells) = _quarter_chord(spec, canonical_word(t))
    shot = [(f - 0.5) * ell for f, ell in zip(fracs, ells)]
    offsets, _ = frames.relax_chord(steps, ells, list(canonical_word(t).fractions[:len(ells)]))
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


@given(st.floats(1e-6, 1e-3), st.sampled_from(coprime_types(12)))
def test_curved_metrics_tend_to_the_plane(delta, pq):
    # the same crossings, the canonical word's fractions, measured by one kernel at
    # k = -1, 0 and +1: in units of the edge, the curved metrics at
    # alpha = pi/3 -+ delta are within a multiple of delta of the plane's
    word = canonical_word(GeodesicType(*pq))
    plane = TetrahedronSpec(E, math.pi / 3)
    flat = path_metrics(plane, word.tokens, word.fractions)
    flat_length, flat_clearance = flat[0] / plane.edge, flat[1] / plane.edge
    for space, alpha in ((H, math.pi / 3 - delta), (S, math.pi / 3 + delta)):
        spec = TetrahedronSpec(space, alpha)
        length, clearance, residual = path_metrics(spec, word.tokens, word.fractions)
        assert abs(length / spec.edge - flat_length) <= delta * flat_length, space
        assert abs(clearance / spec.edge - flat_clearance) <= delta * flat_clearance, space
        assert abs(residual - flat[2]) <= 4.0 * delta, space


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
        length, _, residual = path_metrics(spec, copy.tokens, copy.fractions)
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


@pytest.mark.parametrize("pq", [(1, 2), (2, 3), (3, 5), (4, 7)])
def test_mirror_map_rejects_asymmetric_words(pq):
    # swapping any two neighbouring tokens of the word breaks the half turns
    seq = crossing_sequence(GeodesicType(*pq))
    n = len(seq.tokens)
    quarter = [float(f) for f in seq.fractions[:n // 4 + 1]]
    for j in range(n - 1):
        toks = list(seq.tokens)
        toks[j], toks[j + 1] = toks[j + 1], toks[j]
        with pytest.raises(NumericalFailure, match="lacks the half-turn symmetry"):
            full_fractions_from_quarter(replace(seq, tokens=tuple(toks)), quarter)


def test_mirror_map_takes_exactly_the_quarter():
    seq = crossing_sequence(GeodesicType(2, 3))
    exact = [float(f) for f in seq.fractions]
    K = len(exact) // 4
    for count in (K, K + 2, len(exact)):
        with pytest.raises(ValueError, match="quarter fractions"):
            full_fractions_from_quarter(seq, exact[:count])


def test_euclid_rejects_unrepresentable_mu():
    t = GeodesicType(1, 2)
    with pytest.raises(ValueError):
        euclid_geodesic(t, math.inf)
    with pytest.raises(VertexHit):   # valid exactly, but the crossing rounds onto a vertex
        euclid_geodesic(t, 1e-300)


@pytest.mark.parametrize("mu", [10**400, Fraction(10**400 + 1, 3)])
def test_euclid_rejects_huge_exact_mu_by_its_interval(mu):
    # too large for a float: the finiteness check reads floats only
    with pytest.raises(VertexHit, match="outside the valid interval"):
        euclid_geodesic(GeodesicType(1, 2), mu)


def test_euclid_rejects_midpoint_geodesic():
    with pytest.raises(PreconditionFailed):
        midpoint_geodesic(TetrahedronSpec(E, math.pi / 3), GeodesicType(1, 2))


@pytest.mark.parametrize("solve", [
    lambda steps, ells, fracs: frames.propagate_chord(steps, 0.3),
    lambda steps, ells, fracs: frames.shoot_chord(steps),
    lambda steps, ells, fracs: frames.relax_chord(steps, ells, fracs),
], ids=["propagate", "shoot", "relax"])
def test_plane_chain_has_no_chord_solver(solve):
    # the (1,2) quarter's exact fractions are 1/2, 1/6, 1/4, 1/2: the atanh
    # offsets put every crossing at 1/2, and Newton steps never converged
    word = canonical_word(GeodesicType(1, 2))
    tokens = word.tokens[:len(word.tokens) // 4 + 1]
    assert word.fractions[:len(tokens)] == (0.5, 1 / 6, 0.25, 0.5)
    steps = frames.build_chain(TetrahedronSpec(E, math.pi / 3), tokens)
    with pytest.raises(ValueError, match="tiling line"):
        solve(steps, [1.0] * len(tokens), list(word.fractions[:len(tokens)]))


class _ScaledEuclid:
    """Euclidean spec with edge c: the unit normalization is scale free."""

    def __init__(self, c):
        self.space = E
        self.edge = c
        self.edges = dict.fromkeys(EDGES, c)
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
        total, clearance, worst = path_metrics(_ScaledEuclid(c), path.tokens, path.fractions)
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


def _holonomy_length(spec, t):
    """Translation length of the closed chain's holonomy M: tr M = 1 + 2 cosh L."""
    word = canonical_word(t)
    holonomy = frames.IDENTITY3
    for step in frames.build_chain(spec, list(word.tokens) + [word.tokens[0]]):
        holonomy = frames._matmul(step.transition, holonomy)
    return math.acosh((holonomy[0][0] + holonomy[1][1] + holonomy[2][2] - 1.0) / 2.0)


@st.composite
def generic_specs(draw):
    """Near-regular hyperbolic tetrahedra with every planar angle at most pi/4."""
    base = draw(st.floats(1.6, 4.0))
    try:
        spec = generic_from_edges([base * (1.0 + draw(st.floats(-0.05, 0.05)))
                                   for _ in range(6)])
    except InvalidTetrahedron:
        assume(False)
    assume(spec.all_angles_le(math.pi / 4))
    return spec


@given(generic_specs(), st.sampled_from(coprime_types(20)))
def test_generic_length_is_the_holonomy_translation(spec, pq):
    # the solve is pinned at the holonomy axis's offset s_0 on e_0 and closes up
    t = GeodesicType(*pq)
    path = generic_hyperbolic_geodesic(spec, t)
    assert path.total_length == pytest.approx(_holonomy_length(spec, t), rel=1e-14)
    word = canonical_word(t)
    _, s0 = frames.holonomy_axis(frames.build_chain(spec, list(word.tokens) + [word.tokens[0]]))
    ell = spec.face_edge_length(int(word.tokens[0][0]), int(word.tokens[0][1]))
    assert abs(path.extras["s0"] - (s0 + ell / 2.0)) <= 1e-13 * ell
    assert path.closure_residual < 1e-11


def test_regular_generic_length_is_the_holonomy_translation():
    spec = generic_from_edges([edge_from_angle(H, math.pi / 6)] * 6)
    for pq in coprime_types(13):
        t = GeodesicType(*pq)
        path = generic_hyperbolic_geodesic(spec, t)
        assert path.total_length == pytest.approx(_holonomy_length(spec, t), rel=1e-12), pq


def test_axis_chord_is_the_closed_geodesic():
    # its offsets lose about e^(L/2) eps to rounding, 6e-13 at (3,5) and 5e-9 at
    # (4,9): it is only the seed that relax_chord polishes
    spec = generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])
    for pq in ((0, 1), (1, 2), (2, 3), (3, 5)):
        path = generic_hyperbolic_geodesic(spec, GeodesicType(*pq))
        word = list(path.tokens) + [path.tokens[0]]
        ells = [spec.face_edge_length(int(tok[0]), int(tok[1])) for tok in word]
        steps = frames.build_chain(spec, word)
        axis, s0 = frames.holonomy_axis(steps)
        offsets = frames.axis_chord(steps, axis)
        assert len(offsets) == len(word) and offsets[0] == offsets[-1] == s0
        assert max(abs(x / ell + 0.5 - f) for x, ell, f in
                   zip(offsets, ells, path.fractions + path.fractions[:1])) < 1e-11, pq


def test_axis_seeded_solve_takes_few_evaluations(monkeypatch):
    # from the Euclidean fractions these solves took about 10 evaluations on
    # average, up to 55 on the skew spec
    calls, derivatives = [], frames._chord_derivatives
    monkeypatch.setattr(frames, "_chord_derivatives",
                        lambda *args: calls.append(1) or derivatives(*args))
    specs = (generic_from_edges([edge_from_angle(H, math.pi / 6)] * 6),
             generic_from_edges([2.0, 2.0, 2.0, 2.2, 2.2, 2.2]))
    cases = [(spec, GeodesicType(*pq)) for spec in specs for pq in coprime_types(20)]
    per_solve = []
    for spec, t in cases:
        before = len(calls)
        assert isinstance(generic_hyperbolic_geodesic(spec, t), GeodesicPath)
        per_solve.append(len(calls) - before)
    assert sum(per_solve) <= 3 * len(cases), sum(per_solve)
    assert max(per_solve) <= 8, max(per_solve)


def _missed(steps):
    raise NumericalFailure("chord misses the geodesic of edge e_1")


@pytest.mark.parametrize("axis", [
    lambda steps, axis: _missed(steps),
    lambda steps, axis: [math.nan] * (len(steps) + 1),
    lambda steps, axis: [0.0] + [1e3] * len(steps),
], ids=["missed", "not-finite", "off-the-edge"])
def test_failed_axis_falls_back_to_the_euclidean_seed(axis, monkeypatch):
    # a carried axis that fails seeds the interior from the Euclidean fractions;
    # both ends stay pinned at the holonomy's s_0
    spec, t = generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02]), GeodesicType(3, 5)
    seeded = generic_hyperbolic_geodesic(spec, t)
    word = canonical_word(t)
    tokens = list(word.tokens) + [word.tokens[0]]
    _, s0 = frames.holonomy_axis(frames.build_chain(spec, tokens))
    ell = spec.face_edge_length(int(tokens[0][0]), int(tokens[0][1]))
    seeds, relax = [], frames.relax_chord
    monkeypatch.setattr(frames, "axis_chord", axis)
    monkeypatch.setattr(frames, "relax_chord",
                        lambda steps, ells, init: seeds.append(init) or relax(steps, ells, init))
    path = generic_hyperbolic_geodesic(spec, t)
    assert seeds == [[s0 / ell + 0.5] + list(word.fractions[1:]) + [s0 / ell + 0.5]]
    assert isinstance(path, GeodesicPath) and path.closed and path.simple
    assert max(abs(a - b) for a, b in zip(path.fractions, seeded.fractions)) < 1e-11
    assert abs(path.total_length - seeded.total_length) <= 1e-12 * seeded.total_length


def _boost(i, t):
    """The hyperboloid's translation by t along the x (i = 1) or y (i = 2) direction."""
    m = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    m[0][0] = m[i][i] = math.cosh(t)
    m[0][i] = m[i][0] = math.sinh(t)
    return tuple(map(tuple, m))


def test_holonomy_axis_that_misses_e0_raises(monkeypatch):
    # a holonomy that translates along a line 0.5 away from e_0's geodesic,
    # which never meets it: there is no s_0 to pin, and no path
    holonomy = frames._matmul(_boost(2, 0.5), frames._matmul(_boost(1, 3.0), _boost(2, -0.5)))
    build_chain = frames.build_chain

    def skewed(spec, tokens):
        steps = build_chain(spec, tokens)
        return ([steps[0]._replace(transition=holonomy)]
                + [step._replace(transition=frames.IDENTITY3) for step in steps[1:]])

    monkeypatch.setattr(frames, "build_chain", skewed)
    spec = generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])
    with pytest.raises(NumericalFailure, match="holonomy axis misses the geodesic of edge e_0"):
        generic_hyperbolic_geodesic(spec, GeodesicType(1, 2))


def test_generic_larger_types():
    # longer generic chains: the solve pinned at s0 in edge-local frames keeps
    # the closure residual at solver precision
    spec = generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02])
    for pq in ((1, 3), (2, 3)):
        path = generic_hyperbolic_geodesic(spec, GeodesicType(*pq))
        assert path.closed and path.simple
        assert path.closure_residual < 1e-10


# ---------------------------------------------------------------------------
# work done once per construction

@pytest.mark.parametrize("build", [
    lambda: midpoint_geodesic(TetrahedronSpec(H, 0.5), GeodesicType(3, 5)),
    lambda: midpoint_geodesic(TetrahedronSpec(S, 1.1), GeodesicType(1, 2)),
    lambda: generic_hyperbolic_geodesic(generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02]),
                                        GeodesicType(2, 3)),
], ids=["hyperbolic-midpoint", "spherical-midpoint", "generic"])
def test_one_chain_and_no_fraction_per_construction(build, monkeypatch):
    # once the type's word is cached, the solve and the fold-back share one
    # chain and the float fractions of the integer word stand in for Fractions
    build()
    chains, made = [], []
    build_chain = frames.build_chain
    monkeypatch.setattr(frames, "build_chain", lambda *args: chains.append(1) or build_chain(*args))
    new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            made.append(1)

    sys.setprofile(profile)
    try:
        path = build()
    finally:
        sys.setprofile(None)
    assert isinstance(path, GeodesicPath) and path.closed and path.simple
    assert (len(chains), len(made)) == (1, 0)


@pytest.mark.parametrize("build", [
    lambda: euclid_geodesic(GeodesicType(2, 3)),
    lambda: midpoint_geodesic(TetrahedronSpec(H, 0.5), GeodesicType(3, 5)),
    lambda: midpoint_geodesic(TetrahedronSpec(S, 1.1), GeodesicType(1, 2)),
    lambda: generic_hyperbolic_geodesic(generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02]),
                                        GeodesicType(2, 3)),
], ids=["euclidean", "hyperbolic-midpoint", "spherical-midpoint", "generic"])
def test_one_path_record_per_construction(build, monkeypatch):
    # simplicity is decided before the path is built, so it is built once
    built, init = [], GeodesicPath.__init__
    monkeypatch.setattr(GeodesicPath, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    path = build()
    assert path.simple and len(built) == 1
    assert path.simple == simplicity_check(path, None)

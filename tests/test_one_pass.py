"""The one-pass layers of the midpoint construction against the code they replaced.

Each layer but the clearance kernel keeps the floating-point (or integer)
operations of its reference, so results are compared with ==:

* the hyperbolic quarter length, the fold-back pass's sum (paths._chain_metrics),
  against the trace of the carried chord (frames.trace_geometry);
* frames.propagate_chord and frames.carry, with the product and the
  normalisation written out and the handedness read from each step's
  det_sign, against the helper-based propagation of the sphere's chord;
* combinat._integer_trace, with the vertex labels read inline, against
  the closure-based trace below.

The clearance kernel geom.rpoint_seg_dist places the foot of the
perpendicular by two signs.  It replaced the projected foot with end
slack (face_fold.foot_point_seg_dist), which it equals on every recorded
call outside a 1e-8 relative band around either sign's zero, and matches
within 4 ulps inside it; both measure a segment end as acosh(-<V, E>) past
cosh 2 and by the chord below it (geom._end_distance, and its own copy in
the oracle).  Near a segment's ends it is checked against the distance
taken in an unmoved frame, where the old end slack read a point just
beyond an end as on the segment, and far beyond an end against the
known distance.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import coprime_types
from face_fold import _cross3, _dot3, foot_point_seg_dist
from tetrageo import counting, frames, paths
from tetrageo.combinat import GeodesicType, _integer_trace, canonical_word
from tetrageo.errors import TooLong, VertexHit
from tetrageo.geom import SpaceKind, _end_distance, _kunit, rdistance, rpoint_seg_dist
from tetrageo.paths import euclid_mu_interval, midpoint_geodesic
from tetrageo.tetra import TetrahedronSpec, edge_token

H, S = SpaceKind.HYPERBOLIC, SpaceKind.SPHERICAL


# ---------------------------------------------------------------------------
# clearance: the sign-placed foot against the projected foot

SEG_TIE = 1e-8  # the relative band, around either sign's zero, where the two may differ


def _in_tie_band(space, V, A, B):
    """True when <V, t_A> or <V, t_B> is zero within SEG_TIE of its larger term."""
    k, (v0, v1, v2), (a0, a1, a2), (b0, b1, b2) = float(space), V, A, B
    ab = k * a0 * b0 + a1 * b1 + a2 * b2
    va, vb = k * v0 * a0 + v1 * a1 + v2 * a2, k * v0 * b0 + v1 * b1 + v2 * b2
    ta, tb = vb - k * ab * va, va - k * ab * vb
    return (abs(ta) <= SEG_TIE * max(1.0, abs(ab * va))
            or abs(tb) <= SEG_TIE * max(1.0, abs(ab * vb)))


def _recorded_seg_calls(monkeypatch, construct):
    """Every curved (space, V, A, B) that _chain_metrics measures during construct()."""
    calls, kernel = [], paths.rpoint_seg_dist
    monkeypatch.setattr(paths, "rpoint_seg_dist",
                        lambda *args: (args[0] != SpaceKind.EUCLIDEAN and calls.append(args))
                        or kernel(*args))
    construct()
    monkeypatch.setattr(paths, "rpoint_seg_dist", kernel)
    return calls


def _assert_kernel_is_the_foot_distance(calls):
    """== the projected foot's distance outside the tie band, within 4 ulps in it.

    Returns the number of calls in the band.
    """
    band = 0
    for args in calls:
        got, ref = rpoint_seg_dist(*args), foot_point_seg_dist(*args)
        if _in_tie_band(*args):
            band += 1
            assert abs(got - ref) <= 4 * math.ulp(ref), args
        else:
            assert got == ref, args
    return band


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
def test_seg_distance_on_count_calls(alpha, monkeypatch):
    # count_exact caches its rows: start afresh.  The clearance scan tests only vertices
    # under its edge-end bound, so the deep tetrahedron counts to a longer L for its calls
    counting._measure_type.cache_clear()
    L = 60 if alpha < 0.5 else 40
    calls = _recorded_seg_calls(monkeypatch, lambda: counting.count_exact(L, alpha))
    assert len(calls) > 150
    band = _assert_kernel_is_the_foot_distance(calls)
    assert band >= (alpha == 0.5)


def test_seg_distance_on_spherical_verdict_grid(monkeypatch):
    def grid():
        for k in range(72):
            spec = TetrahedronSpec(S, 1.05 + 0.005 * k)
            for pq in coprime_types(7):
                try:
                    midpoint_geodesic(spec, GeodesicType(*pq))
                except TooLong:
                    pass

    calls = _recorded_seg_calls(monkeypatch, grid)
    assert len(calls) > 400
    assert _assert_kernel_is_the_foot_distance(calls) >= 1


def _motion(space, phi, beta):
    """A rotation by phi in the (x1, x2) plane after a boost (H) or rotation (S) by beta in (x0, x1)."""
    c, s = (math.cosh(beta), math.sinh(beta)) if space == H else (math.cos(beta), math.sin(beta))
    k = float(space)
    cp, sp = math.cos(phi), math.sin(phi)
    return lambda X: (c * X[0] - k * s * X[1],
                      cp * (s * X[0] + c * X[1]) - sp * X[2],
                      sp * (s * X[0] + c * X[1]) + cp * X[2])


@given(st.sampled_from([H, S]), st.floats(0.05, 2.0), st.floats(-1.0, 1.0),
       st.floats(-13.0, -7.0), st.sampled_from([-1, 1]), st.booleans(),
       st.floats(-1.2, 1.2), st.floats(0.0, 2.0 * math.pi), st.floats(-1.0, 1.0))
@example(S, 1.0, 0.3, -10.0, -1, False, 0.0, 1.0, 0.5)   # on the line, 1e-10 beyond A
def test_seg_distance_near_segment_ends(space, d, a, log_gap, inside, at_b, h, phi, beta):
    # the foot lies 1e-13..1e-7 inside or outside an end of the segment AB on
    # the line y = 0, V at signed distance h from it; a rigid motion makes
    # every coordinate generic, and the distance is taken in the unmoved frame
    C, Sn = (math.cosh, math.sinh) if space == H else (math.cos, math.sin)
    gap = inside * 10.0 ** log_gap
    x = a + d - gap if at_b else a + gap
    move = _motion(space, phi, beta)
    A, B = (C(a), Sn(a), 0.0), (C(a + d), Sn(a + d), 0.0)
    V = (C(h) * C(x), C(h) * Sn(x), Sn(h))
    expected = abs(h) if inside > 0 else rdistance(space, V, B if at_b else A)
    assert abs(rpoint_seg_dist(space, move(V), move(A), move(B)) - expected) <= 1e-12


@given(st.floats(0.5, 40.0), st.floats(math.pi / 2 + 0.05, 3 * math.pi / 2 - 0.05),
       st.floats(0.05, 2.0), st.floats(0.0, 2.0 * math.pi), st.floats(-1.0, 1.0))
@example(20.0, math.pi, 1.0, 0.0, 0.0)
def test_seg_distance_to_a_far_end(d, theta, ell, phi, beta):
    # V at the known distance d from the end A of AB, at an angle theta > pi/2 from
    # it, so the foot lies beyond A.  Under a rigid motion the moved reps round by a
    # few ulps of cosh(beta)^2: the distance is d within them and the final rounding,
    # the chord below cosh d = 2 and acosh(-<V, A>) past it (the chord's <V - A, V - A>
    # loses e^d ulps there: 1e6 at d = 16)
    move = _motion(H, phi, beta)
    A, B = move((1.0, 0.0, 0.0)), move((math.cosh(ell), math.sinh(ell), 0.0))
    V = move((math.cosh(d), math.sinh(d) * math.cos(theta), math.sinh(d) * math.sin(theta)))
    va = -V[0] * A[0] + V[1] * A[1] + V[2] * A[2]
    got = _end_distance(H, V, A, va)
    assert abs(got - d) <= 2 * math.ulp(d) + 16 * 2.0 ** -52 * math.cosh(beta) ** 2
    assert rpoint_seg_dist(H, V, A, B) == got
    if va >= -2.0:
        assert got == rdistance(H, V, A)


# ---------------------------------------------------------------------------
# the hyperbolic quarter length: the fold-back pass against the trace

@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
def test_quarter_length_is_the_traced_length(alpha):
    # the carried quarter chord has no length of its own: the path's is four times
    # the fold-back pass's sum over its quarter, the trace of the chord's offsets
    spec = TetrahedronSpec(H, alpha)
    for pq in coprime_types(12):
        word = canonical_word(GeodesicType(*pq))
        fracs, _, _, (steps, ells) = paths._quarter_chord(spec, word)
        traced = frames.trace_geometry(steps, [(f - 0.5) * ell for f, ell in zip(fracs, ells)])
        assert midpoint_geodesic(spec, word.gtype).total_length == 4 * sum(traced), pq


# ---------------------------------------------------------------------------
# propagation: the written-out product and normalisation against the helpers

def _helper_propagation(steps, theta):
    """propagate_chord through frames._matvec, geom._kunit and the determinant of each transition."""
    n, h = (0.0, math.sin(theta), -math.cos(theta)), 1.0
    offsets, normals = [], []
    for i in range(len(steps) + 1):
        if i:
            m = steps[i - 1].transition
            n = _kunit(1.0, frames._matvec(m, n))
            h = h if _dot3(m[2], _cross3(m[0], m[1])) > 0.0 else -h
        offsets.append(math.atan2(-h * n[0], h * n[1]))
        normals.append(n)
    return offsets, normals


@given(st.sampled_from([H, SpaceKind.EUCLIDEAN, S]), st.floats(0.05, 1.5), st.floats(0.05, 1.5),
       st.floats(0.05, 1.5), st.booleans(), st.booleans(), st.floats(1.0, 8.0))
def test_det_sign_is_the_sign_of_the_determinant(space, ell, d_minus, d_plus, from_b, w_first,
                                                 scale):
    # the frame keeps det(transition)'s sign as its orientation was chosen
    if space != S:
        ell, d_minus, d_plus = ell * scale, d_minus * scale, d_plus * scale
    try:
        step = frames._chain_step(space, ell, d_minus, d_plus, from_b, w_first)
    except frames.NumericalFailure:
        assume(False)
    lam = step.transition
    assert step.det_sign == (1.0 if _dot3(lam[2], _cross3(lam[0], lam[1])) > 0.0 else -1.0)


@given(st.sampled_from([1.1, 1.3, 1.6]), st.sampled_from(coprime_types(20)))
def test_propagation_matches_the_helpers(alpha, pq):
    # the sphere's chord: the hyperboloid's is carried from both ends, not shot
    word = canonical_word(GeodesicType(*pq))
    K = len(word.tokens) // 4
    chain = frames.build_chain(TetrahedronSpec(S, alpha), list(word.tokens) + [word.tokens[0]])
    v = (1.0, 0.0, 0.0)             # the shot's direction: mid(e_K) pulled back to frame E_0
    for step in reversed(chain[:K]):
        v = frames._matvec(step.inverse, v)
    theta = math.atan2(v[2], v[1])
    expected = _helper_propagation(chain, theta)
    assert frames.propagate_chord(chain, theta) == expected
    # carried on from e_K over the rest of the chain, the normals are the same bits
    normals = frames.propagate_chord(chain[:K], theta)[1]
    assert normals[:-1] + frames.carry([st.transition for st in chain[K:]],
                                       normals[-1]) == expected[1]
    with pytest.raises(ValueError, match="carried from its two ends"):
        frames.propagate_chord(frames.build_chain(TetrahedronSpec(H, 0.5), word.tokens), theta)


# ---------------------------------------------------------------------------
# the integer trace: labels read inline against the closure-based trace

def _vertex_label(u, m):
    """Tetrahedron label of the tiling vertex at (x, Y) = (u/2, m/2): by m % 4 and floor(x) % 2."""
    return ((1, 2), (3, 4), (2, 1), (4, 3))[m % 4][(u // 2) % 2]


def _closure_trace(t, a, b):
    """_integer_trace with a per-crossing closure and label calls: same records and errors."""
    pe, qe = t.effective()
    w = qe + 2 * pe
    D = 2 * b * math.lcm(qe, pe + qe, pe or 1)
    out = []

    def add(X, u0, m0, u1, m1, F):
        if F <= 0 or F >= D:
            raise VertexHit(f"tiling line through mu={Fraction(a, b)} hits a vertex "
                            f"near x={Fraction(X, D)}")
        l0, l1 = _vertex_label(u0, m0), _vertex_label(u1, m1)
        out.append((X, edge_token(l0, l1), F if l0 < l1 else D - F))

    for m in range(0, 2 * qe):
        X = a * (D // b) + m * w * (D // (2 * qe))
        off = D // 2 if m % 2 else 0
        k = (X - off) // D
        add(X, 2 * k + m % 2, m, 2 * k + m % 2 + 2, m, X - k * D - off)
    for s, c in ((1, pe), (-1, pe + qe)):
        for n in range(a // b + 1, -(-(a + 2 * c * b) // b)):
            X = (n * w * b - s * qe * a) * (D // (2 * c * b))
            T = qe * (n * b - a) * (D // (c * b))
            y0 = T // D
            add(X, 2 * n + s * y0, y0, 2 * n + s * (y0 + 1), y0 + 1, T - y0 * D)

    out.sort(key=lambda rec: rec[0])
    if len(out) != t.n_crossings:
        raise VertexHit(f"expected {t.n_crossings} crossings, traced {len(out)}")
    for i in range(1, len(out)):
        if out[i][0] == out[i - 1][0]:
            raise VertexHit("two crossings coincide: segment passes a tiling vertex")
    return D, out


def _same_integer_trace(t, mu):
    """Both traces give equal records, or raise VertexHit with one message; True if traced."""
    a, b = mu.numerator, mu.denominator
    try:
        expected = _closure_trace(t, a, b)
    except VertexHit as exc:
        with pytest.raises(VertexHit) as got:
            _integer_trace(t, a, b)
        assert str(got.value) == str(exc)
        return False
    assert _integer_trace(t, a, b) == expected
    return True


def test_integer_trace_matches_closure_trace_on_canonical_words():
    for pq in coprime_types(60):
        assert _same_integer_trace(GeodesicType(*pq), Fraction(1, 2)), pq


@given(st.sampled_from(coprime_types(30)), st.integers(1, 10**6), st.integers(-3, 10**6 + 3))
def test_integer_trace_matches_closure_trace(pq, den, k):
    # k = 0 and k = den are forbidden anchors (vertex hits); outside the
    # interval the line may hit a vertex or not, and both traces must agree
    t = GeodesicType(*pq)
    lo, hi = euclid_mu_interval(t)
    traced = _same_integer_trace(t, lo + (hi - lo) * Fraction(k, den))
    if 0 <= k <= den:
        assert traced == (0 < k < den)

"""Construction and verification of candidate closed geodesics.

Three construction routes:

* Euclidean: the tiling-line method, exact rational crossings;
* spherical / hyperbolic regular: the midpoint-chord method on one quarter
  of the development (the central symmetry of the development transports
  the quarter to the whole curve);
* generic hyperbolic: the closed taut chord of the whole development, whose
  two incidence angles at the edge point s0 are supplementary.

Both hyperbolic routes solve the chord with the one Newton solver of
:func:`frames.relax_chord`, pinned at X1 and Y1 for the regular quarter and
closed up for the generic tetrahedron.

All path metrics (length, clearance, closure residuals, simplicity) are
recomputed from the crossing fractions by folding segments back onto
canonically placed faces, so they are independent of how the candidate was
produced and stay well conditioned for long hyperbolic chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import frames
from .combinat import CrossingSequence, GeodesicType, crossing_sequence, trace_crossings
from .errors import NumericalFailure, PreconditionFailed, TooLong, VertexHit
from .geom import (SpaceKind, _cross3, _dot3, _unit3, chart_point, rangle,
                   rdistance, rinterpolate, rmidpoint, rpoint_at, rpoint_seg_dist,
                   rside_measure, rtangent)
from .tetra import TetrahedronSpec, edge_token
from .unfold import _center_involution, first_face_reps, place_chain

FRACTION_MARGIN = 1e-9


@dataclass(frozen=True)
class GeodesicPath:
    """A closed polyline on the tetrahedron, one crossing per edge visit."""

    gtype: GeodesicType
    space: SpaceKind
    crossings: tuple          # ((edge token, fraction from smaller label), ...)
    total_length: float
    clearance: float
    closed: bool
    simple: bool
    closure_residual: float
    min_fraction_margin: float
    segments: tuple           # (face labels, chart point in, chart point out)
    extras: dict = field(default_factory=dict, compare=False)

    @property
    def tokens(self):
        return tuple(tok for tok, _ in self.crossings)

    @property
    def fractions(self):
        return tuple(f for _, f in self.crossings)


@dataclass(frozen=True)
class NotContained:
    """First boundary violation of the midpoint chord."""

    gtype: GeodesicType
    face_index: int
    edge: str
    signed_distance: float
    reason: str = "chord leaves the face chain"


# ---------------------------------------------------------------------------
# canonical per-face geometry (fold a path back onto single faces)
#
# Metric computations run in rep coordinates (hyperboloid for H): folding
# through Klein coordinates costs ~cosh(a)^2 * eps of precision, which is
# fatal for the large edge lengths of small planar angles.

def _rep_face(spec, labels):
    """Face rep points of face (i<j<k): edge ij centered, apex k above."""
    i, j, k = labels
    vm, vp, apex = first_face_reps(
        spec.space, spec.face_edge_length(i, j),
        spec.face_edge_length(i, k), spec.face_edge_length(j, k))
    return {i: vm, j: vp, k: apex}


def _rep_segments(spec, tokens, fractions):
    n = len(tokens)
    segs = []
    for i in range(n):
        tok_in, tok_out = tokens[i], tokens[(i + 1) % n]
        labels = tuple(sorted(set(int(c) for c in tok_in + tok_out)))
        pts = _rep_face(spec, labels)
        u1, v1 = int(tok_in[0]), int(tok_in[1])
        u2, v2 = int(tok_out[0]), int(tok_out[1])
        p_in = rinterpolate(spec.space, pts[u1], pts[v1], float(fractions[i]))
        p_out = rinterpolate(spec.space, pts[u2], pts[v2], float(fractions[(i + 1) % n]))
        segs.append((labels, pts, p_in, p_out))
    return segs


def path_metrics(spec, tokens, fractions):
    """Length, clearance, worst supplementary-angle residual, fold segments."""
    space = spec.space
    segs = _rep_segments(spec, tokens, fractions)
    n = len(tokens)
    total = 0.0
    clearance = math.inf
    for labels, pts, p_in, p_out in segs:
        total += rdistance(space, p_in, p_out)
        for lp in pts.values():
            clearance = min(clearance, rpoint_seg_dist(space, lp, p_in, p_out))
    worst = 0.0
    for i in range(n):
        _, prev_pts, pin_prev, pout_prev = segs[(i - 1) % n]
        _, cur_pts, pin_cur, pout_cur = segs[i]
        tok = tokens[i]
        v_ref = min(int(tok[0]), int(tok[1]))
        ang_in = rangle(space, pout_prev, prev_pts[v_ref], pin_prev)
        ang_out = rangle(space, pin_cur, cur_pts[v_ref], pout_cur)
        worst = max(worst, abs(ang_in + ang_out - math.pi))
    chart_segs = tuple((labels, chart_point(space, p_in), chart_point(space, p_out))
                       for labels, _, p_in, p_out in segs)
    return total, clearance, worst, chart_segs


def vertex_clearance(path, spec):
    """Minimum distance from the four vertices to the path (per-face charts)."""
    _, clearance, _, _ = path_metrics(spec, path.tokens, path.fractions)
    return clearance


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


def simplicity_check(path, spec):
    """No two segments on a common tetrahedron face cross in their interiors."""
    by_face = {}
    for labels, _, p_in, p_out in _rep_segments(spec, path.tokens, path.fractions):
        by_face.setdefault(labels, []).append((p_in, p_out))
    for segs in by_face.values():
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if _segments_properly_cross(spec.space, *segs[i], *segs[j]):
                    return False
    return True


def _assemble_path(spec, t, tokens, fractions, extras=None):
    total, clearance, worst, segs = path_metrics(spec, tokens, fractions)
    path = GeodesicPath(
        gtype=t, space=spec.space,
        crossings=tuple(zip(tokens, (float(f) for f in fractions))),
        total_length=total, clearance=clearance,
        closed=worst < 1e-8, simple=True, closure_residual=worst,
        min_fraction_margin=min(min(f, 1.0 - f) for f in fractions), segments=segs,
        extras=dict(extras or {}))
    return replace(path, simple=simplicity_check(path, spec))


# ---------------------------------------------------------------------------
# Euclidean tiling construction

def euclid_mu_interval(t: GeodesicType):
    """Open interval of valid anchors mu around 1/2 (exact rationals)."""
    pe, qe = t.effective()
    forbidden = set()
    for k in range(0, 2 * qe + 1):
        forbidden.add(Fraction(-k * (qe + 2 * pe), qe) % 1)
        forbidden.add((Fraction(1, 2) - Fraction((2 * k + 1) * (qe + 2 * pe), 2 * qe)) % 1)
    half = Fraction(1, 2)
    assert half not in forbidden, "mu=1/2 must be admissible"
    lo = max(f for f in forbidden if f < half)
    hi = min((f for f in forbidden if f > half), default=Fraction(1))
    return lo, hi


def euclid_geodesic(t: GeodesicType, mu=Fraction(1, 2)):
    """Type-(p,q) geodesic from the tiling segment anchored at X(mu, 0)."""
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    mu = Fraction(mu)
    lo, hi = euclid_mu_interval(t)
    if not (lo < mu < hi):
        raise VertexHit(f"mu={mu} outside the valid interval ({lo}, {hi})")
    recs = trace_crossings(t, mu)
    tokens = tuple(r[1] for r in recs)
    fractions = tuple(float(r[2]) for r in recs)
    if min(min(f, 1.0 - f) for f in fractions) < FRACTION_MARGIN:
        raise VertexHit(f"mu={float(mu)} puts a crossing within {FRACTION_MARGIN} of a vertex")
    spec = TetrahedronSpec(SpaceKind.EUCLIDEAN, math.pi / 3)
    return _assemble_path(spec, t, tokens, fractions,
                          extras={"mu": float(mu), "length_formula": 2.0 * math.sqrt(t.norm)})


# ---------------------------------------------------------------------------
# fraction mirroring through the symmetry points

def full_fractions_from_quarter(seq: CrossingSequence, quarter_fracs):
    """Full fraction list from quarter data via the Y1 and X2 half turns.

    The half turn about the midpoint of e_c maps crossing c-k to crossing
    c+k and relabels endpoints by the edge involution, so fractions mirror
    (f -> 1-f exactly when the involution flips the endpoint order).
    """
    n = len(seq.tokens)
    K = n // 4
    toks = list(seq.tokens)
    fracs = list(quarter_fracs)            # indices 0..K
    for center in (K, 2 * K):
        sigma = _center_involution(toks[center])
        for k in range(1, center + 1):     # extend to index 2*center
            src, dst = toks[center - k], toks[(center + k) % n]
            mapped = edge_token(sigma[int(src[0])], sigma[int(src[1])])
            if mapped != dst:
                raise NumericalFailure("crossing word lacks the half-turn symmetry")
            f = fracs[center - k]
            if sigma[min(int(src[0]), int(src[1]))] != min(int(dst[0]), int(dst[1])):
                f = 1.0 - f
            if len(fracs) == center + k:
                fracs.append(f)
            elif abs(fracs[center + k] - f) > 1e-9:
                raise NumericalFailure("mirrored fractions disagree")
    if abs(fracs[n] - fracs[0]) > 1e-9:
        raise NumericalFailure("mirrored fractions do not close up")
    return fracs[:n]


# ---------------------------------------------------------------------------
# spherical quarter construction (global chart; sphere coordinates are bounded)

def _spherical_quarter(spec, seq):
    """Quarter chord data on the sphere: fractions f_0..f_K or a witness, and extras.

    A contained chord is checked against the whole chain: X2, Y2 and X1'
    must lie on the great circle through X1 and Y1.
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
            vertex = b if f > 0.5 else a
            sd = math.asin(max(-1.0, min(1.0, _dot3(vertex, n_c))))
            witness = NotContained(seq.gtype, face_index=i, edge=seq.tokens[i],
                                   signed_distance=sd)
    if witness is not None:
        return None, witness, None
    # by the exact criterion a contained chord is shorter than 2*pi; the
    # length check runs after the sweep so genuine exits report a witness
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


# ---------------------------------------------------------------------------
# hyperbolic quarter construction (edge-local frames)

def _hyperbolic_quarter(spec, seq):
    """Quarter chord of a regular hyperbolic tetrahedron.

    The chord is pinned at the midpoints X1 of e_0 and Y1 of e_K and
    solved by Newton steps in edge-local frames, seeded with the exact
    Euclidean crossing fractions.
    """
    n = len(seq.tokens)
    K = n // 4
    tokens_q = list(seq.tokens[:K + 1])
    steps = frames.build_chain(spec, tokens_q)
    ells = [spec.face_edge_length(int(tok[0]), int(tok[1])) for tok in tokens_q]
    init = [float(f) for f in seq.fractions[:K + 1]]
    init[0] = init[K] = 0.5
    offsets = frames.relax_chord(steps, ells, init)
    fracs = [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(K + 1)]
    for i in range(1, K):
        f = fracs[i]
        if not (FRACTION_MARGIN < f < 1.0 - FRACTION_MARGIN):
            sd = (min(f, 1.0 - f)) * ells[i]
            return None, NotContained(seq.gtype, face_index=i, edge=seq.tokens[i],
                                      signed_distance=sd), None
    return fracs, None, {"quarter_length": sum(frames.trace_geometry(steps, offsets))}


def midpoint_geodesic(spec: TetrahedronSpec, t: GeodesicType):
    """Midpoint-chord candidate of type (p,q) on a curved regular tetrahedron.

    Returns the GeodesicPath when the chord stays strictly inside the face
    chain, otherwise the first NotContained witness.  Spherical chords of
    length >= 2*pi raise TooLong.  The path's closure residual doubles as
    the verification that the curve runs through the symmetry points X2,
    Y1, Y2: the mirrored fractions pin those crossings to edge midpoints,
    and any deviation of the true chord would break the supplementary-angle
    condition there.
    """
    if spec.space == SpaceKind.EUCLIDEAN:
        raise PreconditionFailed("use euclid_geodesic for the Euclidean tetrahedron")
    seq = crossing_sequence(t)
    spherical = spec.space == SpaceKind.SPHERICAL
    quarter_chord = _spherical_quarter if spherical else _hyperbolic_quarter
    quarter, witness, extras = quarter_chord(spec, seq)
    if witness is not None:
        return witness
    fracs = full_fractions_from_quarter(seq, quarter)
    path = _assemble_path(spec, t, seq.tokens, fracs, extras=extras)
    if spherical and path.total_length >= 2.0 * math.pi:
        raise TooLong(f"constructed length {path.total_length:.6f} >= 2*pi")
    if not (spherical or path.closed):
        raise NumericalFailure(
            f"quarter chord fails the closure check (residual {path.closure_residual:.3e})")
    return path


# ---------------------------------------------------------------------------
# generic hyperbolic tetrahedra: the closed taut chord

def generic_hyperbolic_geodesic(spec, t: GeodesicType):
    """Type-(p,q) geodesic on a hyperbolic tetrahedron with angles <= pi/4.

    The geodesic is the chord of the unrolled chain e_0..e_N that closes
    up: e_N is e_0 again with the same crossing offset, and the closed
    chain's length is stationary exactly where the two incidence angles at
    X(s0) are supplementary.  Strict convexity of the length makes that
    point unique; one closed Newton solve in edge-local frames finds it.
    """
    if isinstance(spec, TetrahedronSpec):
        if spec.space != SpaceKind.HYPERBOLIC or spec.alpha > math.pi / 4 + 1e-12:
            raise PreconditionFailed("regular spec must be hyperbolic with alpha <= pi/4")
    elif not spec.all_angles_le(math.pi / 4):
        raise PreconditionFailed("all twelve planar angles must be at most pi/4")

    seq = crossing_sequence(t)
    tokens_ext = list(seq.tokens) + [seq.tokens[0]]
    steps = frames.build_chain(spec, tokens_ext)
    ells = [spec.face_edge_length(int(tok[0]), int(tok[1])) for tok in tokens_ext]
    init = [float(f) for f in seq.fractions] + [float(seq.fractions[0])]
    offsets = frames.relax_chord(steps, ells, init, closed=True)
    fracs = [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(len(seq.tokens))]
    for i, f in enumerate(fracs):
        if not (FRACTION_MARGIN < f < 1.0 - FRACTION_MARGIN):
            raise NumericalFailure(f"crossing {i} leaves its edge (fraction {f})")
    path = _assemble_path(spec, t, seq.tokens, fracs,
                          extras={"s0": offsets[0] + ells[0] / 2.0})
    if not path.closed:
        raise NumericalFailure(
            f"extracted path fails closure (residual {path.closure_residual:.3e})")
    return path

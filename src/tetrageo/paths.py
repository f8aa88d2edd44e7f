"""Construction and verification of candidate closed geodesics.

Three construction routes:

* Euclidean: the tiling-line method, exact rational crossings;
* spherical / hyperbolic regular: the midpoint-chord method on one quarter
  of the development (the central symmetry of the development transports
  the quarter to the whole curve);
* generic hyperbolic: bisection for the edge parameter s0 at which the two
  incidence angles of the connecting segment are supplementary.

All path metrics (length, clearance, closure residuals, simplicity) are
recomputed from the crossing fractions by folding segments back onto
canonically placed faces, so they are independent of how the candidate was
produced and stay well conditioned for long hyperbolic chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import frames
from .combinat import CrossingSequence, GeodesicType, crossing_sequence, trace_crossings
from .errors import NumericalFailure, PreconditionFailed, TooLong, VertexHit
from .geom import (SpaceKind, _cross3, _dot3, _mdot, _unit3, chart_point, rangle,
                   rdistance, rinterpolate, rmidpoint, rpoint_at, rpoint_seg_dist,
                   rside_measure, rtangent)
from .tetra import TetrahedronSpec, edge_token
from .unfold import _center_involution, first_face_reps, place_chain

FRACTION_MARGIN = 1e-9

# points of the starting edge scanned for sign changes of the angle sum
GENERIC_GRID = 256


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
    margin = min(min(f, 1.0 - f) for f in fractions)
    path = GeodesicPath(
        gtype=t, space=spec.space,
        crossings=tuple(zip(tokens, (float(f) for f in fractions))),
        total_length=total, clearance=clearance,
        closed=worst < 1e-8, simple=True, closure_residual=worst,
        min_fraction_margin=margin, segments=segs,
        extras=dict(extras or {}))
    simple = simplicity_check(path, spec)
    return GeodesicPath(
        gtype=t, space=spec.space, crossings=path.crossings,
        total_length=total, clearance=clearance, closed=path.closed,
        simple=simple, closure_residual=worst,
        min_fraction_margin=margin, segments=segs, extras=path.extras)


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
    mu = Fraction(mu)
    lo, hi = euclid_mu_interval(t)
    if not (lo < mu < hi):
        raise VertexHit(f"mu={mu} outside the valid interval ({lo}, {hi})")
    recs = trace_crossings(t, mu)
    tokens = tuple(r[1] for r in recs)
    fractions = tuple(float(r[2]) for r in recs)
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
    """Quarter chord data on the sphere: fractions f_0..f_K or a witness."""
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
        return None, witness, quarter_len
    # by the exact criterion a contained chord is shorter than 2*pi; the
    # length check runs after the sweep so genuine exits report a witness
    if 4.0 * quarter_len >= 2.0 * math.pi:
        raise TooLong(f"candidate length {4 * quarter_len:.6f} >= 2*pi")
    if theta_prev >= quarter_len:
        return None, NotContained(seq.gtype, face_index=K, edge=seq.tokens[K % n],
                                  signed_distance=0.0,
                                  reason="crossings out of order"), quarter_len
    fracs.append(0.5)
    return fracs, None, quarter_len


def _spherical_symmetry_residual(spec, seq):
    """Perpendicular distance of X2, Y2 from the X1-Y1 great circle."""
    edge_pts, _ = place_chain(spec, list(seq.tokens) + [seq.tokens[0]])
    n = len(seq.tokens)
    X1 = rmidpoint(spec.space, *edge_pts[0])
    Y1 = rmidpoint(spec.space, *edge_pts[n // 4])
    n_c = _unit3(_cross3(X1, rtangent(spec.space, X1, Y1)))
    res = 0.0
    for idx in (n // 2, 3 * n // 4, n):
        P = rmidpoint(spec.space, *edge_pts[idx])
        res = max(res, abs(math.asin(max(-1.0, min(1.0, _dot3(P, n_c))))))
    return res


# ---------------------------------------------------------------------------
# hyperbolic quarter construction (edge-local frames)

def _hyperbolic_quarter(spec, seq):
    """Quarter chord of a regular hyperbolic tetrahedron.

    Shallow chains are solved by direction shooting from X1; deep chains
    (where the direction window is below double resolution) by taut-chord
    relaxation seeded with the exact Euclidean crossing fractions.
    """
    n = len(seq.tokens)
    K = n // 4
    tokens_q = list(seq.tokens[:K + 1])
    steps = frames.build_chain(tokens_q, spec.face_edge_length)
    ells = [spec.face_edge_length(int(tok[0]), int(tok[1])) for tok in tokens_q]
    # depth below ~1.5 stalls the relaxation (near-flat chains couple like a
    # Jacobi iteration) but leaves the shooting window wide; above it the
    # relaxation contracts geometrically while the window shrinks past any
    # affordable direction grid
    depth = (K / 2.0) * math.log(2.0 * math.sqrt(3.0) * (1.0 - 3.0 * spec.alpha / math.pi) + 1.0)
    offsets = None
    method = "shoot"
    if depth <= 2.0:
        pe, qe = seq.gtype.effective()
        theta_init = math.atan2(qe * math.sqrt(3.0), qe + 2.0 * pe)
        try:
            _, trace = frames.shoot_chord(steps, ells, theta_init)
            offsets = list(trace.offsets)
        except NumericalFailure:
            offsets = None
    if offsets is None:
        method = "relax"
        init = [float(f) for f in crossing_sequence(seq.gtype).fractions[:K + 1]]
        init[K] = 0.5
        offsets, clamped = frames.relax_chord(steps, ells, init)
        if clamped:
            i = clamped[0]
            return None, NotContained(seq.gtype, face_index=i, edge=seq.tokens[i],
                                      signed_distance=0.0,
                                      reason="taut chord pinned at a vertex"), None
    fracs = [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(K + 1)]
    fracs[0] = 0.5
    fracs[K] = 0.5
    for i in range(1, K):
        f = fracs[i]
        if not (FRACTION_MARGIN < f < 1.0 - FRACTION_MARGIN):
            sd = (min(f, 1.0 - f)) * ells[i]
            return None, NotContained(seq.gtype, face_index=i, edge=seq.tokens[i],
                                      signed_distance=sd), None
    seg_lengths, clearance = frames.trace_geometry(steps, offsets)
    return fracs, None, (seg_lengths, clearance, method)


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
    if spec.space == SpaceKind.SPHERICAL:
        quarter, witness, quarter_len = _spherical_quarter(spec, seq)
        if witness is not None:
            return witness
        sym_res = _spherical_symmetry_residual(spec, seq)
        if sym_res > 1e-8:
            raise NumericalFailure(f"symmetry points off the chord by {sym_res:.3e}")
        fracs = full_fractions_from_quarter(seq, quarter)
        path = _assemble_path(spec, t, seq.tokens, fracs,
                              extras={"quarter_length": quarter_len,
                                      "symmetry_residual": sym_res})
        if path.total_length >= 2.0 * math.pi:
            raise TooLong(f"constructed length {path.total_length:.6f} >= 2*pi")
        return path
    quarter, witness, geo = _hyperbolic_quarter(spec, seq)
    if witness is not None:
        return witness
    seg_lengths, clearance, method = geo
    fracs = full_fractions_from_quarter(seq, quarter)
    path = _assemble_path(spec, t, seq.tokens, fracs,
                          extras={"quarter_length": sum(seg_lengths),
                                  "method": method})
    if not path.closed:
        raise NumericalFailure(
            f"quarter chord fails the closure check (residual {path.closure_residual:.3e})")
    return path


# ---------------------------------------------------------------------------
# generic hyperbolic tetrahedra: the s0 bisection of the angle-sum function

def generic_hyperbolic_geodesic(spec, t: GeodesicType):
    """Type-(p,q) geodesic on a hyperbolic tetrahedron with angles <= pi/4.

    A grid on the starting edge brackets s0, where the incidence angles are
    supplementary; the grid evaluates the angle sum on e_0 and e_N placed
    in the middle edge frame of the chain.  Bisection on the frame-local
    residual then narrows s0 to 1e-12 of the edge length, and the path is
    extracted by local frame propagation.  Multiple sign changes are
    reported in the result extras; the smallest root is used.
    """
    if isinstance(spec, TetrahedronSpec):
        if spec.space != SpaceKind.HYPERBOLIC or spec.alpha > math.pi / 4 + 1e-12:
            raise PreconditionFailed("regular spec must be hyperbolic with alpha <= pi/4")
    elif not spec.all_angles_le(math.pi / 4):
        raise PreconditionFailed("all twelve planar angles must be at most pi/4")

    seq = crossing_sequence(t)
    tokens_ext = list(seq.tokens) + [seq.tokens[0]]
    steps = frames.build_chain(tokens_ext, spec.face_edge_length)
    ells = [spec.face_edge_length(int(tok[0]), int(tok[1])) for tok in tokens_ext]
    ell = ells[0]
    # e_0 and e_N are the same edge token at the two ends of the chain
    a0, b0 = int(seq.tokens[0][0]), int(seq.tokens[0][1])
    faces = frames.place_faces(steps, len(steps) // 2)
    A1, A2 = faces[0][a0], faces[0][b0]
    A1p, A2p = faces[-1][a0], faces[-1][b0]

    def angle_sum(s):
        X = rinterpolate(spec.space, A1, A2, s / ell)
        Xp = rinterpolate(spec.space, A1p, A2p, s / ell)
        u = rangle(spec.space, X, A2, Xp)
        v = rangle(spec.space, Xp, A2p, X)
        return u + v - math.pi

    ss = [ell * (i + 0.5) / GENERIC_GRID for i in range(GENERIC_GRID)]
    vals = [angle_sum(s) for s in ss]
    brackets = [(ss[i], ss[i + 1]) for i in range(GENERIC_GRID - 1)
                if vals[i] == 0.0 or (vals[i] < 0.0) != (vals[i + 1] < 0.0)]
    if not brackets:
        raise NumericalFailure("angle-sum function has no sign change on the edge")

    # bisection runs on the frame-local residual: the placed ends of long
    # chains carry composition noise, while the local condition is built
    # from well-conditioned quantities (the coarse grid only brackets it)
    state = {"init": [float(f) for f in seq.fractions] + [float(seq.fractions[0])]}

    def end_residual(s):
        s_loc = s - ell / 2.0
        offsets, clamped = frames.relax_chord(steps, ells, state["init"],
                                              end_offsets=(s_loc, s_loc))
        state["init"] = [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(len(ells))]
        state["offsets"] = offsets
        state["clamped"] = clamped
        return _end_angle_residual(steps, ells, offsets)

    lo, hi = brackets[0]
    flo = end_residual(lo)
    fhi = end_residual(hi)
    if flo == 0.0:
        hi = lo
    elif fhi == 0.0:
        lo = hi
    elif (flo < 0.0) == (fhi < 0.0):
        raise NumericalFailure("local angle condition lost the sign change")
    while hi - lo > 1e-12 * ell:
        mid = 0.5 * (lo + hi)
        fm = end_residual(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    s0 = 0.5 * (lo + hi)
    end_residual(s0)
    offsets, clamped = state["offsets"], state["clamped"]
    if clamped:
        raise NumericalFailure(f"taut chord pinned at a vertex at crossings {clamped}")
    X = rinterpolate(spec.space, A1, A2, s0 / ell)
    Xp = rinterpolate(spec.space, A1p, A2p, s0 / ell)
    theta = rangle(spec.space, X, A2, Xp)
    fracs = [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(len(ells))]
    for i in range(1, len(fracs) - 1):
        if not (FRACTION_MARGIN < fracs[i] < 1.0 - FRACTION_MARGIN):
            raise NumericalFailure(f"crossing {i} leaves its edge (fraction {fracs[i]})")
    path = _assemble_path(spec, t, seq.tokens, fracs[:-1],
                          extras={"s0": s0, "theta": theta,
                                  "sign_changes": len(brackets)})
    if not path.closed:
        raise NumericalFailure(
            f"extracted path fails closure (residual {path.closure_residual:.3e})")
    return path


def _end_angle_residual(steps, ells, offsets):
    """Supplementary-angle defect where the chain closes, frame-locally.

    Measures the angle between the starting edge and the first chord
    segment at X(s) plus the angle between the closing edge and the last
    segment at X'(s), minus pi; both angles point toward the larger label.
    """
    P0 = frames.chord_point(offsets[0])
    P1 = frames._matvec(frames._mink_inverse(steps[0].transition),
                        frames.chord_point(offsets[1]))
    e0 = (math.sinh(offsets[0]), math.cosh(offsets[0]), 0.0)
    t1 = rtangent(SpaceKind.HYPERBOLIC, P0, P1)
    ang0 = math.acos(max(-1.0, min(1.0, _mdot(e0, t1))))

    PN = frames.chord_point(offsets[-1])
    PN1 = frames._matvec(steps[-1].transition, frames.chord_point(offsets[-2]))
    eN = (math.sinh(offsets[-1]), math.cosh(offsets[-1]), 0.0)
    t2 = rtangent(SpaceKind.HYPERBOLIC, PN, PN1)
    angN = math.acos(max(-1.0, min(1.0, _mdot(eN, t2))))
    return ang0 + angN - math.pi

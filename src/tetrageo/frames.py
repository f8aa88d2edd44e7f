"""Edge-local frames for the face chains of all three spaces.

Long hyperbolic face chains cannot be held in a single chart: Klein
coordinates saturate at the disk rim and global hyperboloid coordinates
lose all precision in differences of nearby far points.  Instead, every
glue edge gets its own frame, on the hyperboloid (curvature k = -1), the
plane (k = 0, the point (x, y) written (1, x, y)) or the unit sphere (k = +1),

    edge midpoint at (1, 0, 0), edge along the x-direction with the
    smaller-labelled endpoint at negative x, the face ahead at y > 0,

and the chain is encoded by the change-of-basis matrix from each edge
frame to the next, a rigid motion of the plane at k = 0.  A step is a
named tuple, built in one pass from the space, the face's edge lengths
and its turn alone (no labels), once per key and shared by every chain;
build_chain caches each token tuple's plan, its pairs' keys and layout.
A chord is described by its crossing offsets, one signed arclength from
each edge midpoint, so every crossing, fraction, margin and length is a
well-conditioned local computation; chains are placed (place_faces) and
measured this way in all three spaces, with geom's curvature table
(geom._KERNEL: k, C, S and the inverse of S).  Each reader writes the segment
terms in its own loop with the same floating-point operations in the same
order: the fold-back metrics (paths._chain_metrics), the segment lengths
(trace_geometry, for relax_chord's chains with no interior crossing to
solve) and the one pass per Newton iterate of relax_chord, a pinned
hyperbolic chord solver that no construction calls: the tests take it as
an oracle and the benchmark's layer trace looks it up.  One helper (carry)
carries a vector through a run of matrices.  Direction shooting
(shoot_chord) carries the chord's normal through the transitions; it is
the sphere's exact quarter solver, whose last normal gives Y1's distance
from the chord.  No hyperbolic chord is solved for: it runs through two
points carried toward each other (paths._two_point_chord), the regular
quarter's midpoints X1 and Y1, or a closed chain's two ideal fixed points
of its holonomy (holonomy_ends).  The plane needs no solver: its chord is
the tiling line.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

from .errors import NumericalFailure
from .geom import _KERNEL
from .tetra import EDGES, edge_token


def _matvec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
            m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
            m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2])


def _matmul(a, b):
    # each entry adds from 0.0, as sum() does: one whose products are all -0.0 is +0.0
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return ((0.0 + a00 * b00 + a01 * b10 + a02 * b20,
             0.0 + a00 * b01 + a01 * b11 + a02 * b21,
             0.0 + a00 * b02 + a01 * b12 + a02 * b22),
            (0.0 + a10 * b00 + a11 * b10 + a12 * b20,
             0.0 + a10 * b01 + a11 * b11 + a12 * b21,
             0.0 + a10 * b02 + a11 * b12 + a12 * b22),
            (0.0 + a20 * b00 + a21 * b10 + a22 * b20,
             0.0 + a20 * b01 + a21 * b11 + a22 * b21,
             0.0 + a20 * b02 + a21 * b12 + a22 * b22))


IDENTITY3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_PLANE = "the plane has no chord solver: its geodesic is the tiling line (paths.euclid_geodesic)"


# face abw in the frame of its entry edge ab, a < b; label-free, one per shape and turn:
#   verts       reps of a, b, w (hyperboloid, (1, x, y) or sphere) in frame E_i
#   transition  3x3 change of basis, frame E_i -> frame E_{i+1}
#   inverse     its inverse, frame E_{i+1} -> frame E_i
#   sides       ends of e_i, e_{i+1} at the pivot: +1 the larger label, -1 the smaller
#   row         (t00, t01, t10, t11, t20, t21), the entries the chord passes read
#   det_sign    1.0 if det(transition) > 0, else -1.0 (the sphere's handedness flips)
ChainStep = namedtuple("ChainStep", "verts transition inverse space sides row det_sign")


# (entry, exit) pair of glue edges sharing one vertex -> (a, b, w): the entry edge ab,
# a < b, and the third vertex w; its key: the tokens ab, aw, bw, from_b, w_first (_chain_step)
_STEP_LABELS = {(cur, nxt): (int(cur[0]), int(cur[1]), int((set(nxt) - set(cur)).pop()))
                for cur in EDGES for nxt in EDGES if len(set(cur) & set(nxt)) == 1}
_STEP_KEYS = {pair: (pair[0], edge_token(a, w), edge_token(b, w), str(b) in pair[1],
                     str(w) == pair[1][0]) for pair, (a, b, w) in _STEP_LABELS.items()}


def build_chain(spec, tokens):
    """Chain steps of a spec for glue edges tokens[0..K].

    tokens[i] and tokens[i+1] must share exactly one vertex (ValueError);
    face F_i is their union.  Returns a list of K ChainStep records: one
    lookup in the step table :func:`_chain_step` per distinct pair, with the
    lengths of spec.edges, laid out by the tokens' plan (_chain_plan).
    """
    keys, layout = _chain_plan(tuple(tokens))
    edges, space = spec.edges, spec.space
    built = [_chain_step(space, edges[ab], edges[aw], edges[bw], from_b, w_first)
             for ab, aw, bw, from_b, w_first in keys]
    return list(layout(built)) if layout else built


# bounded: a few objects per chain, the quarter and closed chains of the 256 cached words
@functools.lru_cache(maxsize=1024)
def _chain_plan(tokens):
    """_STEP_KEYS entries of the distinct pairs of tokens by first use, and a getter laying them
    out along the chain (None for fewer than two pairs: the entries are the chain)."""
    pairs = list(zip(tokens, tokens[1:]))
    where = dict(zip(dict.fromkeys(pairs), itertools.count()))
    try:
        keys = tuple(map(_STEP_KEYS.__getitem__, where))
    except KeyError as exc:
        raise ValueError(f"glue edges {exc.args[0]} must share exactly one vertex") from None
    return keys, operator.itemgetter(*map(where.__getitem__, pairs)) if len(pairs) > 1 else None


# bounded: at most four steps per face shape, 24 per spec, about 1 kB each
@functools.lru_cache(maxsize=2048)
def _chain_step(space, ell, d_minus, d_plus, from_b, w_first):
    """Step through the face abw entered by ab, a < b; ab, aw, bw of lengths ell, d_minus, d_plus.

    The face is left by the edge joining w to the pivot, b if from_b else
    a, w_first when w is its smaller label; the four turns share the reps
    (:func:`_face_reps`).  The new frame has origin M and axes tx, ty (m, x,
    y), the inverse transition's columns.  NumericalFailure if degenerate.
    """
    k = _KERNEL[space][0]
    reps = _face_reps(space, ell, d_minus, d_plus)
    if reps is None:
        raise NumericalFailure("degenerate face")
    A, Bv, W = reps
    P, B = (Bv, A) if from_b else (A, Bv)     # the pivot and the vertex behind
    Pm, Pp = (W, P) if w_first else (P, W)
    det_sign = k or 1.0     # det(lam) = det(M, tx, ty) is k (1 on the plane) for ty as first taken
    if not k:       # the plane: a rigid motion (1, x) -> (1, R (x - M))
        m0, m1, m2 = 1.0, 0.5 * (Pm[1] + Pp[1]), 0.5 * (Pm[2] + Pp[2])
        r = math.hypot(Pp[1] - Pm[1], Pp[2] - Pm[2])
        x0, x1, x2 = 0.0, (Pp[1] - Pm[1]) / r, (Pp[2] - Pm[2]) / r
        y0, y1, y2 = 0.0, -x2, x1
        if (B[1] - m1) * y1 + (B[2] - m2) * y2 > 0.0:
            y1, y2, det_sign = x2, -x1, -det_sign
        lam = ((1.0, 0.0, 0.0), (-(m1 * x1 + m2 * x2), x1, x2), (-(m1 * y1 + m2 * y2), y1, y2))
    else:           # M, tx, ty by geom's _kunit, _kdot and _kcross, written out
        m0, m1, m2 = Pm[0] + Pp[0], Pm[1] + Pp[1], Pm[2] + Pp[2]
        r = abs(k * m0 * m0 + m1 * m1 + m2 * m2)     # each clamped as by max(r, 1e-300)
        r = math.sqrt(1e-300 if r < 1e-300 else r)
        m0, m1, m2 = m0 / r, m1 / r, m2 / r
        cc = -k * (k * Pp[0] * m0 + Pp[1] * m1 + Pp[2] * m2)
        x0, x1, x2 = Pp[0] + cc * m0, Pp[1] + cc * m1, Pp[2] + cc * m2
        r = abs(k * x0 * x0 + x1 * x1 + x2 * x2)
        r = math.sqrt(1e-300 if r < 1e-300 else r)
        x0, x1, x2 = x0 / r, x1 / r, x2 / r
        y0, y1, y2 = m1 * x2 - m2 * x1, m2 * (k * x0) - k * m0 * x2, k * m0 * x1 - m1 * (k * x0)
        r = abs(k * y0 * y0 + y1 * y1 + y2 * y2)
        r = math.sqrt(1e-300 if r < 1e-300 else r)
        y0, y1, y2 = y0 / r, y1 / r, y2 / r
        if k * B[0] * y0 + B[1] * y1 + B[2] * y2 > 0.0:
            y0, y1, y2, det_sign = -y0, -y1, -y2, -det_sign
        lam = ((m0, k * m1, k * m2), (k * x0, x1, x2), (k * y0, y1, y2))
    return ChainStep(reps, lam, ((m0, x0, y0), (m1, x1, y1), (m2, x2, y2)), space,
                     (1 if from_b else -1, 1 if w_first else -1),
                     (*lam[0][:2], *lam[1][:2], *lam[2][:2]), det_sign)


# bounded: one entry per face and entry edge, at most twelve per spec
@functools.lru_cache(maxsize=1024)
def _face_reps(space, ell, d_minus, d_plus):
    """Reps A, B, W of the face abw in the frame of ab (see _chain_step), or None if degenerate."""
    k, C, S, _ = _KERNEL[space]
    if not k:       # |W - A| = d_minus, |W - B| = d_plus
        w1 = (d_minus * d_minus - d_plus * d_plus) / (2.0 * ell)
        w2sq = d_minus * d_minus - (w1 + 0.5 * ell) ** 2
        if w2sq <= 0.0:
            return None
        return (1.0, -0.5 * ell, 0.0), (1.0, 0.5 * ell, 0.0), (1.0, w1, math.sqrt(w2sq))
    ch, sh = C(ell / 2.0), S(ell / 2.0)
    # <W, V> = k C(d) against both edge ends, and <W, W> = k
    w0 = (C(d_minus) + C(d_plus)) / (2.0 * ch)
    w1 = k * (C(d_plus) - C(d_minus)) / (2.0 * sh)
    w2sq = -k * w0 * w0 - w1 * w1 + k
    if w2sq <= 0.0:
        return None
    return (ch, -sh, 0.0), (ch, sh, 0.0), (w0, w1, math.sqrt(w2sq))


def place_faces(steps, tokens):
    """Vertex reps of every chain face, all in the frame of edge e_0.

    Face F_i is known in the frame of its entry edge e_i; the inverse
    transitions are composed outward from e_0.  Returns one dict
    label -> rep per face, labelled from the chain's tokens.
    """
    faces = []
    acc = IDENTITY3
    for step, pair in zip(steps, zip(tokens, tokens[1:])):
        faces.append({lab: _matvec(acc, v) for lab, v in zip(_STEP_LABELS[pair], step.verts)})
        acc = _matmul(acc, step.inverse)
    return faces


def carry(matrices, v, k=1.0):
    """v and its images M_0 v, M_1 M_0 v, ..., each scaled to unit |<v, v>_k|.

    k = 1, the Euclidean norm (the sphere's own), carries a hyperboloid point
    as a projective point: near the ideal limit its Minkowski norm cancels."""
    carried = [v]
    for (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) in matrices:
        n0, n1, n2 = carried[-1]
        v0, v1, v2 = (m00 * n0 + m01 * n1 + m02 * n2, m10 * n0 + m11 * n1 + m12 * n2,
                      m20 * n0 + m21 * n1 + m22 * n2)
        s = abs(k * v0 * v0 + v1 * v1 + v2 * v2)     # clamped as by max(s, 1e-300)
        s = math.sqrt(1e-300 if s < 1e-300 else s)
        carried.append((v0 / s, v1 / s, v2 / s))
    return carried


def propagate_chord(steps, theta):
    """Offsets and unit normals at e_0..e_K of the sphere's chord through mid(e_0) at angle theta.

    The normal n of the chord's plane, <n, X> = 0 on the chord, is carried
    through the transitions.  It meets the great circle of e_i twice; the
    crossing taken is the one where it runs into the face ahead, s =
    atan2(-h n_0, h n_1), where the handedness h flips at every transition
    with det_sign -1.  ValueError on the plane and the hyperboloid, whose
    quarter chord is carried from its two ends (paths._quarter_chord).
    """
    h, offsets = 1.0, []
    if _KERNEL[steps[0].space][0] <= 0:
        raise ValueError("only the sphere's chord is shot: the plane's geodesic is the tiling"
                         " line, the hyperboloid's quarter is carried from its two ends")
    normals = carry([step.transition for step in steps], (0.0, math.sin(theta), -math.cos(theta)))
    for i, (n0, n1, _) in enumerate(normals):
        h *= steps[i - 1].det_sign if i else 1.0
        offsets.append(math.atan2(-h * n0, h * n1))
    return offsets, normals


def shoot_chord(steps):
    """The sphere's chord through mid(e_0) aimed at mid(e_K): direction theta, offsets and normals.

    mid(e_K) is pulled back into frame E_0 through the inverse transitions,
    the chord aimed at it and propagated.  The great circle runs into the
    face ahead of e_K at its midpoint or, offset +-pi, at the antipode: the
    caller tells the two apart.  ValueError on the plane and the hyperboloid.
    """
    v0, v1, v2 = 1.0, 0.0, 0.0                      # mid(e_K) in frame E_K
    for step in reversed(steps):
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = step.inverse
        v0, v1, v2 = (m00 * v0 + m01 * v1 + m02 * v2, m10 * v0 + m11 * v1 + m12 * v2,
                      m20 * v0 + m21 * v1 + m22 * v2)
    theta = math.atan2(v2, v1)
    return (theta, *propagate_chord(steps, theta))


MAX_POWER_STEPS = 100
POWER_TOL = 1e-15


def holonomy_ends(steps):
    """The ideal fixed points A and R, in frame E_0, of a closed hyperbolic chain's holonomy.

    M = T_{N-1}..T_0 carries frame E_0 onto its last copy E_N = E_0; the
    closed geodesic runs between its fixed points at infinity.  A, M's
    dominant eigenvector, is iterated from M's first column, and R, that of
    M^-1 = J M^T J, J = diag(-1, 1, 1), from J times M's first row.  M is
    rescaled past 1e150 and at the end, which moves neither.
    NumericalFailure if either does not settle within MAX_POWER_STEPS, as
    for a holonomy that is not hyperbolic.
    """
    holonomy = IDENTITY3
    for step in steps:
        holonomy = _matmul(step.transition, holonomy)
        if holonomy[0][0] > 1e150:      # m00 is M's largest entry, positive (M keeps the sheet)
            holonomy = tuple(tuple(x * 1e-150 for x in row) for row in holonomy)
    scale = holonomy[0][0]      # M / m00: its entries at most 1, its iterates far from overflow
    (a, b, c), (d, e, f), (g, h, i) = holonomy = [[x / scale for x in row] for row in holonomy]
    return _dominant(holonomy, (a, d, g)), _dominant(((a, -d, -g), (-b, e, h), (-c, f, i)),
                                                     (-a, b, c))


def _dominant(m, v):
    """Unit dominant eigenvector of m, iterated from v; NumericalFailure unless it settles."""
    for _ in range(MAX_POWER_STEPS):
        u, v = v, carry([m], v)[1]
        if max(abs(x - y) for x, y in zip(u, v)) <= POWER_TOL:
            return v
    raise NumericalFailure("holonomy fixed points did not settle: the holonomy is not hyperbolic")


def trace_geometry(steps, offsets):
    """Segment lengths of the chord with the given crossing offsets, 2 arc(sqrt(<D, D>) / 2)."""
    k, C, S, arc = _KERNEL[steps[0].space]
    lengths, cb, sb = [], C(offsets[0]), S(offsets[0])
    for step, x in zip(steps, offsets[1:]):
        t00, t01, t10, t11, t20, t21 = step.row
        ca, sa, cb, sb = cb, sb, C(x), S(x)
        d0, d1, d2 = cb - (t00 * ca + t01 * sa), sb - (t10 * ca + t11 * sa), -(t20 * ca + t21 * sa)
        m = k * d0 * d0 + d1 * d1 + d2 * d2     # clamped as by max(m, 0.0)
        lengths.append(2.0 * arc(0.5 * math.sqrt(0.0 if m < 0.0 else m)))
    return lengths


class _Indefinite(Exception):
    """A Thomas pivot is not positive: the matrix is not positive definite."""


def _solve_tridiagonal(diag, off, rhs):
    """Thomas solve of the symmetric tridiagonal system (diag, off) x = rhs.

    Raises _Indefinite at the first pivot of A = L D L^T that is not positive.
    """
    m = len(diag)
    c, d = [0.0] * m, list(rhs)
    piv = diag[0]
    if not piv > 0.0:
        raise _Indefinite
    d[0] = di = d[0] / piv
    for i in range(1, m):
        o = off[i - 1]
        c[i - 1] = ci = o / piv
        piv = diag[i] - o * ci
        if not piv > 0.0:
            raise _Indefinite
        d[i] = di = (d[i] - o * di) / piv
    for i in range(m - 2, -1, -1):
        d[i] = di = d[i] - c[i] * di
    return d


def _chord_derivatives(space, rows, x):
    """Length, gradient and tridiagonal Hessian of the chord in the offsets x.

    One pass with the segment terms of paths._chain_metrics in their order;
    rows[i] is (t00, t01, t10, t11, t20, t21) of transition i.  A segment
    whose <D, D> rounds to zero or below is skipped.
    """
    k, C, S, arc = _KERNEL[space]
    hyperbolic, half, quarter, sqrt = k < 0, -0.5 * k, -0.25 * k, math.sqrt
    grad, diag, off = [0.0] * (len(rows) + 1), [0.0] * (len(rows) + 1), [0.0] * len(rows)
    length = gi = di = 0.0          # grad and diag at s_i from the segment before
    cb, sb = C(x[0]), S(x[0])
    for i, ((t00, t01, t10, t11, t20, t21), xb) in enumerate(zip(rows, x[1:])):
        ca, sa = cb, sb
        cb, sb = C(xb), S(xb)
        d0 = cb - (t00 * ca + t01 * sa)
        d1 = sb - (t10 * ca + t11 * sa)
        d2 = -(t20 * ca + t21 * sa)
        m = k * d0 * d0 + d1 * d1 + d2 * d2
        r2 = m * (1.0 + quarter * m)           # S(d)^2
        if not r2 > 0.0:
            grad[i], diag[i], gi, di = gi, di, 0.0, 0.0
            continue
        da = sa if hyperbolic else -sa
        a0, a1, a2 = t00 * da + t01 * ca, t10 * da + t11 * ca, t20 * da + t21 * ca
        cx = -(k * a0 * d0 + a1 * d1 + a2 * d2)
        cy = -d0 * sb + d1 * cb
        c = 1.0 + half * m                     # C(d)
        r = sqrt(r2)
        r3 = r2 * r
        length += 2.0 * arc(0.5 * sqrt(m))
        grad[i], gi = gi + cx / r, 0.0 + cy / r
        diag[i], di = di + c * (r2 - cx * cx) / r3, 0.0 + c * (r2 - cy * cy) / r3
        off[i] = ((a0 * sb - a1 * cb) * r2 - c * cx * cy) / r3
    grad[-1], diag[-1] = gi, di
    return length, grad, diag, off


MAX_NEWTON_STEPS = 100
STEP_TOL = 1e-13
FLOOR_STEP = 1e-9
ROOM_FRACTION = 0.5
LENGTH_SLACK = 1e-12


def relax_chord(steps, ells, init_fractions):
    """Taut-chord offsets through the chain by damped Newton steps, pinned at both ends.

    Segment i couples only s_i and s_{i+1}, so the Hessian of the length is
    tridiagonal and a step is one O(K) Thomas solve.  s_0 and s_K stay
    pinned at their initial fractions.

    A step moves no offset by more than ROOM_FRACTION of the room left to
    its end, so every offset stays inside its edge: on the hyperboloid the
    length is convex in the offsets and its minimum is interior (the
    clearance bound).  Steps that lengthen the curve are rejected.
    Levenberg damping grows after a rejected or cut step and while H + mu I
    is not positive definite, and relaxes after full steps.  The iteration
    stops when the step falls below STEP_TOL, or at the rounding floor (a
    full step below FLOOR_STEP that fails to shrink the next one), and
    confirms a stop without damping.  Returns the offsets s_0..s_K and their
    length: the last pass's sum, or the trace.  ValueError on the plane.
    """
    if steps and not _KERNEL[steps[0].space][0]:
        raise ValueError(_PLANE)
    K = len(ells) - 1
    s = [(float(f) - 0.5) * ell for f, ell in zip(init_fractions, ells)]
    if K < 2:
        return s, sum(trace_geometry(steps, s)) if steps else 0.0
    ends = [0.5 * ell for ell in ells]
    space, rows = steps[0].space, [st.row for st in steps]
    length, grad, diag, off = _chord_derivatives(space, rows, s)
    mu, last_full, checked = 0.0, None, False
    for _ in range(MAX_NEWTON_STEPS):
        dg = [d + mu for d in diag[1:K]]
        try:
            delta = _solve_tridiagonal(dg, off[1:K - 1], [-g for g in grad[1:K]])
        except _Indefinite:
            mu, last_full = max(4.0 * mu, 1e-3 * max(map(abs, dg))), None
            continue
        size = max(map(abs, delta))
        if size < STEP_TOL or (last_full is not None and size >= last_full):
            if mu == 0.0 or checked:
                return s, length
            mu, checked = 0.0, True
            continue
        scale = 1.0
        for i, x in enumerate(delta, 1):
            if x:
                room = ROOM_FRACTION * ((ends[i] - (s[i] if x > 0.0 else -s[i])) / abs(x))
                if room < scale:
                    scale = room
        cut = s[:1] + [v + scale * x for v, x in zip(s[1:K], delta)] + s[K:]
        candidate = _chord_derivatives(space, rows, cut)
        accepted = candidate[0] <= length * (1.0 + LENGTH_SLACK)
        if accepted:
            s, (length, grad, diag, off), checked = cut, candidate, False
        if accepted and scale == 1.0:
            mu *= 0.25
            last_full = size if size < FLOOR_STEP else None
        else:
            mu = max(4.0 * mu, 1e-3 * max(map(abs, dg)))
            last_full = None
    raise NumericalFailure("chord Newton iteration did not converge")

"""Edge-local frames for the face chains of all three spaces.

Long hyperbolic face chains cannot be held in a single chart: Klein
coordinates saturate at the disk rim and global hyperboloid coordinates
lose all precision in differences of nearby far points.  Instead, every
glue edge gets its own frame, on the hyperboloid (curvature k = -1), the
plane (k = 0, the point (x, y) written (1, x, y)) or the unit sphere (k = +1),

    edge midpoint at (1, 0, 0), edge along the x-direction with the
    smaller-labelled endpoint at negative x, the face ahead at y > 0,

and the chain is encoded by the change-of-basis matrix from each edge
frame to the next, a rigid motion of the plane at k = 0.  A step depends
only on the space, its two edges and the face's three edge lengths, so
each is built once (a bounded table) and shared by every chain with that
key.  A chord is described by its crossing offsets, one signed arclength
from each edge midpoint, so every crossing, fraction, margin and length is
a well-conditioned local computation; chains are placed (place_faces) and
measured (chord_segments) this way in all three spaces.  The segment terms
are written twice, with the same floating-point operations in the same
order: chord_segments, read by the fold-back metrics, and the one pass per
Newton iterate of relax_chord, the chord solver of both curved spaces,
that also sums the derivatives.  Direction shooting (shoot_chord) carries
the chord's normal through the transitions; it is the sphere's exact
quarter solver, and on the hyperboloid the start of the quarter's Newton
solve, which polishes it to relax_chord's step tolerance.  The plane needs
no solver: its chord is the tiling line.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .errors import NumericalFailure
from .geom import SpaceKind, _cross3, _dot3, _mcross, _mdot, rangle
from .tetra import EDGES


def _matvec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
            m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
            m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2])


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


IDENTITY3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@dataclass(frozen=True)
class ChainStep:
    """Face F_i of the chain, expressed in the frame of its entry edge e_i."""

    verts: dict           # label -> rep (hyperboloid, (1, x, y) or sphere) in frame E_i
    transition: tuple     # 3x3 change of basis, frame E_i -> frame E_{i+1}
    inverse: tuple        # its inverse, frame E_{i+1} -> frame E_i
    space: SpaceKind
    hinge: tuple          # (p, q, w): F_i turns about vertex p from e_i = pq to e_{i+1} = pw


# per curvature k = -1 (hyperboloid), 0 (plane) or +1 (sphere): k, the trig
# pair of an edge point (C(s), S(s), 0), the inner product, its cross product
# (the plane's rigid frames need neither), and the inverse of S, which gives a
# chord D the length 2 arc(sqrt(<D, D>) / 2)
_KERNEL = {
    SpaceKind.HYPERBOLIC: (-1.0, math.cosh, math.sinh, _mdot, _mcross, math.asinh),
    SpaceKind.EUCLIDEAN: (0.0, lambda s: 1.0, lambda s: s, None, None, lambda x: x),
    SpaceKind.SPHERICAL: (1.0, math.cos, math.sin, _dot3, _cross3, math.asin),
}


def _unit(v, dot):
    s = math.sqrt(max(abs(dot(v, v)), 1e-300))
    return (v[0] / s, v[1] / s, v[2] / s)


# (entry, exit) pair of glue edges sharing one vertex -> (a, b, w): the entry
# edge ab, a < b, and the third vertex w of the face they span
_STEP_LABELS = {(cur, nxt): (int(cur[0]), int(cur[1]), int((set(nxt) - set(cur)).pop()))
                for cur in EDGES for nxt in EDGES if len(set(cur) & set(nxt)) == 1}


def build_chain(spec, tokens):
    """Chain steps of a spec for glue edges tokens[0..K].

    tokens[i] and tokens[i+1] must share exactly one vertex; face F_i is
    their union.  Returns a list of K ChainStep records.  A step depends
    only on the space, its two tokens and the face's three edge lengths: it
    comes from the step table :func:`_chain_step`.
    """
    pairs = list(zip(tokens, tokens[1:]))
    ell, built = spec.face_edge_length, {}
    for pair in dict.fromkeys(pairs):
        a, b, w = _STEP_LABELS[pair]
        built[pair] = _chain_step(spec.space, *pair, a, b, w, ell(a, b), ell(a, w), ell(b, w))
    return [built[pair] for pair in pairs]


# bounded: at most 24 steps per spec, about 1 kB each
@functools.lru_cache(maxsize=2048)
def _chain_step(space, cur, nxt, a, b, w, ell, d_minus, d_plus):
    """Face abw entered by cur = ab (length ell), left by nxt; aw, bw of lengths d_minus, d_plus."""
    pivot = a if str(a) in nxt else b
    verts, lam, inverse = _face_frame(space, ell, d_minus, d_plus, pivot == b, w < pivot)
    if verts is None:
        raise NumericalFailure(f"degenerate face {cur}->{nxt}")
    return ChainStep(verts=dict(zip((a, b, w), verts)), transition=lam, inverse=inverse,
                     space=space, hinge=(pivot, a + b - pivot, w))


# bounded: at most four frames per face shape, 24 per spec
@functools.lru_cache(maxsize=2048)
def _face_frame(space, ell, d_minus, d_plus, from_b, w_first):
    """Reps of a, b, w, the transition and its inverse of the face abw of a step (_chain_step).

    The face is entered by ab, a < b, and left by the edge joining w to the
    pivot, b if from_b else a; w_first when w is the smaller label of the
    exit edge.  The frame depends on nothing else, so the steps of one face
    shape share it, and its four orientations share the reps
    (:func:`_face_reps`).  The new frame has origin M and axes tx, ty; the
    inverse transition has them as its columns.  (None, None, None) for a
    degenerate face.
    """
    k, _, _, dot, cross, _ = _KERNEL[space]
    reps = _face_reps(space, ell, d_minus, d_plus)
    if reps is None:
        return None, None, None
    A, Bv, W = reps
    P, B = (Bv, A) if from_b else (A, Bv)     # the pivot and the vertex behind
    Pm, Pp = (W, P) if w_first else (P, W)
    if not k:       # the plane: a rigid motion (1, x) -> (1, R (x - M))
        M = (1.0, 0.5 * (Pm[1] + Pp[1]), 0.5 * (Pm[2] + Pp[2]))
        r = math.hypot(Pp[1] - Pm[1], Pp[2] - Pm[2])
        tx = (0.0, (Pp[1] - Pm[1]) / r, (Pp[2] - Pm[2]) / r)
        ty = (0.0, -tx[2], tx[1])
        if (B[1] - M[1]) * ty[1] + (B[2] - M[2]) * ty[2] > 0.0:
            ty = (0.0, tx[2], -tx[1])
        lam = ((1.0, 0.0, 0.0),
               (-(M[1] * tx[1] + M[2] * tx[2]), tx[1], tx[2]),
               (-(M[1] * ty[1] + M[2] * ty[2]), ty[1], ty[2]))
    else:
        M = _unit((Pm[0] + Pp[0], Pm[1] + Pp[1], Pm[2] + Pp[2]), dot)
        cc = -k * dot(Pp, M)
        tx = _unit((Pp[0] + cc * M[0], Pp[1] + cc * M[1], Pp[2] + cc * M[2]), dot)
        ty = _unit(cross(M, tx), dot)
        if dot(B, ty) > 0.0:
            ty = (-ty[0], -ty[1], -ty[2])
        lam = ((M[0], k * M[1], k * M[2]),
               (k * tx[0], tx[1], tx[2]),
               (k * ty[0], ty[1], ty[2]))
    return reps, lam, ((M[0], tx[0], ty[0]), (M[1], tx[1], ty[1]), (M[2], tx[2], ty[2]))


# bounded: one entry per face and entry edge, at most twelve per spec
@functools.lru_cache(maxsize=1024)
def _face_reps(space, ell, d_minus, d_plus):
    """Reps A, B, W of the face abw in the frame of ab (see _face_frame), or None if degenerate."""
    k, C, S, _, _, _ = _KERNEL[space]
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


def place_faces(steps):
    """Vertex reps of every chain face, all in the frame of edge e_0.

    Face F_i is known in the frame of its entry edge e_i; the inverse
    transitions are composed outward from e_0.  Returns one dict
    label -> rep per face.
    """
    faces = []
    acc = IDENTITY3
    for step in steps:
        faces.append({lab: _matvec(acc, v) for lab, v in step.verts.items()})
        acc = _matmul(acc, step.inverse)
    return faces


def propagate_chord(steps, theta):
    """Offsets and unit normals at e_0..e_K of the chord through mid(e_0) at angle theta from +x.

    The normal n of the chord's plane, <n, X> = 0 on the chord, is carried
    through the transitions.  On the hyperboloid the chord meets e_i where
    tanh s = n_0 / n_1; NumericalFailure if it misses the edge's geodesic.
    On the sphere it meets the great circle of e_i twice; the crossing taken
    is the one where it runs into the face ahead, s = atan2(-h n_0, h n_1),
    where the handedness h flips at every transition of determinant -1.
    """
    k, _, _, dot, _, _ = _KERNEL[steps[0].space]
    n, h = (0.0, math.sin(theta), -math.cos(theta)), 1.0   # the normal in frame E_0
    offsets, normals = [], []
    for i in range(len(steps) + 1):
        if i:
            m = steps[i - 1].transition
            n = _unit(_matvec(m, n), dot)
            h = h if _dot3(m[2], _cross3(m[0], m[1])) > 0.0 else -h
        if k < 0 and abs(n[0]) >= abs(n[1]):
            raise NumericalFailure(f"chord misses the geodesic of edge e_{i}")
        offsets.append(math.atan2(-h * n[0], h * n[1]) if k > 0 else math.atanh(n[0] / n[1]))
        normals.append(n)
    return offsets, normals


def shoot_chord(steps):
    """The chord through mid(e_0) aimed at mid(e_K): direction theta, offsets and normals.

    mid(e_K) is pulled back into frame E_0 through the inverse transitions,
    the chord aimed at it and propagated.  On the sphere the great circle
    runs into the face ahead of e_K at its midpoint or, offset +-pi, at the
    antipode: the caller tells the two apart.  On deep hyperbolic chains the
    far point loses the precision that relax_chord keeps edge by edge, so
    there the shot only seeds relax_chord.
    """
    v = (1.0, 0.0, 0.0)                             # mid(e_K) in frame E_K
    for step in reversed(steps):
        v = _matvec(step.inverse, v)
    theta = math.atan2(v[2], v[1])
    return (theta, *propagate_chord(steps, theta))


def trace_geometry(steps, offsets):
    """Segment lengths of the chord with the given crossing offsets."""
    arc = _KERNEL[steps[0].space][5]
    return [2.0 * arc(0.5 * math.sqrt(max(m, 0.0)))
            for m, _, _, _ in chord_segments(steps, offsets)[2]]


class _Indefinite(Exception):
    """A Thomas pivot is not positive; args[0] is a direction of non-positive curvature."""


def _indefinite(c, r):
    """_Indefinite for the pivot d_r <= 0 of a sweep with multipliers c: z = L^-T e_r."""
    z = [0.0] * len(c)
    z[r] = 1.0
    for j in range(r - 1, -1, -1):
        z[j] = -c[j] * z[j + 1]
    return _Indefinite(z)


def _solve_tridiagonal(diag, off, rhs):
    """Thomas solve of the symmetric tridiagonal system (diag, off) x = rhs.

    Raises _Indefinite at the first pivot d_r <= 0 of A = L D L^T, with
    z = L^-T e_r, for which z^T A z = d_r.
    """
    m = len(diag)
    c, d = [0.0] * m, list(rhs)
    piv = diag[0]
    if not piv > 0.0:
        raise _indefinite(c, 0)
    d[0] = di = d[0] / piv
    for i in range(1, m):
        o = off[i - 1]
        c[i - 1] = ci = o / piv
        piv = diag[i] - o * ci
        if not piv > 0.0:
            raise _indefinite(c, i)
        d[i] = di = (d[i] - o * di) / piv
    for i in range(m - 2, -1, -1):
        d[i] = di = d[i] - c[i] * di
    return d


def _solve_cyclic(diag, off, corner, rhs):
    """Cyclic tridiagonal solve: Thomas plus a Sherman-Morrison correction.

    corner couples the first and last unknowns; the matrix is written as
    a tridiagonal one plus the rank-one term u v^T with u = (g, 0.., corner)
    and v = (1, 0.., corner / g).  One sweep of _solve_tridiagonal's
    recurrence carries both right-hand sides, rhs and u.  The first pivot,
    diag[0] - g = 2 diag[0], is tested before anything is divided by g.
    """
    g = -diag[0]
    m = len(diag)
    c = [0.0] * m
    if not g < 0.0:
        raise _indefinite(c, 0)
    mod = list(diag)
    mod[0] -= g
    mod[-1] -= corner * corner / g
    y, z = list(rhs), [g] + [0.0] * (m - 2) + [corner]
    piv = mod[0]
    y[0], z[0] = yi, zi = y[0] / piv, g / piv
    for i in range(1, m):
        o = off[i - 1]
        c[i - 1] = ci = o / piv
        piv = mod[i] - o * ci
        if not piv > 0.0:
            raise _indefinite(c, i)
        y[i] = yi = (y[i] - o * yi) / piv
        z[i] = zi = (z[i] - o * zi) / piv
    for i in range(m - 2, -1, -1):
        y[i] = yi = y[i] - c[i] * yi
        z[i] = zi = z[i] - c[i] * zi
    w = (y[0] + corner * y[-1] / g) / (1.0 + z[0] + corner * z[-1] / g)
    return [yi - w * zi for yi, zi in zip(y, z)]


def chord_segments(steps, s):
    """C(s_i), S(s_i) and per-segment terms of the chord with offsets s.

    Segment i joins A = T_i P(s_i) to B = P(s_{i+1}) in frame E_{i+1}, with
    P(s) = (C(s), S(s), 0).  Its terms are <D, D>, -<dA, D>, <D, dB> and
    -<dA, dB> for D = B - A and the edge tangents dA, dB: its length d has
    2 S(d / 2) = sqrt(<D, D>), and S(d) cos(angle with the edge's +x) is
    -<dA, D> at A and <D, dB> at B.  All terms come from the short
    difference D, never from the far points (full relative precision).
    relax_chord streams the same operations in the same order.
    """
    k, C, S, _, _, _ = _KERNEL[steps[0].space]
    cs, sn = [C(x) for x in s], [S(x) for x in s]
    dsn = [-k * x for x in sn]                 # P'(s) = (-k S(s), C(s), 0)
    terms = []
    for i, step in enumerate(steps):
        (t00, t01, _), (t10, t11, _), (t20, t21, _) = step.transition
        ca, sa, da = cs[i], sn[i], dsn[i]
        cb, sb = cs[i + 1], sn[i + 1]
        d0 = cb - (t00 * ca + t01 * sa)        # D = B - A
        d1 = sb - (t10 * ca + t11 * sa)
        d2 = -(t20 * ca + t21 * sa)
        a0, a1, a2 = t00 * da + t01 * ca, t10 * da + t11 * ca, t20 * da + t21 * ca   # dA
        terms.append((k * d0 * d0 + d1 * d1 + d2 * d2,    # <D, D>
                      -(k * a0 * d0 + a1 * d1 + a2 * d2),  # -<dA, D>
                      -d0 * sb + d1 * cb,                  # <D, dB>
                      a0 * sb - a1 * cb))                  # -<dA, dB>
    return cs, sn, terms


def _chord_derivatives(space, rows, x, closed, pinned):
    """Length, gradient and tridiagonal Hessian of the chord in the offsets x.

    One pass with the operations of chord_segments in its order; rows[i]
    is (t00, t01, t10, t11, t20, t21) of transition i.  Pinned segments
    (two crossings at their shared vertex) have length zero and are
    skipped, as is a segment whose <D, D> rounds to zero or below.  On a
    closed chain s_K is s_0, so its terms are folded into index 0.
    """
    k, C, S, _, _, arc = _KERNEL[space]
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
        if not r2 > 0.0 or i in pinned:
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
    if closed:
        grad[0] += gi
        diag[0] += di
    return length, grad, diag, off


MAX_NEWTON_STEPS = 100
STEP_TOL = 1e-13
FLOOR_STEP = 1e-9
ROOM_FRACTION = 0.5
LENGTH_SLACK = 1e-12
OVERSHOOT = 8.0          # a step leaving its edge by more rooms than this is only cut
SADDLE_GRADIENT = 1e-2   # gradient below which negative curvature is followed


def _shorter(levels, evaluate, length):
    """Shortest state of the first level of trial offsets that shortens the curve, or None."""
    for trials in levels:
        best = min((evaluate(x) for x in trials), key=lambda c: c[1][0])
        if best[1][0] < length:
            return best
    return None


def _corner_cut(steps, state, run, ends, evaluate):
    """The state with a run of offsets taken off its vertex v, or None while v blocks.

    The curve's angle at v on the side of the faces F_i..F_{j-1} of the run
    i..j adds the angle of segment i-1 against e_i, the face angles at v
    and the angle of e_j against segment j (grad[i] and grad[j] hold just
    those two segments' terms).  Below pi the corner is cut by a geodesic
    at distance h from v across the bisector of that angle: it meets e_m at
    h / cos(psi_m), psi_m the angle of e_m from the bisector.
    """
    s, (length, grad, _, _), sides, _ = state
    i, j = run[0], run[-1]
    rays = [math.acos(max(-1.0, min(1.0, sides[i] * grad[i])))]
    for m in range(i, j):
        p, q, w = steps[m].hinge
        rays.append(rays[-1] + rangle(steps[m].space, *(steps[m].verts[x] for x in (p, q, w))))
    theta = rays[-1] + math.acos(max(-1.0, min(1.0, sides[j] * grad[j])))
    if theta >= math.pi:
        return None
    stretch = [1.0 / math.cos(a - 0.5 * theta) for a in rays]
    h = min(ends[m] / g for m, g in zip(run, stretch))

    def across(d):
        x = list(s)
        for m, g in zip(run, stretch):
            x[m] = sides[m] * (ends[m] - d * g)
        return x

    return _shorter(([across(h * 0.25 ** k)] for k in range(40)), evaluate, length)


def relax_chord(steps, ells, init_fractions, closed=False):
    """Taut-chord offsets through the chain by damped Newton steps.

    Segment i couples only s_i and s_{i+1}, so the Hessian of the length is
    tridiagonal and a step is one O(K) Thomas solve.  With closed=False
    s_0 and s_K stay pinned at their initial fractions; with closed=True
    e_K is e_0 again, s_K is tied to s_0 (a cyclic system), and the
    solution is the closed geodesic.

    Every offset stays on its edge.  A step moves no offset by more than
    ROOM_FRACTION of the room left to its end; one that would leave an
    edge is also tried projected onto the ends, and the shorter curve
    wins.  An offset at an end stays there while moving it inwards would
    lengthen the curve: so the curve wraps a blocking vertex.  When s_i
    sits at the vertex p that e_i shares with e_{i+1}, the segment to
    s_{i+1} runs along e_{i+1}, so by the triangle inequality s_{i+1} joins
    it at p; such a run at one vertex is held or released as a unit
    (_corner_cut).  Steps that lengthen the curve are rejected.  Levenberg
    damping grows after a rejected or cut step and while H + mu I is not
    positive definite, and relaxes after full steps; near a saddle of the
    sphere's length, where the gradient has all but vanished, the curve
    moves along a direction of negative curvature instead.  The iteration
    stops when the step falls below STEP_TOL, or at the rounding floor (a
    full step below FLOOR_STEP that fails to shrink the next one), and
    confirms a stop without damping.  Returns the offsets s_0..s_K.
    """
    K = len(ells) - 1
    s = [(float(f) - 0.5) * ells[i] for i, f in enumerate(init_fractions)]
    free = range(0, K) if closed else range(1, K)
    if not free:
        return s
    lo = free[0]
    ends = [0.5 * ell for ell in ells]
    near_ends = [e * (1.0 - 1e-12) for e in ends]     # within rounding of an end is at it
    # the sides of e_i and e_{i+1} at the vertex about which F_i turns
    hinges = [(1 if p > q else -1, 1 if p > w else -1) for p, q, w in (st.hinge for st in steps)]
    space = steps[0].space
    rows = [(*t0[:2], *t1[:2], *t2[:2]) for t0, t1, t2 in (st.transition for st in steps)]

    def evaluate(x):
        """State (offsets, derivatives, end sides or None, pinned segments) at x, snapped."""
        if closed:
            x[K] = x[0]
        if not any(map(operator.gt, map(abs, x), near_ends)):
            return x, _chord_derivatives(space, rows, x, closed, ()), None, ()
        sides = [(1 if v > 0.0 else -1) if abs(v) > e else 0 for v, e in zip(x, near_ends)]
        for i in free:
            x[i] = sides[i] * ends[i] if sides[i] else x[i]
        for i in list(range(K)) + list(range(K - 1, -1, -1)):
            a, b = hinges[i]
            if sides[i] == a and sides[i + 1] != b and i + 1 in free:
                x[i + 1], sides[i + 1] = b * ends[i + 1], b
            elif sides[i + 1] == b and sides[i] != a and i in free:
                x[i], sides[i] = a * ends[i], a
        if closed:
            x[K], sides[K] = x[0], sides[0]
        pinned = {i for i, (a, b) in enumerate(hinges) if sides[i] == a and sides[i + 1] == b}
        return x, _chord_derivatives(space, rows, x, closed, pinned), sides, pinned

    def moved_by(step):
        """Offsets s + step on the free indices, held to their edges."""
        x = list(s)
        for i, d in zip(free, step):
            x[i] = max(-ends[i], min(ends[i], s[i] + d))
        return x

    state = evaluate(s)
    mu, last_full, checked = 0.0, None, False
    for _ in range(MAX_NEWTON_STEPS):
        s, (length, grad, diag, off), sides, pinned = state
        if sides is None:               # no offset at an edge end: nothing is held
            rhs, dg, offs = [-g for g in grad[lo:K]], [d + mu for d in diag[lo:K]], off[lo:K]
        else:
            runs, held, moved = [], set(), None
            for i in free:
                if sides[i] and runs and runs[-1][-1] == i - 1 and i - 1 in pinned:
                    runs[-1].append(i)
                elif sides[i]:
                    runs.append([i])
            for run in runs:
                if len(run) > 1:
                    moved = moved or _corner_cut(steps, state, run, ends, evaluate)
                if len(run) > 1 or sides[run[0]] * grad[run[0]] <= 0.0:
                    held.update(run)
            if moved:
                state, last_full, checked = moved, None, False
                continue
            rhs = [0.0 if i in held else -grad[i] for i in free]
            dg = [1.0 if i in held else diag[i] + mu for i in free]
            offs = [0.0 if i in held or (i + 1) % K in held else off[i] for i in free]
        try:
            if closed:
                delta = _solve_cyclic(dg, offs[:K - 1], offs[K - 1], rhs)
            else:
                delta = _solve_tridiagonal(dg, offs[:K - 2], rhs)
        except _Indefinite as exc:
            z, moved = exc.args[0], None
            if not closed and max(map(abs, rhs)) < SADDLE_GRADIENT:
                # the length is concave along z: from the first edge end inwards
                reach = min((ends[i] - (s[i] if x > 0.0 else -s[i])) / abs(x)
                            for i, x in zip(free, z) if x)
                levels = ([moved_by([t * x for x in z]) for t in (r, -r)]
                          for r in (reach * 0.25 ** j for j in range(8)))
                moved = _shorter(levels, evaluate, length)
            if moved:
                state, checked = moved, False
            else:
                mu = max(4.0 * mu, 1e-3 * max(map(abs, dg)))
            last_full = None
            continue
        size = max(map(abs, delta))
        if size < STEP_TOL or (last_full is not None and size >= last_full):
            if mu == 0.0 or checked:
                return s
            mu, checked = 0.0, True
            continue
        scale = 1.0
        for i, x in zip(free, delta):
            if x:
                room = ROOM_FRACTION * ((ends[i] - (s[i] if x > 0.0 else -s[i])) / abs(x))
                if room < scale:
                    scale = room
        cut = s[:lo] + [v + scale * x for v, x in zip(s[lo:K], delta)] + s[K:]
        candidate = evaluate(cut)
        if ROOM_FRACTION / OVERSHOOT <= scale < ROOM_FRACTION:
            # the full step leaves an edge, by at most OVERSHOOT rooms: try it projected too
            candidate = min(candidate, evaluate(moved_by(delta)), key=lambda c: c[1][0])
        accepted = candidate[1][0] <= length * (1.0 + LENGTH_SLACK)
        if accepted:
            state, checked = candidate, False
        if accepted and scale == 1.0:
            mu *= 0.25
            last_full = size if size < FLOOR_STEP else None
        else:
            mu = max(4.0 * mu, 1e-3 * max(map(abs, dg)))
            last_full = None
    raise NumericalFailure("chord Newton iteration did not converge")

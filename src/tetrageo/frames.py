"""Edge-local frames for hyperbolic and spherical face chains.

Long hyperbolic face chains cannot be held in a single chart: Klein
coordinates saturate at the disk rim and global hyperboloid coordinates
lose all precision in differences of nearby far points.  Instead, every
glue edge gets its own frame, on the hyperboloid (curvature k = -1) or
the unit sphere (k = +1),

    edge midpoint at (1, 0, 0), edge along the x-direction with the
    smaller-labelled endpoint at negative x, the face ahead at y > 0,

and the chain is encoded by the change-of-basis matrix from each edge
frame to the next.  A chord is described by its crossing offsets, one
signed arclength from each edge midpoint, so every crossing, fraction,
margin and length is a well-conditioned local computation.  relax_chord
is the one chord solver of both curved spaces; hyperbolic direction
shooting (shoot_chord) is exact on shallow chains and kept as the
reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailure
from .geom import SpaceKind, _cross3, _dot3, _mcross, _mdot, _unit_spacelike, rangle, rdistance


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

    verts: dict           # label -> rep (hyperboloid or sphere) in frame E_i
    transition: tuple     # 3x3 change of basis, frame E_i -> frame E_{i+1}
    space: SpaceKind
    hinge: tuple          # (p, q, w): F_i turns about vertex p from e_i = pq to e_{i+1} = pw


# per curvature k = -1 (hyperboloid) or +1 (sphere): k, the trig pair of an
# edge point (C(s), S(s), 0), the inner product and its cross product
_KERNEL = {
    SpaceKind.HYPERBOLIC: (-1.0, math.cosh, math.sinh, _mdot, _mcross),
    SpaceKind.SPHERICAL: (1.0, math.cos, math.sin, _dot3, _cross3),
}


def _unit(v, dot):
    s = math.sqrt(max(abs(dot(v, v)), 1e-300))
    return (v[0] / s, v[1] / s, v[2] / s)


def build_chain(spec, tokens):
    """Chain steps of a hyperbolic or spherical spec for glue edges tokens[0..K].

    tokens[i] and tokens[i+1] must share exactly one vertex; face F_i is
    their union.  Returns a list of K ChainStep records.
    """
    k, C, S, dot, cross = _KERNEL[spec.space]
    steps = []
    for i in range(len(tokens) - 1):
        cur = tokens[i]
        nxt = tokens[i + 1]
        a, b = int(cur[0]), int(cur[1])  # token characters are sorted
        apex = (set(nxt) - set(cur)).pop()
        w = int(apex)
        ell = spec.face_edge_length(a, b)
        d_minus = spec.face_edge_length(a, w)
        d_plus = spec.face_edge_length(b, w)
        ch, sh = C(ell / 2.0), S(ell / 2.0)
        verts = {a: (ch, -sh, 0.0), b: (ch, sh, 0.0)}
        # <W, V> = k C(d) against both edge ends, and <W, W> = k
        w0 = (C(d_minus) + C(d_plus)) / (2.0 * ch)
        w1 = k * (C(d_plus) - C(d_minus)) / (2.0 * sh)
        w2sq = -k * w0 * w0 - w1 * w1 + k
        if w2sq <= 0.0:
            raise NumericalFailure(f"degenerate face at step {i}: {cur}->{nxt}")
        verts[w] = (w0, w1, math.sqrt(w2sq))

        c, d = int(nxt[0]), int(nxt[1])
        Pm, Pp = verts[c], verts[d]
        behind = ({a, b, w} - {c, d}).pop()
        B = verts[behind]
        M = _unit((Pm[0] + Pp[0], Pm[1] + Pp[1], Pm[2] + Pp[2]), dot)
        cc = -k * dot(Pp, M)
        tx = _unit((Pp[0] + cc * M[0], Pp[1] + cc * M[1], Pp[2] + cc * M[2]), dot)
        ty = _unit(cross(M, tx), dot)
        if dot(B, ty) > 0.0:
            ty = (-ty[0], -ty[1], -ty[2])
        lam = ((M[0], k * M[1], k * M[2]),
               (k * tx[0], tx[1], tx[2]),
               (k * ty[0], ty[1], ty[2]))
        pivot = ({a, b} & {c, d}).pop()
        steps.append(ChainStep(verts=verts, transition=lam, space=spec.space,
                               hinge=(pivot, a + b - pivot, w)))
    return steps


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
        acc = _matmul(acc, _mink_inverse(step.transition))
    return faces


def propagate_chord(steps, theta, ells):
    """Offsets at which the chord through mid(e_0) at angle theta from +x crosses e_0..e_K.

    Returns None if the chord misses some edge's complete geodesic.
    """
    n = (0.0, math.sin(theta), -math.cos(theta))    # normal of the chord in frame E_0
    offsets = []
    for i in range(len(ells)):
        if abs(n[0]) >= abs(n[1]):
            return None
        offsets.append(math.atanh(n[0] / n[1]))
        if i < len(steps):
            n = _unit_spacelike(_matvec(steps[i].transition, n))
    return offsets


def shoot_chord(steps, ells):
    """Direction theta at mid(e_0) whose chord also passes mid(e_K), and its offsets.

    The line through two hyperbolic points is unique: the chord is aimed
    at mid(e_K) placed in frame E_0.  Exact on shallow chains; on deep ones
    the far point loses the precision that relax_chord keeps edge by edge.
    """
    p, _, w = steps[-1].hinge
    face = place_faces(steps)[-1]                   # e_K = pw, in frame E_0
    theta = math.atan2(face[p][2] + face[w][2], face[p][1] + face[w][1])
    offsets = propagate_chord(steps, theta, ells)
    if offsets is None or abs(offsets[-1]) > 1e-9 * max(ells):
        raise NumericalFailure("chord shooting did not converge to the midpoint target")
    return theta, offsets


def trace_geometry(steps, offsets):
    """Segment lengths of the chord with the given crossing offsets."""
    lengths = []
    for i, step in enumerate(steps):
        _, C, S, _, _ = _KERNEL[step.space]
        A = _matvec(step.transition, (C(offsets[i]), S(offsets[i]), 0.0))
        lengths.append(rdistance(step.space, A, (C(offsets[i + 1]), S(offsets[i + 1]), 0.0)))
    return lengths


def _mink_inverse(m):
    """Inverse of a Minkowski-orthogonal matrix: eta m^T eta."""
    return ((m[0][0], -m[1][0], -m[2][0]),
            (-m[0][1], m[1][1], m[2][1]),
            (-m[0][2], m[1][2], m[2][2]))


class _Indefinite(Exception):
    """A Thomas pivot is not positive; args[0] is a direction of non-positive curvature."""


def _solve_tridiagonal(diag, off, rhs):
    """Thomas solve of the symmetric tridiagonal system (diag, off) x = rhs.

    Raises _Indefinite at the first pivot d_r <= 0 of A = L D L^T, with
    z = L^-T e_r, for which z^T A z = d_r.
    """
    m = len(diag)
    c, d = [0.0] * m, list(rhs)
    for i in range(m):
        piv = diag[i] - (off[i - 1] * c[i - 1] if i else 0.0)
        if not piv > 0.0:
            z = [0.0] * m
            z[i] = 1.0
            for j in range(i - 1, -1, -1):
                z[j] = -c[j] * z[j + 1]
            raise _Indefinite(z)
        c[i] = off[i] / piv if i < m - 1 else 0.0
        d[i] = (d[i] - (off[i - 1] * d[i - 1] if i else 0.0)) / piv
    for i in range(m - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


def _solve_cyclic(diag, off, corner, rhs):
    """Cyclic tridiagonal solve: Thomas plus a Sherman-Morrison correction.

    corner couples the first and last unknowns; the matrix is written as
    a tridiagonal one plus the rank-one term u v^T with u = (g, 0.., corner)
    and v = (1, 0.., corner / g).
    """
    g = -diag[0]
    mod = list(diag)
    mod[0] -= g
    mod[-1] -= corner * corner / g
    y = _solve_tridiagonal(mod, off, rhs)
    z = _solve_tridiagonal(mod, off, [g] + [0.0] * (len(diag) - 2) + [corner])
    w = (y[0] + corner * y[-1] / g) / (1.0 + z[0] + corner * z[-1] / g)
    return [yi - w * zi for yi, zi in zip(y, z)]


def _chain_derivatives(steps, s, closed, pinned=()):
    """Length, gradient and tridiagonal Hessian of the chord in the offsets.

    Segment i joins A = T_i P(s_i) to B = P(s_{i+1}) in frame E_{i+1},
    with P(s) = (C(s), S(s), 0).  Its length d has 1 - C(d) = k <D, D> / 2
    for D = B - A, and the first derivatives of C(d) are -k <dA, D> and
    k <D, dB>; the formulas below hold for k = -1 and +1 alike.  All terms
    come from the short difference D, never from the far points, so the
    gradient keeps full relative precision on nearly flat chains.  Pinned
    segments (two crossings at their shared vertex) have length zero and
    are skipped, as is a segment whose <D, D> rounds to zero or below.  On
    a closed chain s_K is s_0, so its terms are folded into index 0.
    """
    K = len(steps)
    k, C, S, _, _ = _KERNEL[steps[0].space]
    arc = math.asinh if k < 0 else math.asin
    half, quarter = -0.5 * k, -0.25 * k
    cs, sn = [C(x) for x in s], [S(x) for x in s]
    dsn = sn if k < 0 else [-x for x in sn]    # P'(s) = (-k S(s), C(s), 0)
    grad, diag, off = [0.0] * (K + 1), [0.0] * (K + 1), [0.0] * K
    length = 0.0
    for i, step in enumerate(steps):
        (t00, t01, _), (t10, t11, _), (t20, t21, _) = step.transition
        ca, sa, da = cs[i], sn[i], dsn[i]
        cb, sb = cs[i + 1], sn[i + 1]
        d0 = cb - (t00 * ca + t01 * sa)        # D = B - A
        d1 = sb - (t10 * ca + t11 * sa)
        d2 = -(t20 * ca + t21 * sa)
        a0, a1, a2 = t00 * da + t01 * ca, t10 * da + t11 * ca, t20 * da + t21 * ca   # dA
        m = k * d0 * d0 + d1 * d1 + d2 * d2    # <D, D>
        c = 1.0 + half * m                     # C(d)
        r2 = m * (1.0 + quarter * m)           # S(d)^2
        if not r2 > 0.0 or i in pinned:
            continue
        r = math.sqrt(r2)
        r3 = r2 * r
        cx = -(k * a0 * d0 + a1 * d1 + a2 * d2)   # -<dA, D>
        cy = -d0 * sb + d1 * cb                # <D, dB>
        cxy = a0 * sb - a1 * cb                # -<dA, dB>
        length += 2.0 * arc(0.5 * math.sqrt(m))
        grad[i] += cx / r
        grad[i + 1] += cy / r
        diag[i] += c * (r2 - cx * cx) / r3
        diag[i + 1] += c * (r2 - cy * cy) / r3
        off[i] = (cxy * r2 - c * cx * cy) / r3
    if closed:
        grad[0] += grad[K]
        diag[0] += diag[K]
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
    ends = [0.5 * ell for ell in ells]
    near_ends = [e * (1.0 - 1e-12) for e in ends]     # within rounding of an end is at it
    # the sides of e_i and e_{i+1} at the vertex about which F_i turns
    hinges = [(1 if p > q else -1, 1 if p > w else -1) for p, q, w in (st.hinge for st in steps)]

    def evaluate(x):
        """State (offsets, derivatives, end sides, pinned segments) at x, snapped."""
        if closed:
            x[K] = x[0]
        sides = [(1 if v > 0.0 else -1) if abs(v) > e else 0 for v, e in zip(x, near_ends)]
        pinned = ()
        if any(sides):
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
        return x, _chain_derivatives(steps, x, closed, pinned), sides, pinned

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
            z = exc.args[0]
            if not closed and max(map(abs, rhs)) < SADDLE_GRADIENT:
                # the length is concave along z: from the first edge end inwards
                reach = min((ends[i] - (s[i] if x > 0.0 else -s[i])) / abs(x)
                            for i, x in zip(free, z) if x)
                levels = ([moved_by([t * x for x in z]) for t in (r, -r)]
                          for r in (reach * 0.25 ** k for k in range(8)))
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
        scale = min([1.0] + [ROOM_FRACTION * ((ends[i] - (s[i] if x > 0.0 else -s[i])) / abs(x))
                             for i, x in zip(free, delta) if x])
        cut = list(s)
        for i, x in zip(free, delta):
            cut[i] += scale * x
        trials = [cut]
        if ROOM_FRACTION / OVERSHOOT <= scale < ROOM_FRACTION:
            # the full step leaves an edge, by at most OVERSHOOT rooms: try it projected too
            trials.append(moved_by(delta))
        candidate = min(map(evaluate, trials), key=lambda c: c[1][0])
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

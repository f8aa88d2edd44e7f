"""Edge-local frame propagation for hyperbolic developments.

Long hyperbolic face chains cannot be held in a single chart: Klein
coordinates saturate at the disk rim and global hyperboloid coordinates
lose all precision in differences of nearby far points.  Instead, every
glue edge gets its own hyperboloid frame,

    edge midpoint at (1, 0, 0), edge along the x-direction with the
    smaller-labelled endpoint at negative x, the face ahead at y > 0,

and the chain is encoded by the Minkowski change-of-basis matrix from
each edge frame to the next.  A chord is described by its crossing
offsets, one signed arclength from each edge midpoint, so every crossing,
fraction, margin and length is a well-conditioned local computation.
relax_chord is the one chord solver; direction shooting (shoot_chord) is
exact on shallow chains and kept as the reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailure
from .geom import SpaceKind, _mcross, _mdot, _normalize_timelike, _unit_spacelike, rdistance


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

    verts: dict           # label -> hyperboloid coords in frame E_i
    transition: tuple     # 3x3 change of basis, frame E_i -> frame E_{i+1}


def _edge_endpoints(ell):
    h = ell / 2.0
    return ((math.cosh(h), -math.sinh(h), 0.0), (math.cosh(h), math.sinh(h), 0.0))


def build_chain(tokens, edge_len):
    """Chain steps for glue edges tokens[0..K]; edge_len(u, v) gives lengths.

    tokens[i] and tokens[i+1] must share exactly one vertex; face F_i is
    their union.  Returns a list of K ChainStep records.
    """
    steps = []
    for i in range(len(tokens) - 1):
        cur = tokens[i]
        nxt = tokens[i + 1]
        a, b = int(cur[0]), int(cur[1])  # token characters are sorted
        apex = (set(nxt) - set(cur)).pop()
        w = int(apex)
        ell = edge_len(a, b)
        d_minus = edge_len(a, w)
        d_plus = edge_len(b, w)
        Vm, Vp = _edge_endpoints(ell)
        ch, sh = math.cosh(ell / 2.0), math.sinh(ell / 2.0)
        w0 = (math.cosh(d_minus) + math.cosh(d_plus)) / (2.0 * ch)
        w1 = (math.cosh(d_minus) - math.cosh(d_plus)) / (2.0 * sh)
        w2sq = w0 * w0 - w1 * w1 - 1.0
        if w2sq <= 0.0:
            raise NumericalFailure(f"degenerate face at step {i}: {cur}->{nxt}")
        W = (w0, w1, math.sqrt(w2sq))
        verts = {a: Vm, b: Vp, w: W}

        c, d = int(nxt[0]), int(nxt[1])
        Pm, Pp = verts[c], verts[d]
        behind = ({a, b, w} - {c, d}).pop()
        B = verts[behind]
        M = _normalize_timelike((Pm[0] + Pp[0], Pm[1] + Pp[1], Pm[2] + Pp[2]))
        cc = _mdot(Pp, M)
        tx = _unit_spacelike((Pp[0] + cc * M[0], Pp[1] + cc * M[1], Pp[2] + cc * M[2]))
        ty = _unit_spacelike(_mcross(M, tx))
        if _mdot(B, ty) > 0.0:
            ty = (-ty[0], -ty[1], -ty[2])
        lam = ((M[0], -M[1], -M[2]),
               (-tx[0], tx[1], tx[2]),
               (-ty[0], ty[1], ty[2]))
        steps.append(ChainStep(verts=verts, transition=lam))
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


class ChordTrace:
    """Result of propagating a chord through a chain: local crossings."""

    __slots__ = ("offsets", "fractions", "normals", "exit_index", "exit_sign")

    def __init__(self, offsets, fractions, normals, exit_index, exit_sign):
        self.offsets = offsets        # signed arclength from each edge midpoint
        self.fractions = fractions    # fraction from the smaller-labelled endpoint
        self.normals = normals        # chord normal in each edge frame
        self.exit_index = exit_index  # first edge whose line the chord misses
        self.exit_sign = exit_sign

    @property
    def complete(self):
        return self.exit_index is None


def normal_from_theta(theta):
    """Chord normal for the line through (1,0,0) at angle theta from +x."""
    return (0.0, math.sin(theta), -math.cos(theta))


def propagate_chord(steps, theta, ells, normal=None):
    """Carry a chord across all edge frames and record its crossings.

    By default the chord runs through mid(e_0) at angle theta from the +x
    axis of frame E_0; an explicit initial normal overrides that.  If the
    chord fails to meet some edge's complete geodesic the trace stops there
    with the exit side recorded.
    """
    n = normal_from_theta(theta) if normal is None else normal
    offsets, fractions, normals = [], [], []
    for i, ell in enumerate(ells):
        normals.append(n)
        if abs(n[0]) >= abs(n[1]):
            return ChordTrace(offsets, fractions, normals, i, 1.0 if n[0] * n[1] >= 0 else -1.0)
        s = math.atanh(n[0] / n[1])
        offsets.append(s)
        fractions.append((s + ell / 2.0) / ell)
        if i < len(steps):
            n = _unit_spacelike(_matvec(steps[i].transition, n))
    return ChordTrace(offsets, fractions, normals, None, 0.0)


_BIG = 1e9


def shoot_chord(steps, ells, theta_init):
    """Direction theta at mid(e_0) whose chord also passes mid(e_K).

    The line through two hyperbolic points is unique, so the final-offset
    function has at most one genuine root; every other grid sign change is
    a jump between exit regions.  A densifying scan finds a bracket whose
    endpoint values are both finite (the continuity window around the
    root), then plain bisection polishes it.
    """

    def f(theta):
        tr = propagate_chord(steps, theta, ells)
        if not tr.complete:
            return tr.exit_sign * _BIG
        return tr.offsets[-1]

    bracket = None
    for npts in (64, 256, 1024, 4096, 16384, 65536):
        ts = [math.pi * (k + 0.5) / npts for k in range(npts)]
        vals = [f(t) for t in ts]
        cands = []
        for i in range(npts - 1):
            v0, v1 = vals[i], vals[i + 1]
            if abs(v0) >= _BIG or abs(v1) >= _BIG:
                continue
            if v0 == 0.0 or (v0 < 0.0) != (v1 < 0.0):
                cands.append((abs(0.5 * (ts[i] + ts[i + 1]) - theta_init),
                              ts[i], ts[i + 1], v0, v1))
        if cands:
            cands.sort()
            _, lo, hi, flo, fhi = cands[0]
            bracket = (lo, hi, flo, fhi)
            break
    if bracket is None:
        raise NumericalFailure("no direction window found for the chord")
    lo, hi, flo, fhi = bracket
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo < 1e-16:
            break
    theta = 0.5 * (lo + hi)
    tr = propagate_chord(steps, theta, ells)
    if not tr.complete or abs(tr.offsets[-1]) > 1e-9 * max(ells):
        raise NumericalFailure("chord shooting did not converge to the midpoint target")
    return theta, tr


def chord_point(offset):
    return (math.cosh(offset), math.sinh(offset), 0.0)


def trace_geometry(steps, offsets):
    """Segment lengths of the chord with the given crossing offsets."""
    return [rdistance(SpaceKind.HYPERBOLIC, _matvec(step.transition, chord_point(offsets[i])),
                      chord_point(offsets[i + 1]))
            for i, step in enumerate(steps)]


def _mink_inverse(m):
    """Inverse of a Minkowski-orthogonal matrix: eta m^T eta."""
    return ((m[0][0], -m[1][0], -m[2][0]),
            (-m[0][1], m[1][1], m[2][1]),
            (-m[0][2], m[1][2], m[2][2]))


def _solve_tridiagonal(diag, off, rhs):
    """Thomas solve of the symmetric tridiagonal system (diag, off) x = rhs."""
    m = len(diag)
    c, d = [0.0] * m, list(rhs)
    for i in range(m):
        piv = diag[i] - (off[i - 1] * c[i - 1] if i else 0.0)
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


def _chain_derivatives(steps, s, closed):
    """Length, gradient and tridiagonal Hessian of the chord in the offsets.

    Segment i joins A = T_i P(s_i) to B = P(s_{i+1}) in frame E_{i+1};
    its length d has cosh d - 1 = <D, D> / 2 for D = B - A, and the first
    derivatives of cosh d are -<dA, D> and <D, dB>.  Both are taken from
    the short difference D, never from the far points themselves, so the
    gradient keeps full relative precision on nearly flat chains.  On a
    closed chain s_K is s_0, so its terms are folded into index 0.
    """
    K = len(steps)
    grad, diag, off = [0.0] * (K + 1), [0.0] * (K + 1), [0.0] * K
    length = 0.0
    for i, step in enumerate(steps):
        ch, sh = math.cosh(s[i]), math.sinh(s[i])
        A = _matvec(step.transition, (ch, sh, 0.0))
        dA = _matvec(step.transition, (sh, ch, 0.0))
        chb, shb = math.cosh(s[i + 1]), math.sinh(s[i + 1])
        D = (chb - A[0], shb - A[1], -A[2])
        m = _mdot(D, D)
        c = 1.0 + 0.5 * m                      # cosh d
        r2 = m * (1.0 + 0.25 * m)              # sinh^2 d
        r = math.sqrt(r2)
        r3 = r2 * r
        cx = -_mdot(dA, D)
        cy = -D[0] * shb + D[1] * chb          # <D, dB>, dB = (sinh, cosh, 0)
        cxy = dA[0] * shb - dA[1] * chb        # -<dA, dB>
        length += 2.0 * math.asinh(0.5 * math.sqrt(m))
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


def relax_chord(steps, ells, init_fractions, closed=False):
    """Taut-chord offsets through the chain by damped Newton steps.

    Segment i couples only the offsets s_i and s_{i+1}, so the Hessian
    of the length is tridiagonal and a step is one O(K) Thomas solve.
    With closed=False the ends s_0 and s_K stay pinned at their initial
    fractions; with closed=True e_K is e_0 again, s_K is tied to s_0, the
    Hessian is cyclic tridiagonal and the solution is the closed geodesic,
    whose incidence angles at e_0 are supplementary.

    Iterates stay strictly inside their edges (a step is cut to
    ROOM_FRACTION of the room left, since the length has a kink where two
    crossings meet at their shared vertex), and a step that lengthens the
    chord is rejected.  Levenberg damping (H + mu I) grows after a cut or
    rejected step and relaxes after full steps.  The iteration stops when
    the step falls below STEP_TOL, or at the rounding floor: a full step
    below FLOOR_STEP that fails to shrink the next one.  Returns the
    offsets s_0..s_K from the edge midpoints.
    """
    K = len(ells) - 1
    s = [(float(f) - 0.5) * ells[i] for i, f in enumerate(init_fractions)]
    if closed:
        s[K] = s[0]
    free = range(0, K) if closed else range(1, K)
    if not free:
        return s
    current = _chain_derivatives(steps, s, closed)
    mu, last_full = 0.0, None
    for _ in range(MAX_NEWTON_STEPS):
        length, grad, diag, off = current
        rhs = [-grad[i] for i in free]
        dg = [diag[i] + mu for i in free]
        if closed:
            delta = _solve_cyclic(dg, off[:K - 1], off[K - 1], rhs)
        else:
            delta = _solve_tridiagonal(dg, off[1:K - 1], rhs)
        size = max(abs(x) for x in delta)
        if size < STEP_TOL or (last_full is not None and size >= last_full):
            return s
        rooms = [(0.5 * ells[i] - (s[i] if x > 0.0 else -s[i])) / abs(x)
                 for i, x in zip(free, delta) if x]
        scale = min([1.0] + [ROOM_FRACTION * r for r in rooms])
        trial = list(s)
        for i, x in zip(free, delta):
            trial[i] += scale * x
        if closed:
            trial[K] = trial[0]
        candidate = _chain_derivatives(steps, trial, closed)
        accepted = candidate[0] <= length * (1.0 + LENGTH_SLACK)
        if accepted:
            s, current = trial, candidate
        if accepted and scale == 1.0:
            mu *= 0.25
            last_full = size if size < FLOOR_STEP else None
        else:
            mu = max(4.0 * mu, 1e-3 * max(dg))
            last_full = None
    raise NumericalFailure("chord Newton iteration did not converge")

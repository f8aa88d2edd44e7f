"""Edge-local frame propagation for hyperbolic developments.

Long hyperbolic face chains cannot be held in a single chart: Klein
coordinates saturate at the disk rim and global hyperboloid coordinates
lose all precision in differences of nearby far points.  Instead, every
glue edge gets its own hyperboloid frame,

    edge midpoint at (1, 0, 0), edge along the x-direction with the
    smaller-labelled endpoint at negative x, the face ahead at y > 0,

and the chain is encoded by the Minkowski change-of-basis matrix from
each edge frame to the next.  A geodesic chord is carried along as the
unit spacelike normal of its plane; every crossing, fraction, margin,
length and clearance is then a well-conditioned local computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailure
from .geom import (SpaceKind, _mcross, _mdot, _normalize_timelike, _unit_spacelike,
                   rdistance, rpoint_seg_dist)


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

    ell: float            # length of e_i
    ell_next: float       # length of e_{i+1}
    v_minus: int          # label at -x on e_i
    v_plus: int
    apex: int             # third vertex of F_i
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
        steps.append(ChainStep(
            ell=ell, ell_next=edge_len(c, d), v_minus=a, v_plus=b, apex=w,
            verts=verts, transition=lam,
        ))
    return steps


def place_faces(steps, frame):
    """Vertex reps of every chain face, all in the frame of edge e_frame.

    Face F_i is known in the frame of its entry edge e_i; transitions are
    composed outward from the chosen frame, so faces near it carry the
    least accumulated rounding.  Returns one dict label -> rep per face.
    """
    faces = [None] * len(steps)
    acc = IDENTITY3
    for i in range(frame, len(steps)):
        faces[i] = {lab: _matvec(acc, v) for lab, v in steps[i].verts.items()}
        acc = _matmul(acc, _mink_inverse(steps[i].transition))
    acc = IDENTITY3
    for i in range(frame - 1, -1, -1):
        acc = _matmul(acc, steps[i].transition)
        faces[i] = {lab: _matvec(acc, v) for lab, v in steps[i].verts.items()}
    return faces


class ChordTrace:
    """Result of propagating a chord through a chain: local crossings."""

    __slots__ = ("offsets", "fractions", "normals", "exit_index", "exit_sign")

    def __init__(self, offsets, fractions, normals, exit_index, exit_sign):
        self.offsets = offsets        # signed arclength from each edge midpoint
        self.fractions = fractions    # fraction from the v_minus endpoint
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
    """Segment lengths and vertex clearance for given crossing offsets."""
    seg_lengths = []
    clearance = math.inf
    for i, step in enumerate(steps):
        C0 = chord_point(offsets[i])
        C0n = _matvec(step.transition, C0)
        C1 = chord_point(offsets[i + 1])
        seg_lengths.append(rdistance(SpaceKind.HYPERBOLIC, C0n, C1))
        for V in step.verts.values():
            Vn = _matvec(step.transition, V)
            clearance = min(clearance, rpoint_seg_dist(SpaceKind.HYPERBOLIC, Vn, C0n, C1))
    return seg_lengths, clearance


def _mink_inverse(m):
    """Inverse of a Minkowski-orthogonal matrix: eta m^T eta."""
    return ((m[0][0], -m[1][0], -m[2][0]),
            (-m[0][1], m[1][1], m[2][1]),
            (-m[0][2], m[1][2], m[2][2]))


def _argmin_on_axis(A, B, half, s):
    """Offset on the x-axis geodesic minimizing d(A, .) + d(B, .).

    A and B are hyperboloid points off the axis; the sum is strictly convex
    in the offset, so safeguarded Newton on its derivative converges fast.
    The result is clamped to [-half, half].
    """

    def deriv(x):
        shx, chx = math.sinh(x), math.cosh(x)
        g1 = 0.0
        g2 = 0.0
        for P in (A, B):
            c = P[0] * chx - P[1] * shx
            root = math.sqrt(max(c * c - 1.0, 1e-300))
            g1 += (P[0] * shx - P[1] * chx) / root
            g2 += c * (P[2] * P[2]) / root ** 3
        return g1, g2

    lo, hi = -half, half
    s = max(lo, min(hi, s))
    dlo, _ = deriv(lo)
    if dlo >= 0.0:
        return lo, True
    dhi, _ = deriv(hi)
    if dhi <= 0.0:
        return hi, True
    for _ in range(60):
        g1, g2 = deriv(s)
        if g2 > 0.0:
            step = g1 / g2
            s_new = s - step
        else:
            s_new = 0.5 * (lo + hi)
        if not (lo <= s_new <= hi):
            s_new = 0.5 * (lo + hi)
        if g1 > 0.0:
            hi = s
        elif g1 < 0.0:
            lo = s
        else:
            return s, False
        if abs(s_new - s) < 1e-15:
            return s_new, False
        s = s_new
    return s, False


def relax_chord(steps, ells, init_fractions, end_offsets=(0.0, 0.0),
                tol=1e-13, max_sweeps=20000):
    """Taut-chord offsets by cyclic per-edge relaxation, endpoints pinned.

    Each sweep re-solves every interior crossing against its two neighbours
    in the local frame.  Being a boundary-value formulation, the iteration
    has none of the exponential error amplification of direction shooting,
    and it contracts fast exactly in the deep hyperbolic regime where
    shooting runs out of double precision.  Returns (offsets, clamped)
    where clamped reports any crossing stuck at an edge endpoint (a
    containment violation).
    """
    K = len(ells) - 1
    s = [(float(f) - 0.5) * ells[i] for i, f in enumerate(init_fractions)]
    s[0] = end_offsets[0]
    s[K] = end_offsets[1]
    if K < 2:
        return s, []
    inv = [_mink_inverse(st.transition) for st in steps]
    clamped = set()
    for sweep in range(max_sweeps):
        delta = 0.0
        for i in range(1, K):
            A = _matvec(steps[i - 1].transition, chord_point(s[i - 1]))
            B = _matvec(inv[i], chord_point(s[i + 1]))
            s_new, hit = _argmin_on_axis(A, B, ells[i] / 2.0, s[i])
            if hit:
                clamped.add(i)
            elif i in clamped:
                clamped.discard(i)
            delta = max(delta, abs(s_new - s[i]))
            s[i] = s_new
        if delta < tol:
            break
    else:
        raise NumericalFailure("chord relaxation did not converge")
    return s, sorted(clamped)

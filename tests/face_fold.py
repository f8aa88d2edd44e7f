"""Test oracles: chain placement by reflection and the face fold.

The library places and measures the chains of all three spaces in the
edge-local frames of :mod:`tetrageo.frames`.  These functions compute the
same quantities independently, with the rep-layer kernel of
:mod:`tetrageo.geom` and curvature-generic bodies: a face chain placed by
reflecting the vertex behind each glue edge across it (``place_chain``),
and a path folded back onto canonically placed single faces, where its
length, vertex clearance and closure residual are taken
(``_face_fold_metrics``).

``foot_point_seg_dist`` is the curved point-to-segment distance that
geom.rpoint_seg_dist computed before it placed the foot by two signs: the
foot projected onto the segment's line and tested against the segment
with end slack.  It measures an end as the kernel does (geom._end_distance),
in its own code: acosh(-<V, E>) past cosh 2, the chord below, so the two
differ only in where they place the foot.

``labelled_chain_step`` is the chain step as it was built before the
step table was keyed by face shape: one step per labelled edge pair, its
reps keyed by vertex label and its turn given as the hinge (pivot, other
end of the entry edge, third vertex), on top of a label-free face frame
(``labelled_face_frame``); ``labelled_place_faces`` places a chain of
such steps.

``chord_segments`` is the per-segment term list that frames once built
for every reader of a chord: the fold-back metrics
(paths._chain_metrics), the segment lengths (frames.trace_geometry) and
the solver's pass (frames._chord_derivatives) each compute its terms in
their own loop now, with its operations in its order.

``mirror_plan`` is the half-turn walk that paths._mirror_plan made over
a word's tokens, a second time after combinat.canonical_word had made
it: the sources and flips of the images appended at c + k, c = K then
2K; the canonical word now records them as it completes itself
(CanonicalWord.mirror).

``walked_boundary`` is a development's boundary as unfold found it before
it read the strip's two sides off the word: the face edges counted by
vertex ids, the edges met once walked as a cycle from X1's smaller end,
and each vertex's face angles (the spec's) summed over the faces that
hold it.

The ``split_*`` functions are the rep kernel of :mod:`tetrageo.geom` as
it was written once for the hyperboloid and once for the sphere, with its
own vector helpers (``_dot3`` and ``_cross3``, ``_mdot`` and ``_mcross``
and their normalizers); geom writes each of them once in the curvature k.
"""

import functools
import math
from collections import namedtuple
from itertools import combinations

from tetrageo.errors import NumericalFailure
from tetrageo.errors import AmbiguousGeodesic, OutOfHemisphere
from tetrageo.frames import _KERNEL, IDENTITY3, _face_reps, _matmul, _matvec
from tetrageo.geom import (SpaceKind, _kcross, _kdot, _kunit, rangle, rdistance,
                           rinterpolate, rpoint_at, rpoint_seg_dist, rreflect, rtangent)
from tetrageo.tetra import HALF_TURN


# ---------------------------------------------------------------------------
# the rep kernel as it was written once per curved space, with its own vector helpers

def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _norm3(u):
    return math.sqrt(_dot3(u, u))


def _unit3(u):
    n = _norm3(u)
    return (u[0] / n, u[1] / n, u[2] / n)


def _mdot(u, v):
    """Minkowski inner product, signature (-,+,+)."""
    return -u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _mcross(u, v):
    """Euclidean cross of (eta u, eta v): Minkowski-orthogonal to u and v."""
    eu = (-u[0], u[1], u[2])
    ev = (-v[0], v[1], v[2])
    return _cross3(eu, ev)


def _unit_spacelike(n):
    s = math.sqrt(max(_mdot(n, n), 1e-300))
    return (n[0] / s, n[1] / s, n[2] / s)


def _normalize_timelike(X):
    s = math.sqrt(max(-_mdot(X, X), 1e-300))
    return (X[0] / s, X[1] / s, X[2] / s)


def _hyp_dist_lifted(P, Q):
    d0, d1, d2 = P[0] - Q[0], P[1] - Q[1], P[2] - Q[2]
    m = -d0 * d0 + d1 * d1 + d2 * d2
    return 2.0 * math.asinh(0.5 * math.sqrt(max(m, 0.0)))


def _hyp_end_dist(V, E):
    """Distance to a segment end: acosh(-<V, E>) past cosh 2, the chord of V - E below."""
    c = -_mdot(V, E)
    return math.acosh(c) if c > 2.0 else _hyp_dist_lifted(V, E)


def split_rdistance(space, P, Q):
    if space == SpaceKind.HYPERBOLIC:
        return _hyp_dist_lifted(P, Q)
    if space == SpaceKind.SPHERICAL:
        ang = math.atan2(_norm3(_cross3(P, Q)), _dot3(P, Q))
        if math.pi - ang < 1e-12:
            raise AmbiguousGeodesic("antipodal spherical points")
        return ang
    return math.hypot(Q[0] - P[0], Q[1] - P[1])


def split_rmidpoint(space, P, Q):
    if space == SpaceKind.HYPERBOLIC:
        return _normalize_timelike((P[0] + Q[0], P[1] + Q[1], P[2] + Q[2]))
    if space == SpaceKind.SPHERICAL:
        s = (P[0] + Q[0], P[1] + Q[1], P[2] + Q[2])
        n = _norm3(s)
        if n < 1e-12:
            raise AmbiguousGeodesic("midpoint of antipodal points")
        return (s[0] / n, s[1] / n, s[2] / n)
    return ((P[0] + Q[0]) / 2.0, (P[1] + Q[1]) / 2.0)


def split_rtangent(space, P, Q):
    if space == SpaceKind.HYPERBOLIC:
        c = _mdot(Q, P)
        return _unit_spacelike((Q[0] + c * P[0], Q[1] + c * P[1], Q[2] + c * P[2]))
    if space == SpaceKind.SPHERICAL:
        c = _dot3(P, Q)
        return _unit3((Q[0] - c * P[0], Q[1] - c * P[1], Q[2] - c * P[2]))
    d = math.hypot(Q[0] - P[0], Q[1] - P[1])
    return ((Q[0] - P[0]) / d, (Q[1] - P[1]) / d)


def split_rpoint_at(space, P, tangent, dist):
    if space == SpaceKind.HYPERBOLIC:
        c, s = math.cosh(dist), math.sinh(dist)
    elif space == SpaceKind.SPHERICAL:
        c, s = math.cos(dist), math.sin(dist)
    else:
        return (P[0] + dist * tangent[0], P[1] + dist * tangent[1])
    return (c * P[0] + s * tangent[0], c * P[1] + s * tangent[1], c * P[2] + s * tangent[2])


def split_rangle(space, V, P, Q):
    t1 = split_rtangent(space, V, P)
    t2 = split_rtangent(space, V, Q)
    if space == SpaceKind.HYPERBOLIC:
        return math.acos(max(-1.0, min(1.0, _mdot(t1, t2))))
    if space == SpaceKind.SPHERICAL:
        return math.atan2(_norm3(_cross3(t1, t2)), _dot3(t1, t2))
    return abs(math.atan2(t1[0] * t2[1] - t1[1] * t2[0], t1[0] * t2[0] + t1[1] * t2[1]))


def split_rreflect(space, A, B, P):
    if space == SpaceKind.HYPERBOLIC:
        n = _unit_spacelike(_mcross(A, B))
        d = _mdot(P, n)
    elif space == SpaceKind.SPHERICAL:
        n = _unit3(_cross3(A, B))
        d = _dot3(P, n)
    else:
        dx, dy = B[0] - A[0], B[1] - A[1]
        t = ((P[0] - A[0]) * dx + (P[1] - A[1]) * dy) / (dx * dx + dy * dy)
        return (2 * (A[0] + t * dx) - P[0], 2 * (A[1] + t * dy) - P[1])
    return (P[0] - 2 * d * n[0], P[1] - 2 * d * n[1], P[2] - 2 * d * n[2])


def split_rhalf_turn(space, C, P):
    if space == SpaceKind.HYPERBOLIC:
        d = _mdot(P, C)
        return (-P[0] - 2 * d * C[0], -P[1] - 2 * d * C[1], -P[2] - 2 * d * C[2])
    if space == SpaceKind.SPHERICAL:
        d = _dot3(P, C)
        return (2 * d * C[0] - P[0], 2 * d * C[1] - P[1], 2 * d * C[2] - P[2])
    return (2 * C[0] - P[0], 2 * C[1] - P[1])


def split_rside_measure(space, A, B, P):
    if space == SpaceKind.HYPERBOLIC:
        c = _mcross(A, B)
        return P[0] * c[0] - P[1] * c[1] - P[2] * c[2]
    if space == SpaceKind.SPHERICAL:
        return _dot3(P, _cross3(A, B))
    return (B[0] - A[0]) * (P[1] - A[1]) - (B[1] - A[1]) * (P[0] - A[0])


def split_gnomonic_project(p, tangent_point):
    c = _dot3(p, tangent_point)
    if c <= 1e-12:
        raise OutOfHemisphere("point not strictly inside the open hemisphere")
    q = (p[0] / c, p[1] / c, p[2] / c)
    ref = (0.0, 0.0, 1.0) if abs(tangent_point[2]) < 0.9 else (1.0, 0.0, 0.0)
    e1 = _unit3(_cross3(ref, tangent_point))
    e2 = _cross3(tangent_point, e1)
    v = (q[0] - tangent_point[0], q[1] - tangent_point[1], q[2] - tangent_point[2])
    return (_dot3(v, e1), _dot3(v, e2))


def foot_point_seg_dist(space, V, A, B):
    """Distance from V to the curved geodesic segment AB by its projected foot.

    The foot counts as inside AB within 1e-12 (H) or 1e-9 (S) of its ends.
    """
    if space == SpaceKind.HYPERBOLIC:
        n = _unit_spacelike(_mcross(A, B))
        dn = _mdot(V, n)
        foot = _normalize_timelike((V[0] - dn * n[0], V[1] - dn * n[1], V[2] - dn * n[2]))
        dab = _hyp_dist_lifted(A, B)
        if (_hyp_dist_lifted(A, foot) <= dab + 1e-12
                and _hyp_dist_lifted(B, foot) <= dab + 1e-12):
            return math.asinh(abs(dn))
        return min(_hyp_end_dist(V, A), _hyp_end_dist(V, B))
    if space == SpaceKind.SPHERICAL:
        n = _unit3(_cross3(A, B))
        dn = _dot3(V, n)
        foot = (V[0] - dn * n[0], V[1] - dn * n[1], V[2] - dn * n[2])
        fn = _norm3(foot)
        if fn > 1e-12:
            foot = (foot[0] / fn, foot[1] / fn, foot[2] / fn)
            if _between_on_arc(A, B, foot):
                return abs(math.asin(max(-1.0, min(1.0, dn))))
        return min(rdistance(space, V, A), rdistance(space, V, B))
    raise ValueError("foot_point_seg_dist measures curved segments only")


def _between_on_arc(a, b, f):
    ab = math.atan2(_norm3(_cross3(a, b)), _dot3(a, b))
    af = math.atan2(_norm3(_cross3(a, f)), _dot3(a, f))
    fb = math.atan2(_norm3(_cross3(f, b)), _dot3(f, b))
    return af + fb <= ab + 1e-9


def rrotate_tangent(space, P, tangent, theta):
    """Rotate a unit tangent at P by theta (counterclockwise in the chart)."""
    c, s = math.cos(theta), math.sin(theta)
    if space == SpaceKind.HYPERBOLIC:
        u = _unit_spacelike(_mcross(tangent, P))
    elif space == SpaceKind.SPHERICAL:
        u = _cross3(P, tangent)
    else:
        return (c * tangent[0] - s * tangent[1], s * tangent[0] + c * tangent[1])
    return (c * tangent[0] + s * u[0], c * tangent[1] + s * u[1], c * tangent[2] + s * u[2])


def first_face_reps(space, ell, d_minus, d_plus):
    """Canonical triangle: base of length ell centered on the chart axis.

    The apex lies on the +y (counterclockwise) side, at distance d_minus
    from the base's -x end and d_plus from its +x end.
    """
    h = ell / 2.0
    if space == SpaceKind.HYPERBOLIC:
        vm = (math.cosh(h), -math.sinh(h), 0.0)
        vp = (math.cosh(h), math.sinh(h), 0.0)
        cg = ((math.cosh(ell) * math.cosh(d_minus) - math.cosh(d_plus))
              / (math.sinh(ell) * math.sinh(d_minus)))
    elif space == SpaceKind.SPHERICAL:
        vm = (math.cos(h), -math.sin(h), 0.0)
        vp = (math.cos(h), math.sin(h), 0.0)
        cg = ((math.cos(d_plus) - math.cos(ell) * math.cos(d_minus))
              / (math.sin(ell) * math.sin(d_minus)))
    else:
        vm = (-h, 0.0)
        vp = (h, 0.0)
        cg = (d_minus * d_minus + ell * ell - d_plus * d_plus) / (2.0 * d_minus * ell)
    gamma = math.acos(max(-1.0, min(1.0, cg)))
    base = rtangent(space, vm, vp)
    apex = rpoint_at(space, vm, rrotate_tangent(space, vm, base, gamma), d_minus)
    return vm, vp, apex


def place_chain(spec, tokens):
    """Euclidean faces F_0..F_{K-1} for glue edges tokens[0..K].

    F_0 is the canonical first face; every later apex is the reflection,
    across the glue edge, of the vertex behind it.  The body is
    curvature-generic, but curved chains are placed in edge-local frames
    (:func:`frames.place_faces`).  Returns (edge_pts,
    faces): edge_pts[i] holds the reps of e_i's smaller and larger label,
    faces[i] maps label -> rep.
    """
    space = spec.space
    a0, b0 = int(tokens[0][0]), int(tokens[0][1])
    apex0 = int((set(tokens[1]) - set(tokens[0])).pop())
    vm, vp, w = first_face_reps(space, spec.edge, spec.edge, spec.edge)
    faces = [{a0: vm, b0: vp, apex0: w}]
    for i in range(1, len(tokens) - 1):
        c, d = int(tokens[i][0]), int(tokens[i][1])
        prev = faces[-1]
        w_label = int((set(tokens[i + 1]) - set(tokens[i])).pop())
        behind = (set(prev) - {c, d}).pop()
        faces.append({c: prev[c], d: prev[d],
                      w_label: rreflect(space, prev[c], prev[d], prev[behind])})
    edge_pts = []
    for i, tok in enumerate(tokens):
        face = faces[min(i, len(faces) - 1)]
        edge_pts.append((face[int(tok[0])], face[int(tok[1])]))
    return edge_pts, faces


def _rep_segments(spec, tokens, fractions):
    """Each segment on its canonically placed face: (labels, face reps, point in, point out)."""
    faces = {labels: dict(zip(labels, first_face_reps(   # face ijk: ij centered, apex k above
        spec.space, *(spec.face_edge_length(*e) for e in combinations(labels, 2)))))
        for labels in combinations((1, 2, 3, 4), 3)}
    crossings = list(zip(tokens, fractions))
    segs = []
    for ends in zip(crossings, crossings[1:] + crossings[:1]):
        labels = tuple(sorted(set(int(c) for tok, _ in ends for c in tok)))
        pts = faces[labels]
        p_in, p_out = (rinterpolate(spec.space, pts[int(tok[0])], pts[int(tok[1])], float(f))
                       for tok, f in ends)
        segs.append((labels, pts, p_in, p_out))
    return segs


def _face_fold_metrics(spec, tokens, fractions):
    """Length, clearance and closure residual (angles at a vertex of the crossed edge)."""
    space = spec.space
    segs = _rep_segments(spec, tokens, fractions)
    total = 0.0
    for _, _, p_in, p_out in segs:
        total += rdistance(space, p_in, p_out)
    clearance = min(rpoint_seg_dist(space, v, p_in, p_out)
                    for _, pts, p_in, p_out in segs for v in pts.values())
    worst = 0.0
    for tok, (_, prev_pts, pin_prev, pout_prev), (_, pts, p_in, p_out) in zip(
            tokens, segs[-1:] + segs[:-1], segs):
        v = min(int(tok[0]), int(tok[1]))
        worst = max(worst, abs(rangle(space, pout_prev, prev_pts[v], pin_prev)
                               + rangle(space, p_in, pts[v], p_out) - math.pi))
    return total, clearance, worst


LabelledStep = namedtuple("LabelledStep", "verts transition inverse space hinge det_sign")


@functools.lru_cache(maxsize=None)
def labelled_chain_step(space, cur, nxt, a, b, w, ell, d_minus, d_plus):
    """Face abw entered by cur = ab (length ell), left by nxt; aw, bw of lengths d_minus, d_plus."""
    pivot = a if str(a) in nxt else b
    verts, lam, inverse, det_sign = labelled_face_frame(space, ell, d_minus, d_plus, pivot == b,
                                                        w < pivot)
    if verts is None:
        raise NumericalFailure(f"degenerate face {cur}->{nxt}")
    return LabelledStep(verts=dict(zip((a, b, w), verts)), transition=lam, inverse=inverse,
                        space=space, hinge=(pivot, a + b - pivot, w), det_sign=det_sign)


def labelled_face_frame(space, ell, d_minus, d_plus, from_b, w_first):
    """Reps of a, b, w, the transition, its inverse and det_sign of the face abw of a step.

    The face is entered by ab, a < b, and left by the edge joining w to the
    pivot, b if from_b else a; w_first when w is the smaller label of the
    exit edge.  (None,) * 4 for a degenerate face.
    """
    k = _KERNEL[space][0]
    reps = _face_reps(space, ell, d_minus, d_plus)
    if reps is None:
        return None, None, None, None
    A, Bv, W = reps
    P, B = (Bv, A) if from_b else (A, Bv)     # the pivot and the vertex behind
    Pm, Pp = (W, P) if w_first else (P, W)
    det_sign = k or 1.0     # det(lam) = det(M, tx, ty) is k (1 on the plane) for ty as first taken
    if not k:       # the plane: a rigid motion (1, x) -> (1, R (x - M))
        M = (1.0, 0.5 * (Pm[1] + Pp[1]), 0.5 * (Pm[2] + Pp[2]))
        r = math.hypot(Pp[1] - Pm[1], Pp[2] - Pm[2])
        tx = (0.0, (Pp[1] - Pm[1]) / r, (Pp[2] - Pm[2]) / r)
        ty = (0.0, -tx[2], tx[1])
        if (B[1] - M[1]) * ty[1] + (B[2] - M[2]) * ty[2] > 0.0:
            ty, det_sign = (0.0, tx[2], -tx[1]), -det_sign
        lam = ((1.0, 0.0, 0.0),
               (-(M[1] * tx[1] + M[2] * tx[2]), tx[1], tx[2]),
               (-(M[1] * ty[1] + M[2] * ty[2]), ty[1], ty[2]))
    else:
        M = _kunit(k, (Pm[0] + Pp[0], Pm[1] + Pp[1], Pm[2] + Pp[2]))
        cc = -k * _kdot(k, Pp, M)
        tx = _kunit(k, (Pp[0] + cc * M[0], Pp[1] + cc * M[1], Pp[2] + cc * M[2]))
        ty = _kunit(k, _kcross(k, M, tx))
        if _kdot(k, B, ty) > 0.0:
            ty, det_sign = (-ty[0], -ty[1], -ty[2]), -det_sign
        lam = ((M[0], k * M[1], k * M[2]),
               (k * tx[0], tx[1], tx[2]),
               (k * ty[0], ty[1], ty[2]))
    return reps, lam, ((M[0], tx[0], ty[0]), (M[1], tx[1], ty[1]), (M[2], tx[2], ty[2])), det_sign


def labelled_place_faces(steps):
    """Vertex reps of every face of a chain of LabelledSteps, in the frame of edge e_0."""
    faces = []
    acc = IDENTITY3
    for step in steps:
        faces.append({lab: _matvec(acc, v) for lab, v in step.verts.items()})
        acc = _matmul(acc, step.inverse)
    return faces


def chord_segments(steps, s):
    """C(s_i), S(s_i) and per-segment terms of the chord with offsets s.

    Segment i joins A = T_i P(s_i) to B = P(s_{i+1}) in frame E_{i+1}, with
    P(s) = (C(s), S(s), 0).  Its terms are <D, D>, -<dA, D>, <D, dB> and
    -<dA, dB> for D = B - A and the edge tangents dA, dB: its length d has
    2 S(d / 2) = sqrt(<D, D>), and S(d) cos(angle with the edge's +x) is
    -<dA, D> at A and <D, dB> at B.  All terms come from the short
    difference D, never from the far points (full relative precision).
    """
    k, C, S, _ = _KERNEL[steps[0].space]
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


def mirror_plan(toks):
    """Sources c - k and flips of the images appended at c + k; NumericalFailure if asymmetric."""
    n, K, plan = len(toks), len(toks) // 4, []
    for c in (K, 2 * K):
        turn = HALF_TURN[toks[c]]
        for i in range(c - 1, -1, -1):
            tok, flip = turn[toks[i]]
            if tok != toks[(2 * c - i) % n]:
                raise NumericalFailure("crossing word lacks the half-turn symmetry")
            plan.append((i, flip))
    return tuple(zip(*plan)) or ((), ())


def walked_boundary(dev):
    """(vid, label, chart point, angle sum) of the development's boundary vertices, walked."""
    edge_count = {}
    for face in dev.faces:
        lab = face.labels
        for u, v in ((lab[0], lab[1]), (lab[0], lab[2]), (lab[1], lab[2])):
            key = frozenset((face.vertex_ids[u], face.vertex_ids[v]))
            edge_count[key] = edge_count.get(key, 0) + 1
    boundary_edges = [tuple(k) for k, cnt in edge_count.items() if cnt == 1]
    adj = {}
    for u, v in boundary_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = dev.glue_edges[0][1][0]
    cycle = [start]
    prev = None
    cur = start
    while True:
        nbrs = adj[cur]
        nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt

    vid_label = {}
    vid_faces = {}
    for face in dev.faces:
        for label, vid in face.vertex_ids.items():
            vid_label[vid] = label
            vid_faces.setdefault(vid, []).append(face)

    boundary = []
    for vid in cycle:
        label = vid_label[vid]
        total = 0.0
        for face in vid_faces[vid]:
            total += dev.spec.angle(face.labels, label)
        boundary.append((vid, label, dev.vertex_points[vid], total))
    return boundary

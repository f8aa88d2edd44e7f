"""Test oracles: chain placement by reflection and the face fold.

The library places and measures the chains of all three spaces in the
edge-local frames of :mod:`tetrageo.frames`.  These functions compute the
same quantities independently, with the rep-layer kernel of
:mod:`tetrageo.geom` and curvature-generic bodies: a face chain placed by
reflecting the vertex behind each glue edge across it (``place_chain``),
and a path folded back onto canonically placed single faces, where its
length, vertex clearance and closure residual are taken
(``_face_fold_metrics``).
"""

import math
from itertools import combinations

from tetrageo.geom import (SpaceKind, _cross3, _mcross, _unit_spacelike, rangle, rdistance,
                           rinterpolate, rpoint_at, rpoint_seg_dist, rreflect, rtangent)


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

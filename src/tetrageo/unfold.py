"""Developments: unrolled face chains in the model charts.

A development along a crossing word of length N consists of N placed face
copies F_0..F_{N-1}; faces F_{i-1} and F_i share the glue edge e_i, and
the two cap copies of e_0 bound the chain.  Placement is canonical (first
edge centered on the chart axis, first face in the upper half-chart), so
outputs are byte-reproducible.

Spherical chains may overlap themselves on the sphere; the development is
an abstract chain and overlap is never an error.  If the chain leaves an
open hemisphere a warning is emitted when the hemisphere check is on.

Chains of all three spaces are placed in edge-local frames
(:func:`frames.place_faces`), on the hyperboloid, the plane or the sphere.
The plane's reps (1, x, y) are stored as their points (x, y); hyperbolic
reps are converted to chart coordinates only for the stored chart points.
Long hyperbolic chains still saturate any global chart, so the published
coordinates of very large developments are display quality while all
metric checks use the internal points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from . import frames as frames_mod
from .combinat import CrossingSequence
# rangle and rside_measure have no caller here; the layer trace counts calls at this site
from .geom import (SpaceKind, chart_point, rangle, rdistance, rhalf_turn,  # noqa: F401
                   rinterpolate, rmidpoint, rside_measure)
from .tetra import HALF_TURN_LABELS


class HemisphereWarning(UserWarning):
    """Spherical chain does not fit in an open hemisphere (a*(p+q) >= pi/2)."""


@dataclass
class PlacedFace:
    labels: tuple          # sorted vertex labels (i, j, k)
    points: dict           # label -> chart point
    reps: dict             # label -> rep point (hyperboloid for H)
    vertex_ids: dict       # label -> id shared with glued neighbours


@dataclass
class Development:
    space: SpaceKind
    spec: object
    sequence: CrossingSequence
    faces: list
    glue_edges: list       # (token, (vid_minus, vid_plus)) for e_0 .. e_N
    vertex_points: dict    # vid -> chart point
    vertex_reps: dict      # vid -> rep point
    sym_points: dict = field(default_factory=dict)   # chart points
    sym_reps: dict = field(default_factory=dict)
    boundary: list = field(default_factory=list)     # (vid, label, point, angle)

    def glue_edge_reps(self, i):
        tok, (va, vb) = self.glue_edges[i]
        return self.vertex_reps[va], self.vertex_reps[vb]

    def crossing_point(self, i, fraction):
        """Chart point at the given fraction (from the smaller label) of e_i."""
        a, b = self.glue_edge_reps(i)
        return chart_point(self.space, rinterpolate(self.space, a, b, float(fraction)))

    def boundary_angles(self):
        return [rec[3] for rec in self.boundary]


def build_development(spec, s: CrossingSequence, hemisphere_check=True):
    """Place the face chain of a crossing word in the spec's chart.

    The faces of every space are solved in their local edge frames and
    pushed to the chart by composed frame transitions, so the chain never
    feeds far-point cancellations back into itself; the plane's reps
    (1, x, y) are kept as (x, y).  The symmetry points X1, Y1,
    X2, Y2, X1' are the midpoints of the start, quarter, half,
    three-quarter and closing glue edges.

    The vertices, glue edges and boundary are read off the word in the same
    pass: F_0 brings three vertices (ids in label order), every later face
    the end w of its exit edge off its entry edge, and w extends the
    boundary side of the entry end the face leaves behind.  The boundary
    runs from X1's smaller end a along its side, e_N and the other side
    back, or the other way round when e_0 is F_0's first edge through a in
    label order; each vertex's face angles (the spec's) are summed in face order.
    """
    space = spec.space
    tokens_ext = list(s.tokens) + [s.tokens[0]]

    if hemisphere_check and space == SpaceKind.SPHERICAL:
        if spec.edge * (s.gtype.p + s.gtype.q) >= math.pi / 2:
            warnings.warn(
                "spherical chain does not fit an open hemisphere; "
                "the development is abstract and may overlap",
                HemisphereWarning, stacklevel=2)

    placed = frames_mod.place_faces(frames_mod.build_chain(spec, tokens_ext), tokens_ext)
    if space == SpaceKind.EUCLIDEAN:
        placed = [{lab: rep[1:] for lab, rep in face.items()} for face in placed]

    pairs = [(int(tok[0]), int(tok[1])) for tok in tokens_ext]
    vertex_reps, faces, glue_edges, ids = {}, [], [], {}
    angle_sums = [0.0] * (len(placed) + 2)
    for tok, entry, leave, face_reps in zip(tokens_ext, pairs, pairs[1:], placed):
        if faces:  # the glue edge e_i keeps the vertices of the face behind it
            ids = {lab: faces[-1].vertex_ids[lab] for lab in entry}
        for lab in sorted(face_reps):
            if lab not in ids:
                ids[lab] = len(vertex_reps)
                vertex_reps[ids[lab]] = face_reps[lab]
        glue_edges.append((tok, (ids[entry[0]], ids[entry[1]])))
        if not faces:   # the two sides, lists of (vid, label) keyed by the label at their end
            sides = {lab: [(ids[lab], lab)] for lab in entry}
            side_a, side_b = sides.values()
        (w,), (behind,) = set(leave) - set(entry), set(entry) - set(leave)
        sides[w] = sides.pop(behind)
        sides[w].append((ids[w], w))
        reps = {lab: vertex_reps[vid] for lab, vid in ids.items()}
        labels = tuple(sorted(reps))
        for lab in labels:
            angle_sums[ids[lab]] += spec.angle(labels, lab)
        faces.append(PlacedFace(labels=labels, points={}, reps=reps, vertex_ids=ids))
    glue_edges.append((tokens_ext[-1], (ids[leave[0]], ids[leave[1]])))

    vertex_points = {vid: chart_point(space, rep) for vid, rep in vertex_reps.items()}
    for face in faces:
        face.points = {lab: vertex_points[vid] for lab, vid in face.vertex_ids.items()}
    ring = side_a + side_b[::-1]
    (a, b), (w0,) = pairs[0], set(pairs[1]) - set(pairs[0])
    if a in pairs[1] or w0 > b:     # e_0 is F_0's first edge through a in label order
        ring = ring[:1] + ring[:0:-1]
    dev = Development(space=space, spec=spec, sequence=s, faces=faces,
                      glue_edges=glue_edges, vertex_points=vertex_points,
                      vertex_reps=vertex_reps,
                      boundary=[(vid, lab, vertex_points[vid], angle_sums[vid])
                                for vid, lab in ring])
    _attach_symmetry_points(dev)
    return dev


def _attach_symmetry_points(dev):
    n = len(dev.faces)
    names = ("X1", "Y1", "X2", "Y2", "X1p")
    for name, idx in zip(names, (0, n // 4, n // 2, 3 * n // 4, n)):
        a, b = dev.glue_edge_reps(idx)
        rep = rmidpoint(dev.space, a, b)
        dev.sym_reps[name] = rep
        dev.sym_points[name] = chart_point(dev.space, rep)


def symmetry_check(dev, tol=1e-8):
    """Half-turn symmetry of the chain about X2, Y1, Y2 (regular specs).

    True iff for each center the adjacent quarter (resp. half) developments
    map onto each other vertex-wise within tol; ValueError unless tol is
    finite and not negative.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and not negative; got {tol!r}")
    n = len(dev.faces)
    if n % 4 != 0:
        return False
    checks = (("Y1", n // 4, n // 4), ("X2", n // 2, n // 2), ("Y2", 3 * n // 4, n // 4))
    for name, c, span in checks:
        center = dev.sym_reps[name]
        sigma = HALF_TURN_LABELS[dev.glue_edges[c][0]]
        for k in range(span):
            src = dev.faces[c - 1 - k]
            dst = dev.faces[c + k]
            if tuple(sorted(sigma[l] for l in src.labels)) != dst.labels:
                return False
            for label, rep in src.reps.items():
                image = rhalf_turn(dev.space, center, rep)
                target = dst.reps[sigma[label]]
                if rdistance(dev.space, image, target) > tol:
                    return False
    return True

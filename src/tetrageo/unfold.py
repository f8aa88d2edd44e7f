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
# rside_measure has no caller here; it stays importable from this module
# because the perfbench layer trace counts kernel calls at this site
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

    vertex_reps = {}
    faces = []
    for i, face_reps in enumerate(placed):
        ids, reps = {}, {}
        if faces:  # the glue edge e_i keeps the vertices of the face behind it
            prev = faces[-1]
            for lab in (int(tokens_ext[i][0]), int(tokens_ext[i][1])):
                ids[lab], reps[lab] = prev.vertex_ids[lab], prev.reps[lab]
        for lab in sorted(face_reps):
            if lab not in ids:
                ids[lab] = len(vertex_reps)
                vertex_reps[ids[lab]] = reps[lab] = face_reps[lab]
        faces.append(PlacedFace(labels=tuple(sorted(reps)), points={}, reps=reps,
                                vertex_ids=ids))
    glue_edges = []
    for i, tok in enumerate(tokens_ext):
        ids = faces[min(i, len(faces) - 1)].vertex_ids
        glue_edges.append((tok, (ids[int(tok[0])], ids[int(tok[1])])))

    vertex_points = {vid: chart_point(space, rep) for vid, rep in vertex_reps.items()}
    for face in faces:
        face.points = {lab: vertex_points[vid] for lab, vid in face.vertex_ids.items()}

    dev = Development(space=space, spec=spec, sequence=s, faces=faces,
                      glue_edges=glue_edges, vertex_points=vertex_points,
                      vertex_reps=vertex_reps)
    _attach_symmetry_points(dev)
    _attach_boundary(dev)
    return dev


def _attach_symmetry_points(dev):
    n = len(dev.faces)
    names = ("X1", "Y1", "X2", "Y2", "X1p")
    for name, idx in zip(names, (0, n // 4, n // 2, 3 * n // 4, n)):
        a, b = dev.glue_edge_reps(idx)
        rep = rmidpoint(dev.space, a, b)
        dev.sym_reps[name] = rep
        dev.sym_points[name] = chart_point(dev.space, rep)


def _attach_boundary(dev):
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
        rep = dev.vertex_reps[vid]
        label = vid_label[vid]
        total = 0.0
        for face in vid_faces[vid]:
            others = [l for l in face.labels if l != label]
            total += rangle(dev.space, rep, face.reps[others[0]], face.reps[others[1]])
        boundary.append((vid, label, dev.vertex_points[vid], total))
    dev.boundary = boundary


def symmetry_check(dev, tol=1e-8):
    """Half-turn symmetry of the chain about X2, Y1, Y2 (regular specs).

    True iff for each center the adjacent quarter (resp. half) developments
    map onto each other vertex-wise within tol.
    """
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

"""SVG export of developments with optional geodesic overlays.

Chart conventions: the Klein disk is scaled to a 1000-unit circle, the
sphere is drawn in orthographic projection about the development's start
edge (view axis through X1), Euclidean developments use their chart
coordinates directly.  Boundary, face edges, the geodesic polyline and
symmetry points carry distinct class attributes for styling.
"""

from __future__ import annotations

from itertools import combinations

from .geom import SpaceKind, rinterpolate

SCALE = {SpaceKind.EUCLIDEAN: 200.0, SpaceKind.SPHERICAL: 1000.0,
         SpaceKind.HYPERBOLIC: 1000.0}

STYLE = (".face-edge{stroke:#888;stroke-width:1;fill:none}"
         ".boundary{stroke:#222;stroke-width:2;fill:none}"
         ".geodesic{stroke:#c02020;stroke-width:2;fill:none}"
         ".symmetry-point{fill:#2040c0}"
         ".chart{stroke:#bbb;stroke-width:1;fill:none;stroke-dasharray:4 4}")


def _project(space, p):
    if space == SpaceKind.SPHERICAL:
        return (p[1], p[2])  # orthographic about the start-edge axis (x)
    return (p[0], p[1])


def _xy(space, p):
    u, v = _project(space, p)
    s = SCALE[space]
    return (u * s, -v * s)


def _edge_samples(space, a, b, steps=16):
    if space == SpaceKind.SPHERICAL:
        # sphere reps are chart points
        return [rinterpolate(space, a, b, k / steps) for k in range(steps + 1)]
    return [a, b]


def _fmt(v):
    return format(v, ".3f")


def _polyline(space, pts, cls):
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (_xy(space, p) for p in pts))
    return f'<polyline class="{cls}" points="{coords}"/>'


def render_development(dev, path=None):
    """SVG document of the development; overlays the path when given."""
    space = dev.space
    parts = []
    all_xy = []

    for i, face in enumerate(dev.faces):
        for u, v in combinations(face.labels, 2):
            if i and f"{u}{v}" == dev.glue_edges[i][0]:
                continue    # drawn by the face behind it
            pts = _edge_samples(space, face.points[u], face.points[v])
            parts.append(_polyline(space, pts, "face-edge"))
            all_xy.extend(_xy(space, p) for p in pts)

    boundary_pts = [rec[2] for rec in dev.boundary]
    ring = []
    for i in range(len(boundary_pts)):
        ring.extend(_edge_samples(space, boundary_pts[i],
                                  boundary_pts[(i + 1) % len(boundary_pts)])[:-1])
    ring.append(ring[0])
    parts.append(_polyline(space, ring, "boundary"))

    if path is not None:
        chain = [dev.crossing_point(i, f) for i, (tok, f) in enumerate(path.crossings)]
        chain.append(dev.crossing_point(len(dev.faces), path.crossings[0][1]))
        pts = []
        for i in range(len(chain) - 1):
            pts.extend(_edge_samples(space, chain[i], chain[i + 1])[:-1])
        pts.append(chain[-1])
        parts.append(_polyline(space, pts, "geodesic"))

    for name in ("X1", "Y1", "X2", "Y2", "X1p"):
        x, y = _xy(space, dev.sym_points[name])
        parts.append(f'<circle class="symmetry-point" cx="{_fmt(x)}" cy="{_fmt(y)}" r="4">'
                     f"<title>{name}</title></circle>")

    if space != SpaceKind.EUCLIDEAN:
        parts.append(f'<circle class="chart" cx="0" cy="0" r="{_fmt(SCALE[space])}"/>')
        all_xy.extend([(-SCALE[space], -SCALE[space]), (SCALE[space], SCALE[space])])

    xs = [p[0] for p in all_xy]
    ys = [p[1] for p in all_xy]
    margin = 20.0
    x0, y0 = min(xs) - margin, min(ys) - margin
    w, h = max(xs) - min(xs) + 2 * margin, max(ys) - min(ys) + 2 * margin
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">\n'
            f"<style>{STYLE}</style>\n{body}\n</svg>\n")

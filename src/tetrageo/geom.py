"""Constant-curvature 2D geometry kernel.

Three model charts, selected by :class:`SpaceKind`:

* Euclidean plane, points ``(x, y)``;
* unit sphere embedded in R^3, points as unit 3-vectors ``(x, y, z)``;
* Cayley-Klein disk for the hyperbolic plane, points ``(x, y)`` with
  ``x^2 + y^2 < 1`` (geodesics are straight chords).

Every operation is implemented once, in the ``r*`` functions, on
computational representations (reps): hyperbolic points are hyperboloid
vectors (signature (-,+,+)), Euclidean and spherical reps are their chart
points; H and S share one body in k, with the curvature table ``_KERNEL``
that :mod:`tetrageo.frames` reads too.  ``rep_point`` and ``chart_point``
convert; the chart-level functions are thin wrappers over the rep layer.

All functions are pure; no state is shared anywhere in the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

from .errors import AmbiguousGeodesic, OutOfHemisphere

DEFAULT_TOL = 1e-10


class SpaceKind(IntEnum):
    """Curvature selector; the value is the curvature k."""

    HYPERBOLIC = -1
    EUCLIDEAN = 0
    SPHERICAL = 1

    @classmethod
    def parse(cls, name):
        table = {
            "hyperbolic": cls.HYPERBOLIC, "h": cls.HYPERBOLIC, "-1": cls.HYPERBOLIC,
            "euclidean": cls.EUCLIDEAN, "e": cls.EUCLIDEAN, "0": cls.EUCLIDEAN,
            "spherical": cls.SPHERICAL, "s": cls.SPHERICAL, "1": cls.SPHERICAL,
        }
        key = str(name).strip().lower()
        if key not in table:
            raise ValueError(f"unknown space {name!r}")
        return table[key]


class Side(Enum):
    LEFT = "Left"
    RIGHT = "Right"
    ON = "On"


@dataclass(frozen=True)
class Segment2:
    """Geodesic segment between two chart points."""

    a: tuple
    b: tuple
    space: SpaceKind


# ---------------------------------------------------------------------------
# vector helpers of the curved spaces in k = float(space): <u, v> = k u0 v0 +
# u1 v1 + u2 v2 is the sphere's dot product at k = 1, the Minkowski product at
# k = -1; a factor k = +-1.0 is exact, so each space rounds as in its own formula

def _kdot(k, u, v):
    return k * u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _kcross(k, u, v):
    """Cross product of (k u0, u1, u2) and (k v0, v1, v2): <, >-orthogonal to u and v."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * (k * v[0]) - (k * u[0]) * v[2],
            (k * u[0]) * v[1] - u[1] * (k * v[0]))


def _kunit(k, v):
    # the floor engages for a zero vector, or where saturated far coordinates cancel
    s = math.sqrt(max(abs(_kdot(k, v, v)), 1e-300))
    return (v[0] / s, v[1] / s, v[2] / s)


# per curvature k = -1 (hyperboloid), 0 (plane) or +1 (sphere): k, the trig pair
# of the exponential map (C(s) P + S(s) T) and the inverse of S, which gives a
# chord D the length 2 arc(sqrt(<D, D>) / 2)
_KERNEL = {
    SpaceKind.HYPERBOLIC: (-1.0, math.cosh, math.sinh, math.asinh),
    SpaceKind.EUCLIDEAN: (0.0, lambda s: 1.0, lambda s: s, lambda x: x),
    SpaceKind.SPHERICAL: (1.0, math.cos, math.sin, math.asin),
}


def lift_klein(p):
    """Klein disk point (x^2 + y^2 < 1) -> hyperboloid point (x0 > 0)."""
    x, y = p
    g = 1.0 / math.sqrt(1.0 - (x * x + y * y))
    return (g, g * x, g * y)


def drop_klein(X):
    """Hyperboloid point -> Klein disk coordinates."""
    return (X[1] / X[0], X[2] / X[0])


# ---------------------------------------------------------------------------
# representation layer
#
# Every operation is written once, on reps: hyperboloid vectors for H,
# unit 3-vectors for S (the sphere chart itself) and plane points for E; H and
# S share one body in k unless the formula differs in kind (rdistance, rangle).
# Hyperbolic computation in the Klein chart would cost ~cosh^2 of the working
# radius in precision, so charts appear only at input and output.

def rep_point(space, p):
    """Chart point -> computational representation.

    ValueError unless the point is finite, has its space's number of
    coordinates (three on S, two on E and H) and, on H, lies inside the disk.
    """
    dim = 3 if space == SpaceKind.SPHERICAL else 2
    if len(p) != dim:
        raise ValueError(f"chart point {p!r} needs {dim} coordinates on {SpaceKind(space).name}")
    if not all(map(math.isfinite, p)):
        raise ValueError(f"chart point {p!r} is not finite")
    if space == SpaceKind.HYPERBOLIC:
        if p[0] * p[0] + p[1] * p[1] >= 1.0:
            raise ValueError(f"chart point {p!r} is not inside the Klein disk")
        return lift_klein(p)
    return p


def chart_point(space, P):
    """Computational representation -> chart point."""
    return drop_klein(P) if space == SpaceKind.HYPERBOLIC else P


def rdistance(space, P, Q):
    """Geodesic distance; spherical antipodes raise AmbiguousGeodesic."""
    if space == SpaceKind.HYPERBOLIC:
        # 2 asinh of the half Minkowski chord: <P-Q, P-Q> = 4 sinh^2(d/2).
        # Unlike acosh(-<P,Q>) this has no sqrt(eps) floor near coincidence.
        D = (P[0] - Q[0], P[1] - Q[1], P[2] - Q[2])
        return 2.0 * math.asinh(0.5 * math.sqrt(max(_kdot(-1.0, D, D), 0.0)))
    if space == SpaceKind.SPHERICAL:
        c = _kcross(1.0, P, Q)
        ang = math.atan2(math.sqrt(_kdot(1.0, c, c)), _kdot(1.0, P, Q))
        if math.pi - ang < 1e-12:
            raise AmbiguousGeodesic("antipodal spherical points")
        return ang
    return math.hypot(Q[0] - P[0], Q[1] - P[1])


def rmidpoint(space, P, Q):
    if space == SpaceKind.EUCLIDEAN:
        return ((P[0] + Q[0]) / 2.0, (P[1] + Q[1]) / 2.0)
    k, M = float(space), (P[0] + Q[0], P[1] + Q[1], P[2] + Q[2])
    if k > 0.0 and math.sqrt(_kdot(k, M, M)) < 1e-12:
        raise AmbiguousGeodesic("midpoint of antipodal points")
    return _kunit(k, M)


def _span(space, A, B):
    """_kcross(k, A, B), or B - A on the plane; AmbiguousGeodesic where it is zero and A, B span
    no line: where they coincide to rounding or, on S, are antipodal."""
    span = _kcross(float(space), A, B) if space else (B[0] - A[0], B[1] - A[1])
    if not sum(x * x for x in span):
        raise AmbiguousGeodesic("segment ends coincide or are antipodal")
    return span


def rtangent(space, P, Q):
    """Unit tangent at P toward Q: Q - k<P, Q> P, normalized; AmbiguousGeodesic where P, Q span
    no line (_span) or, on H, whose far reps can round that test to zero, coincide."""
    if space == SpaceKind.EUCLIDEAN:
        dx, dy = _span(space, P, Q)
        d = math.hypot(dx, dy)
        return (dx / d, dy / d)
    if space == SpaceKind.SPHERICAL:
        _span(space, P, Q)
    elif tuple(P) == tuple(Q):
        raise AmbiguousGeodesic("segment ends coincide")
    k = float(space)
    c = k * _kdot(k, P, Q)
    return _kunit(k, (Q[0] - c * P[0], Q[1] - c * P[1], Q[2] - c * P[2]))


def rpoint_at(space, P, tangent, dist):
    """Exponential map: walk dist from P along a unit tangent."""
    if space == SpaceKind.EUCLIDEAN:
        return (P[0] + dist * tangent[0], P[1] + dist * tangent[1])
    _, C, S, _ = _KERNEL[space]
    c, s = C(dist), S(dist)
    return (c * P[0] + s * tangent[0], c * P[1] + s * tangent[1], c * P[2] + s * tangent[2])


def rinterpolate(space, P, Q, frac):
    """Point at arc-length fraction frac from P toward Q."""
    d = rdistance(space, P, Q)
    if d == 0.0:
        return P
    return rpoint_at(space, P, rtangent(space, P, Q), frac * d)


def rangle(space, V, P, Q):
    """Unsigned angle at V between the geodesic rays V->P and V->Q, in [0, pi] (rtangent)."""
    t1 = rtangent(space, V, P)
    t2 = rtangent(space, V, Q)
    if space == SpaceKind.HYPERBOLIC:
        return math.acos(max(-1.0, min(1.0, _kdot(-1.0, t1, t2))))
    if space == SpaceKind.SPHERICAL:
        c = _kcross(1.0, t1, t2)
        return math.atan2(math.sqrt(_kdot(1.0, c, c)), _kdot(1.0, t1, t2))
    return abs(math.atan2(t1[0] * t2[1] - t1[1] * t2[0], t1[0] * t2[0] + t1[1] * t2[1]))


def rreflect(space, A, B, P):
    """Reflect P across the geodesic through A, B; AmbiguousGeodesic if they span none (_span)."""
    if space == SpaceKind.EUCLIDEAN:
        dx, dy = _span(space, A, B)
        t = ((P[0] - A[0]) * dx + (P[1] - A[1]) * dy) / (dx * dx + dy * dy)
        return (2 * (A[0] + t * dx) - P[0], 2 * (A[1] + t * dy) - P[1])
    k = float(space)
    n = _kunit(k, _span(space, A, B))
    d = _kdot(k, P, n)
    return (P[0] - 2 * d * n[0], P[1] - 2 * d * n[1], P[2] - 2 * d * n[2])


def rhalf_turn(space, C, P):
    """Rotation of P by pi about C (the geodesic point reflection): 2k<P, C> C - P."""
    if space == SpaceKind.EUCLIDEAN:
        return (2 * C[0] - P[0], 2 * C[1] - P[1])
    k = float(space)
    d = 2.0 * k * _kdot(k, P, C)
    return (d * C[0] - P[0], d * C[1] - P[1], d * C[2] - P[2])


def rpoint_seg_dist(space, V, A, B):
    """Distance from V to the geodesic segment AB (foot clamped to the segment).

    In the curved spaces, with t_A = B - k<A, B>A and t_B = A - k<A, B>B, the
    foot of the perpendicular from V lies inside AB where <V, t_A> and
    <V, t_B> are both positive, and the distance is the perpendicular one.
    Otherwise it is the distance to the end whose sign is not positive (A for
    t_A), or to the nearer end where both are not (_end_distance).
    """
    if space == SpaceKind.EUCLIDEAN:
        dx, dy = B[0] - A[0], B[1] - A[1]
        t = ((V[0] - A[0]) * dx + (V[1] - A[1]) * dy) / (dx * dx + dy * dy)
        t = max(0.0, min(1.0, t))
        return math.hypot(V[0] - (A[0] + t * dx), V[1] - (A[1] + t * dy))
    k, (v0, v1, v2), (a0, a1, a2), (b0, b1, b2) = float(space), V, A, B
    ab = k * a0 * b0 + a1 * b1 + a2 * b2
    va, vb = k * v0 * a0 + v1 * a1 + v2 * a2, k * v0 * b0 + v1 * b1 + v2 * b2
    ta, tb = vb - k * ab * va, va - k * ab * vb
    if ta > 0.0 and tb > 0.0:       # the unit normal n: A x B, first coordinates times k
        n0, n1, n2 = a1 * b2 - a2 * b1, k * (a2 * b0 - a0 * b2), k * (a0 * b1 - a1 * b0)
        s = math.sqrt(max(k * n0 * n0 + n1 * n1 + n2 * n2, 1e-300))
        dn = k * v0 * (n0 / s) + v1 * (n1 / s) + v2 * (n2 / s)
        return math.asinh(abs(dn)) if k < 0.0 else abs(math.asin(max(-1.0, min(1.0, dn))))
    if ta <= 0.0 and tb <= 0.0:
        return min(_end_distance(space, V, A, va), _end_distance(space, V, B, vb))
    return _end_distance(space, V, A, va) if ta <= 0.0 else _end_distance(space, V, B, vb)


def _end_distance(space, V, E, ve):
    """rdistance(space, V, E) from a vertex V to an end E of a segment, given ve = <V, E>_k.

    On H, past cosh d = -ve = 2, it is acosh(-ve).  There rdistance's chord
    <V - E, V - E> is a small difference of the squares of a far vertex's
    coordinates and loses their rounding: 6 ulps at cosh 20 on the (1, 1)
    path at alpha = 0.05, where the perpendicular's asinh |<V, n>| keeps it.
    """
    if space == SpaceKind.HYPERBOLIC and ve < -2.0:
        return math.acosh(-ve)
    return rdistance(space, V, E)


def rside_measure(space, A, B, P):
    """Signed orientation of P against the geodesic through A, B.

    Positive means Left: counterclockwise in the plane and Klein charts,
    along A x B on the sphere; k<P, _kcross(k, A, B)> in the curved spaces.
    """
    if space == SpaceKind.EUCLIDEAN:
        return (B[0] - A[0]) * (P[1] - A[1]) - (B[1] - A[1]) * (P[0] - A[0])
    k = float(space)
    c = _kcross(k, A, B)
    return P[0] * c[0] + k * P[1] * c[1] + k * P[2] * c[2]     # k * _kdot would flip a zero


# ---------------------------------------------------------------------------
# chart-level API: thin wrappers over the rep layer

def distance(space, p, q):
    """Geodesic distance between two chart points.

    Spherical distances are the minor-arc angle in [0, pi]; antipodal
    inputs raise :class:`AmbiguousGeodesic`.  Hyperbolic distances equal
    the Klein-disk cross-ratio value arcosh((1 - p.q)/sqrt((1-|p|^2)(1-|q|^2))).
    """
    return rdistance(space, rep_point(space, p), rep_point(space, q))


def _line_reps(space, seg):
    """Reps of seg's ends; AmbiguousGeodesic if they span no line (_span)."""
    A, B = rep_point(space, seg.a), rep_point(space, seg.b)
    _span(space, A, B)
    return A, B


def side_of(space, seg, p, tol=DEFAULT_TOL):
    """Orientation of p relative to the complete geodesic through seg.

    Returns Side.LEFT / Side.RIGHT / Side.ON; tol applies to the signed
    measure of :func:`rside_measure`.  ValueError unless tol is finite and
    not negative.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and not negative; got {tol!r}")
    m = rside_measure(space, *_line_reps(space, seg), rep_point(space, p))
    if abs(m) < tol:
        return Side.ON
    return Side.LEFT if m > 0 else Side.RIGHT


def reflect_across(space, seg, p):
    """Isometric reflection of p in the complete geodesic through seg."""
    return chart_point(space, rreflect(space, *_line_reps(space, seg), rep_point(space, p)))


# ---------------------------------------------------------------------------
# central (gnomonic) projection of the sphere

def gnomonic_project(p, tangent_point):
    """Central projection of a unit-sphere point onto the tangent plane.

    Rays start at the sphere's center; the image lands on the plane tangent
    at ``tangent_point`` and is returned in 2D coordinates of a fixed
    orthonormal frame of that plane.  Great circles map to straight lines.
    ValueError unless both points are finite.
    """
    p, t = (rep_point(SpaceKind.SPHERICAL, v) for v in (p, tangent_point))
    c = _kdot(1.0, p, t)
    if c <= 1e-12:
        raise OutOfHemisphere("point not strictly inside the open hemisphere")
    e1 = _kunit(1.0, _kcross(1.0, (0.0, 0.0, 1.0) if abs(t[2]) < 0.9 else (1.0, 0.0, 0.0), t))
    v = (p[0] / c - t[0], p[1] / c - t[1], p[2] / c - t[2])     # the image p / c, from t
    return (_kdot(1.0, v, e1), _kdot(1.0, v, _kcross(1.0, t, e1)))


def projected_angle_pair(r_over_R, a1, a2):
    """Spherical angle and its gnomonic image for the two-plane construction.

    Both planes pass through the sphere center and the point at polar
    distance r/R on the theta = 0 meridian; the plane pencil is parametrized
    by coefficients a1, a2 in [-1, 1].  Returns (alpha, alpha_hat) where
    alpha is the angle between the planes and alpha_hat the angle between
    their traces on the tangent plane at the pole.
    """
    rr = r_over_R
    s1 = math.sqrt(max(0.0, 1.0 - a1 * a1))
    s2 = math.sqrt(max(0.0, 1.0 - a2 * a2))
    cos_alpha = a1 * a2 + s1 * s2
    num = a1 * a2 * math.cos(rr) ** 2 + s1 * s2
    den = math.sqrt(1.0 - (a1 * math.sin(rr)) ** 2) * math.sqrt(1.0 - (a2 * math.sin(rr)) ** 2)
    cos_hat = num / den
    return (math.acos(max(-1.0, min(1.0, cos_alpha))),
            math.acos(max(-1.0, min(1.0, cos_hat))))

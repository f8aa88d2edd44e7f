"""Constant-curvature 2D geometry kernel.

Three model charts, selected by :class:`SpaceKind`:

* Euclidean plane, points ``(x, y)``;
* unit sphere embedded in R^3, points as unit 3-vectors ``(x, y, z)``;
* Cayley-Klein disk for the hyperbolic plane, points ``(x, y)`` with
  ``x^2 + y^2 < 1`` (geodesics are straight chords).

Every operation is implemented once, in the ``r*`` functions, on
computational representations (reps): hyperbolic points are hyperboloid
vectors (signature (-,+,+)), Euclidean and spherical reps are their chart
points.  ``rep_point`` and ``chart_point`` convert; the chart-level
functions are thin wrappers over the rep layer.

All functions are pure; no state is shared anywhere in the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

from .errors import AmbiguousGeodesic, OutOfHemisphere

DEFAULT_TOL = 1e-10

# clamp for Klein chart points, guards artanh overflow near the rim
KLEIN_RIM = 1.0 - 1e-14


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
# small vector helpers (3-vectors as tuples)

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


def lift_klein(p):
    """Klein disk point -> hyperboloid point (x0 > 0)."""
    x, y = p
    r2 = x * x + y * y
    if r2 >= 1.0:
        s = KLEIN_RIM / math.sqrt(r2)
        x, y = x * s, y * s
        r2 = x * x + y * y
    g = 1.0 / math.sqrt(1.0 - r2)
    return (g, g * x, g * y)


def drop_klein(X):
    """Hyperboloid point -> Klein disk coordinates."""
    return (X[1] / X[0], X[2] / X[0])


def _unit_spacelike(n):
    # the norm is positive for genuine spacelike input; the floor only
    # engages when saturated far coordinates cancel catastrophically, where
    # the chart is display-quality anyway
    s = math.sqrt(max(_mdot(n, n), 1e-300))
    return (n[0] / s, n[1] / s, n[2] / s)


def _normalize_timelike(X):
    s = math.sqrt(max(-_mdot(X, X), 1e-300))
    return (X[0] / s, X[1] / s, X[2] / s)


# ---------------------------------------------------------------------------
# representation layer
#
# Every operation is written once, on reps: hyperboloid vectors for H,
# unit 3-vectors for S (the sphere chart itself) and plane points for E.
# Hyperbolic computation in the Klein chart would cost ~cosh^2 of the
# working radius in precision, so charts appear only at input and output.

def rep_point(space, p):
    """Chart point -> computational representation."""
    return lift_klein(p) if space == SpaceKind.HYPERBOLIC else p


def chart_point(space, P):
    """Computational representation -> chart point."""
    return drop_klein(P) if space == SpaceKind.HYPERBOLIC else P


def _hyp_dist_lifted(P, Q):
    # 2 asinh of the half Minkowski chord: <P-Q, P-Q> = 4 sinh^2(d/2).
    # Unlike acosh(-<P,Q>) this has no sqrt(eps) floor near coincidence.
    d0, d1, d2 = P[0] - Q[0], P[1] - Q[1], P[2] - Q[2]
    m = -d0 * d0 + d1 * d1 + d2 * d2
    return 2.0 * math.asinh(0.5 * math.sqrt(max(m, 0.0)))


def rdistance(space, P, Q):
    """Geodesic distance; spherical antipodes raise AmbiguousGeodesic."""
    if space == SpaceKind.HYPERBOLIC:
        return _hyp_dist_lifted(P, Q)
    if space == SpaceKind.SPHERICAL:
        ang = math.atan2(_norm3(_cross3(P, Q)), _dot3(P, Q))
        if math.pi - ang < 1e-12:
            raise AmbiguousGeodesic("antipodal spherical points")
        return ang
    return math.hypot(Q[0] - P[0], Q[1] - P[1])


def rmidpoint(space, P, Q):
    if space == SpaceKind.HYPERBOLIC:
        return _normalize_timelike((P[0] + Q[0], P[1] + Q[1], P[2] + Q[2]))
    if space == SpaceKind.SPHERICAL:
        s = (P[0] + Q[0], P[1] + Q[1], P[2] + Q[2])
        n = _norm3(s)
        if n < 1e-12:
            raise AmbiguousGeodesic("midpoint of antipodal points")
        return (s[0] / n, s[1] / n, s[2] / n)
    return ((P[0] + Q[0]) / 2.0, (P[1] + Q[1]) / 2.0)


def rtangent(space, P, Q):
    """Unit tangent vector at P pointing toward Q."""
    if space == SpaceKind.HYPERBOLIC:
        c = _mdot(Q, P)
        return _unit_spacelike((Q[0] + c * P[0], Q[1] + c * P[1], Q[2] + c * P[2]))
    if space == SpaceKind.SPHERICAL:
        c = _dot3(P, Q)
        return _unit3((Q[0] - c * P[0], Q[1] - c * P[1], Q[2] - c * P[2]))
    d = math.hypot(Q[0] - P[0], Q[1] - P[1])
    return ((Q[0] - P[0]) / d, (Q[1] - P[1]) / d)


def rpoint_at(space, P, tangent, dist):
    """Exponential map: walk dist from P along a unit tangent."""
    if space == SpaceKind.HYPERBOLIC:
        c, s = math.cosh(dist), math.sinh(dist)
    elif space == SpaceKind.SPHERICAL:
        c, s = math.cos(dist), math.sin(dist)
    else:
        return (P[0] + dist * tangent[0], P[1] + dist * tangent[1])
    return (c * P[0] + s * tangent[0], c * P[1] + s * tangent[1], c * P[2] + s * tangent[2])


def rinterpolate(space, P, Q, frac):
    """Point at arc-length fraction frac from P toward Q."""
    d = rdistance(space, P, Q)
    if d == 0.0:
        return P
    return rpoint_at(space, P, rtangent(space, P, Q), frac * d)


def rangle(space, V, P, Q):
    """Unsigned angle at V between the geodesic rays V->P and V->Q, in [0, pi]."""
    t1 = rtangent(space, V, P)
    t2 = rtangent(space, V, Q)
    if space == SpaceKind.HYPERBOLIC:
        return math.acos(max(-1.0, min(1.0, _mdot(t1, t2))))
    if space == SpaceKind.SPHERICAL:
        return math.atan2(_norm3(_cross3(t1, t2)), _dot3(t1, t2))
    return abs(math.atan2(t1[0] * t2[1] - t1[1] * t2[0], t1[0] * t2[0] + t1[1] * t2[1]))


def rreflect(space, A, B, P):
    """Reflect P across the geodesic through A, B."""
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


def rhalf_turn(space, C, P):
    """Rotation of P by pi about C (the geodesic point reflection)."""
    if space == SpaceKind.HYPERBOLIC:
        d = _mdot(P, C)
        return (-P[0] - 2 * d * C[0], -P[1] - 2 * d * C[1], -P[2] - 2 * d * C[2])
    if space == SpaceKind.SPHERICAL:
        d = _dot3(P, C)
        return (2 * d * C[0] - P[0], 2 * d * C[1] - P[1], 2 * d * C[2] - P[2])
    return (2 * C[0] - P[0], 2 * C[1] - P[1])


def rpoint_seg_dist(space, V, A, B):
    """Distance from V to the geodesic segment AB (foot clamped to the segment)."""
    if space == SpaceKind.HYPERBOLIC:
        n = _unit_spacelike(_mcross(A, B))
        dn = _mdot(V, n)
        foot = _normalize_timelike((V[0] - dn * n[0], V[1] - dn * n[1], V[2] - dn * n[2]))
        dab = _hyp_dist_lifted(A, B)
        if (_hyp_dist_lifted(A, foot) <= dab + 1e-12
                and _hyp_dist_lifted(B, foot) <= dab + 1e-12):
            return math.asinh(abs(dn))
        return min(_hyp_dist_lifted(V, A), _hyp_dist_lifted(V, B))
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
    dx, dy = B[0] - A[0], B[1] - A[1]
    t = ((V[0] - A[0]) * dx + (V[1] - A[1]) * dy) / (dx * dx + dy * dy)
    t = max(0.0, min(1.0, t))
    return math.hypot(V[0] - (A[0] + t * dx), V[1] - (A[1] + t * dy))


def _between_on_arc(a, b, f):
    ab = math.atan2(_norm3(_cross3(a, b)), _dot3(a, b))
    af = math.atan2(_norm3(_cross3(a, f)), _dot3(a, f))
    fb = math.atan2(_norm3(_cross3(f, b)), _dot3(f, b))
    return af + fb <= ab + 1e-9


def rside_measure(space, A, B, P):
    """Signed orientation of P against the geodesic through A, B.

    Positive means Left: counterclockwise in the plane and Klein charts,
    along A x B on the sphere.
    """
    if space == SpaceKind.HYPERBOLIC:
        c = _mcross(A, B)
        return P[0] * c[0] - P[1] * c[1] - P[2] * c[2]
    if space == SpaceKind.SPHERICAL:
        return _dot3(P, _cross3(A, B))
    return (B[0] - A[0]) * (P[1] - A[1]) - (B[1] - A[1]) * (P[0] - A[0])


# ---------------------------------------------------------------------------
# chart-level API: thin wrappers over the rep layer

def distance(space, p, q):
    """Geodesic distance between two chart points.

    Spherical distances are the minor-arc angle in [0, pi]; antipodal
    inputs raise :class:`AmbiguousGeodesic`.  Hyperbolic distances equal
    the Klein-disk cross-ratio value arcosh((1 - p.q)/sqrt((1-|p|^2)(1-|q|^2))).
    """
    return rdistance(space, rep_point(space, p), rep_point(space, q))


def side_of(space, seg, p, tol=DEFAULT_TOL):
    """Orientation of p relative to the complete geodesic through seg.

    Returns Side.LEFT / Side.RIGHT / Side.ON; tol applies to the signed
    measure of :func:`rside_measure`.
    """
    m = rside_measure(space, rep_point(space, seg.a), rep_point(space, seg.b),
                      rep_point(space, p))
    if abs(m) < tol:
        return Side.ON
    return Side.LEFT if m > 0 else Side.RIGHT


def reflect_across(space, seg, p):
    """Isometric reflection of p in the complete geodesic through seg."""
    return chart_point(space, rreflect(space, rep_point(space, seg.a),
                                       rep_point(space, seg.b), rep_point(space, p)))


# ---------------------------------------------------------------------------
# central (gnomonic) projection of the sphere

def gnomonic_project(p, tangent_point):
    """Central projection of a unit-sphere point onto the tangent plane.

    Rays start at the sphere's center; the image lands on the plane tangent
    at ``tangent_point`` and is returned in 2D coordinates of a fixed
    orthonormal frame of that plane.  Great circles map to straight lines.
    """
    c = _dot3(p, tangent_point)
    if c <= 1e-12:
        raise OutOfHemisphere("point not strictly inside the open hemisphere")
    q = (p[0] / c, p[1] / c, p[2] / c)
    e1, e2 = _tangent_frame(tangent_point)
    v = (q[0] - tangent_point[0], q[1] - tangent_point[1], q[2] - tangent_point[2])
    return (_dot3(v, e1), _dot3(v, e2))


def _tangent_frame(t):
    ref = (0.0, 0.0, 1.0) if abs(t[2]) < 0.9 else (1.0, 0.0, 0.0)
    e1 = _unit3(_cross3(ref, t))
    e2 = _cross3(t, e1)
    return e1, e2


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

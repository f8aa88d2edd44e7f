"""Regular and generic tetrahedron parameterizations.

A regular tetrahedron is specified by its space and the planar face angle
alpha; the edge length follows from the constant-curvature edge formula

    spherical:   a = arccos(cos(alpha) / (1 - cos(alpha))),   pi/3 < alpha < 2*pi/3
    hyperbolic:  a = arcosh(cos(alpha) / (1 - cos(alpha))),   0 < alpha < pi/3
    Euclidean:   a = 1 (normalized; everything downstream is scale invariant)

A generic hyperbolic tetrahedron is keyed by its six edge lengths; the
twelve planar angles are derived by the hyperbolic law of cosines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidAngle, InvalidEdge, InvalidTetrahedron, PreconditionFailed
from .geom import SpaceKind

EDGES = ("12", "13", "14", "23", "24", "34")
FACES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))

# opposite-edge pairing of the tetrahedron
OPPOSITE_EDGE = {"12": "34", "34": "12", "13": "24", "24": "13", "14": "23", "23": "14"}

SPHERICAL_EDGE_MAX = math.pi - math.acos(1.0 / 3.0)
# beyond this edge cos(alpha) = cosh(a) / (1 + cosh(a)) rounds to 1
HYPERBOLIC_EDGE_MAX = math.acosh(2.0 ** 53)


def edge_token(u, v):
    return f"{min(u, v)}{max(u, v)}"


# the half turn about the midpoint of an edge c: the vertex involution swapping the ends
# of c and of its opposite edge, and per edge its image and whether the ends swap order
HALF_TURN_LABELS = {c: {int(u): int(v) for e in (c, o) for u, v in (e, e[::-1])}
                    for c, o in OPPOSITE_EDGE.items()}
HALF_TURN = {c: {tok: (edge_token(s[int(tok[0])], s[int(tok[1])]),
                       s[int(tok[0])] > s[int(tok[1])]) for tok in EDGES}
             for c, s in HALF_TURN_LABELS.items()}


def edge_from_angle(space, alpha):
    """Edge length of the regular tetrahedron with planar angle alpha."""
    if space == SpaceKind.EUCLIDEAN:
        if not abs(alpha - math.pi / 3) <= 1e-12:
            raise InvalidAngle("Euclidean regular tetrahedron has alpha = pi/3")
        return 1.0
    if space == SpaceKind.SPHERICAL:
        if not (math.pi / 3 < alpha < 2 * math.pi / 3):
            raise InvalidAngle(f"spherical alpha must lie in (pi/3, 2pi/3), got {alpha}")
        return math.acos(math.cos(alpha) / (1.0 - math.cos(alpha)))
    if not (0.0 < alpha < math.pi / 3):
        raise InvalidAngle(f"hyperbolic alpha must lie in (0, pi/3), got {alpha}")
    if math.cos(alpha) == 1.0:
        raise InvalidAngle(f"hyperbolic alpha {alpha} is below double resolution")
    return math.acosh(math.cos(alpha) / (1.0 - math.cos(alpha)))


def angle_from_edge(space, a):
    """Inverse of edge_from_angle; round-trips to 1e-10."""
    if space == SpaceKind.EUCLIDEAN:
        if not (0.0 < a < math.inf):
            raise InvalidEdge("Euclidean edge must be positive and finite")
        return math.pi / 3
    if space == SpaceKind.SPHERICAL:
        if not (0.0 < a < SPHERICAL_EDGE_MAX):
            raise InvalidEdge(f"spherical edge must lie in (0, {SPHERICAL_EDGE_MAX:.6f})")
        return math.acos(math.cos(a) / (1.0 + math.cos(a)))
    if not (0.0 < a < HYPERBOLIC_EDGE_MAX):
        raise InvalidEdge(f"hyperbolic edge must lie in (0, {HYPERBOLIC_EDGE_MAX:.6f})")
    return math.acos(math.cosh(a) / (1.0 + math.cosh(a)))


@dataclass(frozen=True)
class TetrahedronSpec:
    """Regular tetrahedron: space + planar angle, edge derived."""

    space: SpaceKind
    alpha: float
    edge: float = field(init=False)
    edges: dict = field(init=False, repr=False, compare=False)  # token -> length, as generic

    def __post_init__(self):
        object.__setattr__(self, "edge", edge_from_angle(self.space, self.alpha))
        object.__setattr__(self, "edges", dict.fromkeys(EDGES, self.edge))

    def face_edge_length(self, u, v):
        return self.edge

    def angle(self, face, vertex):
        return self.alpha

    @property
    def is_regular(self):
        return True


def face_altitude(spec):
    """Altitude of a face from a vertex to the opposite edge.

    Hyperbolic faces satisfy tanh(h) = tanh(a) cos(alpha/2); the spherical
    and Euclidean versions follow from the same right-triangle relation.
    PreconditionFailed for a generic spec, whose faces have no one altitude.
    """
    if not isinstance(spec, TetrahedronSpec):
        raise PreconditionFailed("face_altitude needs a regular TetrahedronSpec")
    a = spec.edge
    if spec.space == SpaceKind.EUCLIDEAN:
        return math.sqrt(3.0) / 2.0 * a
    if spec.space == SpaceKind.SPHERICAL:
        return math.acos(math.cos(a) / math.cos(a / 2.0))
    return math.atanh(math.tanh(a) * math.cos(spec.alpha / 2.0))


def _hyp_triangle_angles(la, lb, lc):
    """Angles (A, B, C) opposite sides (la, lb, lc) of a hyperbolic triangle."""
    if not (la < lb + lc and lb < la + lc and lc < la + lb):
        raise InvalidTetrahedron(f"face sides {la, lb, lc} violate the triangle inequality")

    # half-angle form sin^2(A/2) = sinh(s - b) sinh(s - c) / (sinh b sinh c),
    # taken as two ratios: the cosine form cancels on short sides
    def ang(opp, s1, s2):
        h = (math.sinh((opp - s1 + s2) / 2.0) / math.sinh(s1)
             * (math.sinh((opp + s1 - s2) / 2.0) / math.sinh(s2)))
        return 2.0 * math.asin(math.sqrt(min(1.0, h)))

    return (ang(la, lb, lc), ang(lb, la, lc), ang(lc, la, lb))


@dataclass(frozen=True)
class GenericTetraSpec:
    """Hyperbolic tetrahedron keyed by six edge lengths.

    Edges are given in lexicographic vertex-pair order
    (a12, a13, a14, a23, a24, a34); opposite pairs are (12,34), (13,24), (14,23).
    The twelve planar angles are derived and exposed per (face, vertex).
    """

    edges: dict  # token -> length
    angles: dict  # (face, vertex) -> angle
    space: SpaceKind = SpaceKind.HYPERBOLIC

    def face_edge_length(self, u, v):
        return self.edges[edge_token(u, v)]

    def angle(self, face, vertex):
        return self.angles[(tuple(sorted(face)), vertex)]

    def all_angles_le(self, limit):
        return all(a <= limit + 1e-12 for a in self.angles.values())

    @property
    def is_regular(self):
        vals = list(self.edges.values())
        return all(abs(v - vals[0]) < 1e-12 for v in vals)


def generic_from_edges(edges):
    """Build a GenericTetraSpec from six lengths (a12, a13, a14, a23, a24, a34).

    Each length must be finite, at most HYPERBOLIC_EDGE_MAX and large
    enough that its cosh exceeds 1, and every face must satisfy the
    triangle inequality; else InvalidTetrahedron.
    """
    if len(edges) != 6:
        raise InvalidTetrahedron("exactly six edge lengths required")
    if any(e <= 0 for e in edges):
        raise InvalidTetrahedron("edge lengths must be positive")
    if not all(math.isfinite(e) for e in edges):
        raise InvalidTetrahedron("edge lengths must be finite")
    if any(e > HYPERBOLIC_EDGE_MAX for e in edges):
        raise InvalidTetrahedron(f"edge lengths must be at most {HYPERBOLIC_EDGE_MAX:.6f}")
    if any(math.cosh(e) == 1.0 for e in edges):   # the law of cosines cannot resolve it
        raise InvalidTetrahedron("edge length below double resolution")
    table = dict(zip(EDGES, (float(e) for e in edges)))
    angles = {}
    for face in FACES:
        i, j, k = face
        lij = table[edge_token(i, j)]
        lik = table[edge_token(i, k)]
        ljk = table[edge_token(j, k)]
        # angle at i is opposite side jk, etc.
        a_jk, a_ik, a_ij = _hyp_triangle_angles(ljk, lik, lij)
        angles[(face, i)] = a_jk
        angles[(face, j)] = a_ik
        angles[(face, k)] = a_ij
    return GenericTetraSpec(edges=table, angles=angles)

"""Exception types raised by the geometry kernel and the construction layers."""


class TetrageoError(Exception):
    """Base class for all package errors."""


class AmbiguousGeodesic(TetrageoError):
    """No unique geodesic: antipodal spherical endpoints, or segment ends that coincide."""


class OutOfHemisphere(TetrageoError):
    """Point on or beyond the equator of the projection hemisphere."""


class InvalidAngle(TetrageoError):
    """Planar angle outside the valid interval for the space."""


class InvalidEdge(TetrageoError):
    """Edge length outside the image of the edge-from-angle map."""


class InvalidTetrahedron(TetrageoError):
    """A face violates the (strict) triangle inequality."""


class VertexHit(TetrageoError):
    """The requested line parameter makes the path pass through a vertex."""


class TooLong(TetrageoError):
    """Spherical candidate reached length 2*pi or more."""


class NoLinkNodes(TetrageoError):
    """Sequence has no link nodes (type (0,1) degenerates)."""


class BoundVacuous(TetrageoError):
    """The non-existence bound does not constrain this type."""


class BoundDegenerate(TetrageoError):
    """The sufficient-angle bound has a non-finite or non-positive intermediate."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class NoThreshold(TetrageoError):
    """Containment predicate is constant over the angle interval."""


class NumericalFailure(TetrageoError):
    """An iteration failed to converge or to bracket a root."""


class PreconditionFailed(TetrageoError):
    """Operation precondition violated (reported, not silently ignored)."""

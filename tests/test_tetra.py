"""Tetrahedron parameterizations: edge/angle maps, altitudes, generic specs."""

import math

import pytest

from tetrageo.errors import InvalidAngle, InvalidEdge, InvalidTetrahedron, PreconditionFailed
from tetrageo.geom import SpaceKind
from tetrageo.tetra import (HYPERBOLIC_EDGE_MAX, SPHERICAL_EDGE_MAX, TetrahedronSpec,
                            angle_from_edge, edge_from_angle, face_altitude,
                            generic_from_edges)

E, S, H = SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL, SpaceKind.HYPERBOLIC


def test_edge_formula_landmarks():
    assert edge_from_angle(S, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)
    assert edge_from_angle(S, 2 * math.pi / 3 - 1e-8) == pytest.approx(
        math.pi - math.acos(1.0 / 3.0), abs=1e-6)
    assert edge_from_angle(S, math.pi / 3 + 1e-8) == pytest.approx(0.0, abs=1e-3)
    # arcosh(sqrt(2)/(2-sqrt(2))) evaluated independently
    assert edge_from_angle(H, math.pi / 4) == pytest.approx(1.5285709194809982, abs=1e-12)
    assert edge_from_angle(E, math.pi / 3) == 1.0


def test_edge_angle_domains():
    with pytest.raises(InvalidAngle):
        edge_from_angle(S, math.pi / 3)
    with pytest.raises(InvalidAngle):
        edge_from_angle(S, 2 * math.pi / 3)
    with pytest.raises(InvalidAngle):
        edge_from_angle(H, math.pi / 3)
    with pytest.raises(InvalidAngle):
        edge_from_angle(H, 0.0)
    with pytest.raises(InvalidEdge):
        angle_from_edge(S, SPHERICAL_EDGE_MAX + 0.01)
    with pytest.raises(InvalidEdge):
        angle_from_edge(H, -1.0)
    with pytest.raises(InvalidAngle):
        edge_from_angle(H, 1e-10)        # cos(alpha) rounds to 1
    with pytest.raises(InvalidEdge):
        angle_from_edge(H, 1e300)        # cosh overflows
    with pytest.raises(InvalidEdge):
        angle_from_edge(H, HYPERBOLIC_EDGE_MAX)
    with pytest.raises(InvalidAngle):
        edge_from_angle(E, math.nan)
    with pytest.raises(InvalidEdge):
        angle_from_edge(E, math.inf)


def test_round_trip():
    for k in range(1, 1000):
        alpha = math.pi / 3 + (math.pi / 3) * k / 1000.0
        assert angle_from_edge(S, edge_from_angle(S, alpha)) == pytest.approx(alpha, abs=1e-10)
        alpha_h = (math.pi / 3) * k / 1000.0
        assert angle_from_edge(H, edge_from_angle(H, alpha_h)) == pytest.approx(alpha_h, abs=1e-10)


def test_monotonicity():
    prev = 0.0
    for k in range(1, 1000):
        a = edge_from_angle(S, math.pi / 3 + (math.pi / 3 - 2e-9) * k / 1000.0)
        assert a > prev
        prev = a
    prev = math.inf
    for k in range(1, 1000):
        a = edge_from_angle(H, (math.pi / 3 - 1e-9) * k / 1000.0)
        assert a < prev   # edge shrinks as alpha grows toward pi/3
        prev = a


def test_limit_inverses():
    assert angle_from_edge(S, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)
    assert angle_from_edge(S, 1e-8) == pytest.approx(math.pi / 3, abs=1e-6)
    assert angle_from_edge(H, 1e-8) == pytest.approx(math.pi / 3, abs=1e-6)


def test_face_altitude():
    assert face_altitude(TetrahedronSpec(E, math.pi / 3)) == pytest.approx(
        math.sqrt(3) / 2, abs=1e-14)
    spec = TetrahedronSpec(H, math.pi / 6)
    h = face_altitude(spec)
    # independent right-triangle relation: cosh(a) = cosh(h) cosh(a/2)
    assert math.cosh(spec.edge) == pytest.approx(
        math.cosh(h) * math.cosh(spec.edge / 2), rel=1e-12)
    assert math.tanh(h) == pytest.approx(
        math.tanh(spec.edge) * math.cos(math.pi / 12), rel=1e-12)
    # alpha -> 0: tanh h -> 1
    spec = TetrahedronSpec(H, 1e-6)
    assert math.tanh(face_altitude(spec)) == pytest.approx(1.0, abs=1e-3)
    spec = TetrahedronSpec(S, math.pi / 2)
    assert face_altitude(spec) == pytest.approx(math.pi / 2, abs=1e-12)


def test_face_altitude_rejects_a_generic_spec():
    # a generic spec has no one edge: spec.edge raised AttributeError
    with pytest.raises(PreconditionFailed, match="regular"):
        face_altitude(generic_from_edges([2.0, 2.05, 1.95, 2.1, 2.0, 2.02]))


def test_generic_regular_reproduces_angles():
    a = edge_from_angle(H, math.pi / 6)
    spec = generic_from_edges([a] * 6)
    for (face, vertex), ang in spec.angles.items():
        assert ang == pytest.approx(math.pi / 6, abs=1e-12)
    assert spec.all_angles_le(math.pi / 4)
    assert spec.is_regular

    a2 = edge_from_angle(H, 0.26 * math.pi)
    spec2 = generic_from_edges([a2] * 6)
    assert not spec2.all_angles_le(math.pi / 4)


@pytest.mark.parametrize("edge", [1e-6, 1e-7, 2e-8, 0.5, 2.0, 10.0])
def test_generic_regular_angles_on_short_and_long_edges(edge):
    # (cosh b cosh c - cosh a) / (sinh b sinh c) cancels on short sides;
    # the angles must hold to rounding there too
    spec = generic_from_edges([edge] * 6)
    for ang in spec.angles.values():
        assert ang == pytest.approx(angle_from_edge(H, edge), abs=1e-12)


def test_generic_skew_angles_law_of_cosines():
    spec = generic_from_edges([2.0, 2.0, 2.0, 2.2, 2.2, 2.2])
    # independent evaluation at face (1,2,3), vertex 1: opposite side 23=2.2
    c = ((math.cosh(2.0) * math.cosh(2.0) - math.cosh(2.2))
         / (math.sinh(2.0) * math.sinh(2.0)))
    assert spec.angle((1, 2, 3), 1) == pytest.approx(math.acos(c), abs=1e-12)
    assert len(spec.angles) == 12
    assert all(a > 0 for a in spec.angles.values())


def test_generic_rejects_degenerate():
    with pytest.raises(InvalidTetrahedron):
        generic_from_edges([1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
    with pytest.raises(InvalidTetrahedron):
        generic_from_edges([1.0] * 5)


@pytest.mark.parametrize("edge", [math.nan, math.inf, math.nextafter(HYPERBOLIC_EDGE_MAX, math.inf),
                                  100.0, 400.0, 800.0, 1e-8, 1e-300])
def test_generic_rejects_edges_out_of_range(edge):
    # non-finite, past the longest representable edge, or too short for cosh to resolve
    with pytest.raises(InvalidTetrahedron):
        generic_from_edges([edge] * 6)
    with pytest.raises(InvalidTetrahedron):
        generic_from_edges([2.0] * 5 + [edge])

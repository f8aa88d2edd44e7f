"""Property tests of the rep-coordinate kernel in all three spaces."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tetrageo.errors import AmbiguousGeodesic
from tetrageo.geom import (SpaceKind, rangle, rdistance, rhalf_turn, rinterpolate,
                           rmidpoint, rpoint_at, rreflect, rtangent)

E, S, H = SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL, SpaceKind.HYPERBOLIC
SPACES = (E, S, H)
TOL = 1e-9

coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def _unit(v):
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / n, v[1] / n, v[2] / n)


def points(space):
    """Reps: plane points, unit 3-vectors, hyperboloid vectors within radius ~2.2."""
    if space == E:
        return st.tuples(coord, coord)
    if space == S:
        return st.tuples(coord, coord, coord).filter(
            lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 0.01).map(_unit)
    return st.tuples(coord, coord).map(
        lambda xy: (math.sqrt(1.0 + xy[0] * xy[0] + xy[1] * xy[1]), xy[0], xy[1]))


def apart(space, P, Q):
    """P and Q are distinct and, on the sphere, not near antipodal."""
    try:
        d = rdistance(space, P, Q)
    except AmbiguousGeodesic:
        return False
    return 1e-3 < d and (space != S or d < math.pi - 1e-3)


@pytest.mark.parametrize("space", SPACES)
@given(data=st.data())
def test_reflection_is_an_involutive_isometry(space, data):
    A, B, P, Q = (data.draw(points(space)) for _ in range(4))
    assume(apart(space, A, B) and apart(space, P, Q))
    P1 = rreflect(space, A, B, P)
    Q1 = rreflect(space, A, B, Q)
    assert rdistance(space, rreflect(space, A, B, P1), P) < TOL
    assert abs(rdistance(space, P1, Q1) - rdistance(space, P, Q)) < TOL


@pytest.mark.parametrize("space", SPACES)
@given(data=st.data())
def test_half_turn_is_an_involution_fixing_its_center(space, data):
    C, P = data.draw(points(space)), data.draw(points(space))
    assert rdistance(space, rhalf_turn(space, C, rhalf_turn(space, C, P)), P) < TOL
    assert rdistance(space, rhalf_turn(space, C, C), C) < TOL


@pytest.mark.parametrize("space", SPACES)
@given(data=st.data())
def test_exponential_map_walks_to_the_target(space, data):
    P, Q = data.draw(points(space)), data.draw(points(space))
    assume(apart(space, P, Q))
    got = rpoint_at(space, P, rtangent(space, P, Q), rdistance(space, P, Q))
    assert rdistance(space, got, Q) < TOL


@pytest.mark.parametrize("space", SPACES)
@given(data=st.data())
def test_half_interpolation_is_the_midpoint(space, data):
    P, Q = data.draw(points(space)), data.draw(points(space))
    assume(apart(space, P, Q))
    assert rdistance(space, rinterpolate(space, P, Q, 0.5), rmidpoint(space, P, Q)) < TOL


@pytest.mark.parametrize("space", SPACES)
@given(data=st.data(), frac=st.floats(0.1, 0.9))
def test_angles_at_an_interior_point_are_supplementary(space, data, frac):
    P, Q, R = (data.draw(points(space)) for _ in range(3))
    assume(apart(space, P, Q))
    X = rinterpolate(space, P, Q, frac)
    assume(apart(space, X, R))
    a = rangle(space, X, P, R)
    b = rangle(space, X, Q, R)
    # acos loses precision at 0 and pi; off the line the sum is exact to rounding
    assume(0.01 < a < math.pi - 0.01)
    assert abs(a + b - math.pi) < TOL

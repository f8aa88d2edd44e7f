"""Property tests of the rep-coordinate kernel in all three spaces.

The curved spaces share one body per operation in the curvature k; the
last tests compare each with its two one-space bodies as they were
(face_fold's ``split_*`` oracle) by repr, which tells -0.0 from 0.0.
"""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import face_fold
from tetrageo.errors import AmbiguousGeodesic
from tetrageo.geom import (SpaceKind, _kcross, _kdot, gnomonic_project, rangle, rdistance,
                           rhalf_turn, rinterpolate, rmidpoint, rpoint_at, rreflect, rside_measure,
                           rtangent)

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


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:        # the same error type, or the same value
        return type(exc).__name__


def _rounds_as_split(merged, space, *args):
    assert _outcome(merged, space, *args) == _outcome(
        getattr(face_fold, "split_" + merged.__name__), space, *args)


wide = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def wide_points(space):
    """Hyperboloid vectors out to radius ~8, or any unit 3-vectors."""
    if space == S:
        return st.tuples(wide, wide, wide).filter(
            lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 0.01).map(_unit)
    return st.tuples(wide, wide).map(
        lambda xy: (math.sqrt(1.0 + xy[0] * xy[0] + xy[1] * xy[1]), xy[0], xy[1]))


@given(u=st.tuples(wide, wide, wide), v=st.tuples(wide, wide, wide))
def test_helpers_round_as_split(u, v):
    for k, dot, cross in ((1.0, face_fold._dot3, face_fold._cross3),
                          (-1.0, face_fold._mdot, face_fold._mcross)):
        assert repr(_kdot(k, u, v)) == repr(dot(u, v))
        assert repr(_kcross(k, u, v)) == repr(cross(u, v))


@pytest.mark.parametrize("space", (S, H))
@given(data=st.data())
def test_two_point_bodies_round_as_split(space, data):
    P, Q = data.draw(wide_points(space)), data.draw(wide_points(space))
    for merged in (rdistance, rmidpoint, rhalf_turn):
        _rounds_as_split(merged, space, P, Q)
    # where P and Q span no line the merged tangent raises AmbiguousGeodesic (test_geom)
    if apart(space, P, Q):
        _rounds_as_split(rtangent, space, P, Q)


@pytest.mark.parametrize("space", (S, H))
@given(data=st.data())
def test_three_point_bodies_round_as_split(space, data):
    A, B, P = (data.draw(wide_points(space)) for _ in range(3))
    _rounds_as_split(rside_measure, space, A, B, P)
    if apart(space, A, B):
        _rounds_as_split(rreflect, space, A, B, P)
    if apart(space, A, B) and apart(space, A, P):
        _rounds_as_split(rangle, space, A, B, P)


@pytest.mark.parametrize("space", (S, H))
@given(data=st.data(), tangent=st.tuples(wide, wide, wide), dist=st.floats(0.0, 20.0))
def test_exponential_map_rounds_as_split(space, data, tangent, dist):
    _rounds_as_split(rpoint_at, space, data.draw(wide_points(space)), tangent, dist)


@given(p=wide_points(S), t=wide_points(S))
def test_gnomonic_projection_rounds_as_split(p, t):
    assert _outcome(gnomonic_project, p, t) == _outcome(face_fold.split_gnomonic_project, p, t)

"""Geometry kernel: distances, orientation, reflections, projections."""

import math
import random

import pytest

from tetrageo.errors import AmbiguousGeodesic, OutOfHemisphere
from tetrageo.geom import (SpaceKind, Segment2, Side, distance, gnomonic_project,
                           projected_angle_pair, rangle, reflect_across, rep_point,
                           rinterpolate, rpoint_seg_dist, rreflect, rtangent, side_of)

E, S, H = SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL, SpaceKind.HYPERBOLIC


def rand_point(rng, space):
    if space == E:
        return (rng.uniform(-2, 2), rng.uniform(-2, 2))
    if space == S:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(sum(c * c for c in v))
        return (v[0] / n, v[1] / n, v[2] / n)
    r = math.sqrt(rng.uniform(0, 0.92))
    phi = rng.uniform(0, 2 * math.pi)
    return (r * math.cos(phi), r * math.sin(phi))


def test_distance_examples():
    assert distance(E, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0, abs=1e-14)
    assert distance(S, (1, 0, 0), (0, 1, 0)) == pytest.approx(math.pi / 2, abs=1e-14)
    # Klein-disk value is artanh(0.5), evaluated independently as 0.5 ln 3
    assert distance(H, (0.0, 0.0), (0.5, 0.0)) == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
    assert distance(H, (0.0, 0.0), (0.5, 0.0)) == pytest.approx(0.549306144334054845, abs=1e-12)


def test_distance_symmetry_and_zero():
    rng = random.Random(7)
    for space in (E, S, H):
        for _ in range(50):
            p = rand_point(rng, space)
            q = rand_point(rng, space)
            assert distance(space, p, q) == pytest.approx(distance(space, q, p), abs=1e-12)
            assert distance(space, p, p) < 1e-12


def test_antipodal_is_ambiguous():
    with pytest.raises(AmbiguousGeodesic):
        distance(S, (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))


def test_side_of_examples():
    assert side_of(E, Segment2((0, 0), (1, 0), E), (0.5, 1.0)) is Side.LEFT
    assert side_of(S, Segment2((1, 0, 0), (0, 1, 0), S), (0, 0, 1)) is Side.LEFT
    assert side_of(H, Segment2((-0.5, 0), (0.5, 0), H), (0.0, -0.1)) is Side.RIGHT
    assert side_of(E, Segment2((0, 0), (1, 0), E), (0.5, 0.0)) is Side.ON


def test_reflect_examples():
    assert reflect_across(E, Segment2((0, 0), (1, 0), E), (0.0, 1.0)) == pytest.approx((0.0, -1.0))
    got = reflect_across(S, Segment2((1, 0, 0), (0, 1, 0), S), (0.0, 0.0, 1.0))
    assert got == pytest.approx((0.0, 0.0, -1.0), abs=1e-14)
    got = reflect_across(H, Segment2((-0.5, 0), (0.5, 0), H), (0.0, 0.3))
    assert got == pytest.approx((0.0, -0.3), abs=1e-14)


def test_reflection_involution_and_isometry():
    rng = random.Random(42)
    for space in (E, S, H):
        for _ in range(200):
            a, b = rand_point(rng, space), rand_point(rng, space)
            if distance(space, a, b) < 1e-6:
                continue
            seg = Segment2(a, b, space)
            p, q = rand_point(rng, space), rand_point(rng, space)
            p1 = reflect_across(space, seg, p)
            q1 = reflect_across(space, seg, q)
            assert distance(space, reflect_across(space, seg, p1), p) < 1e-10
            assert abs(distance(space, p1, q1) - distance(space, p, q)) < 1e-10


def test_reflection_flips_side():
    rng = random.Random(3)
    for space in (E, S, H):
        for _ in range(100):
            a, b = rand_point(rng, space), rand_point(rng, space)
            if distance(space, a, b) < 1e-3:
                continue
            seg = Segment2(a, b, space)
            p = rand_point(rng, space)
            s0 = side_of(space, seg, p, tol=1e-9)
            s1 = side_of(space, seg, reflect_across(space, seg, p), tol=1e-9)
            if s0 is Side.ON or s1 is Side.ON:
                continue
            assert {s0, s1} == {Side.LEFT, Side.RIGHT}


def test_gnomonic_fixed_point_and_radius():
    t = (0.0, 0.0, 1.0)
    assert gnomonic_project(t, t) == pytest.approx((0.0, 0.0), abs=1e-15)
    r = 0.7
    p = (math.sin(r), 0.0, math.cos(r))
    u, v = gnomonic_project(p, t)
    assert math.hypot(u, v) == pytest.approx(math.tan(r), abs=1e-12)


# three distinct chart points per space, no two of them antipodal
POINTS = {E: ((0.3, -0.2), (0.1, 0.4), (-0.5, 0.7)),
          S: ((0.6, 0.0, 0.8), (0.0, 1.0, 0.0), (0.0, 0.6, -0.8)),
          H: ((0.3, -0.2), (0.1, 0.4), (-0.5, 0.7))}


@pytest.mark.parametrize("space", (E, S, H))
def test_a_segment_with_coincident_ends_spans_no_geodesic(space):
    a, b, _ = POINTS[space]
    for call in (side_of, reflect_across):
        with pytest.raises(AmbiguousGeodesic):
            call(space, Segment2(a, a, space), b)


@pytest.mark.parametrize("space", (S, H))
def test_rep_kernel_rejects_coincident_and_antipodal_reps(space):
    # the tangent was a normalized floored vector, (0, 0, 0) or the point itself,
    # rangle read an angle off it, and rreflect reflected across a zero normal
    A, B, _ = (rep_point(space, p) for p in POINTS[space])
    degenerate = [A] + ([tuple(-x for x in A)] if space == S else [])
    for D in degenerate:
        for call, args in ((rtangent, (A, D)), (rangle, (A, D, B)), (rangle, (A, B, D)),
                           (rreflect, (A, D, B))):
            with pytest.raises(AmbiguousGeodesic):
                call(space, *args)
    # a distinct point however near is a direction
    near = rinterpolate(space, A, B, 1e-9)
    assert max(map(abs, map(float.__sub__, rtangent(space, A, near), rtangent(space, A, B)))) < 1e-6


def test_a_spherical_segment_with_antipodal_ends_spans_no_geodesic():
    a, b, _ = POINTS[S]
    for call in (side_of, reflect_across):
        with pytest.raises(AmbiguousGeodesic):
            call(S, Segment2(a, tuple(-x for x in a), S), b)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("space", (E, S, H))
def test_chart_wrappers_reject_non_finite_points(space, bad):
    a, b, c = POINTS[space]
    x = (bad,) + a[1:]
    for p, q in ((x, b), (a, x)):
        with pytest.raises(ValueError):
            distance(space, p, q)
    for seg, p in ((Segment2(x, b, space), c), (Segment2(a, x, space), c),
                   (Segment2(a, b, space), x)):
        for call in (side_of, reflect_across):
            with pytest.raises(ValueError):
                call(space, seg, p)


def _rejects(space, bad):
    """Every chart wrapper rejects the point bad, in each of its places."""
    a, b, c = POINTS[space]
    for p, q in ((bad, b), (a, bad)):
        with pytest.raises(ValueError):
            distance(space, p, q)
    for seg, p in ((Segment2(bad, b, space), c), (Segment2(a, bad, space), c),
                   (Segment2(a, b, space), bad)):
        for call in (side_of, reflect_across):
            with pytest.raises(ValueError):
                call(space, seg, p)


@pytest.mark.parametrize("bad", [(2.0, 0.0), (1.0, 0.0), (0.6, -0.8), (1e200, 0.0)])
def test_chart_wrappers_reject_points_off_the_klein_disk(bad):
    # a point on or past the rim was clamped onto it: distance(H, (2, 0), (0, 0)) read 16.465
    _rejects(H, bad)


@pytest.mark.parametrize("space,bad", [(S, (1e300, 0.0)), (S, (0.6, 0.0, 0.8, 0.0)),
                                       (E, (0.3, -0.2, 0.0)), (H, (0.3,)), (H, (0.1, 0.2, 0.0))])
def test_chart_wrappers_reject_the_wrong_number_of_coordinates(space, bad):
    # on S a two-coordinate point raised IndexError
    _rejects(space, bad)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_side_of_rejects_an_unusable_tolerance(tol):
    # a NaN tolerance read as 0 (abs(m) < nan is false), as symmetry_check's once did
    with pytest.raises(ValueError, match="tol"):
        side_of(E, Segment2((0, 0), (1, 0), E), (0.5, 1.0), tol=tol)


def test_a_plane_segment_whose_squared_length_underflows_spans_no_geodesic():
    # ends 1e-200 apart: reflect_across divided by zero and side_of answered ON
    seg = Segment2((0.0, 0.0), (1e-200, 0.0), E)
    for call in (side_of, reflect_across):
        with pytest.raises(AmbiguousGeodesic):
            call(E, seg, (0.5, 0.5))
    assert reflect_across(E, Segment2((0.0, 0.0), (1e-150, 0.0), E), (0.5, 0.5)) == (0.5, -0.5)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_gnomonic_rejects_non_finite_points(bad):
    a, b, _ = POINTS[S]
    x = (bad,) + a[1:]
    for p, t in ((x, b), (b, x)):
        with pytest.raises(ValueError):
            gnomonic_project(p, t)


def test_gnomonic_out_of_hemisphere():
    with pytest.raises(OutOfHemisphere):
        gnomonic_project((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
    with pytest.raises(OutOfHemisphere):
        gnomonic_project((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def test_gnomonic_collinearity():
    rng = random.Random(11)
    t = (0.0, 0.0, 1.0)
    for _ in range(200):
        # three points on one great circle inside the upper hemisphere
        phi = rng.uniform(0, 2 * math.pi)
        axis = (math.cos(phi), math.sin(phi), 0.0)
        angs = sorted(rng.uniform(-1.2, 1.2) for _ in range(3))
        pts = []
        for ang in angs:
            c, s = math.cos(ang), math.sin(ang)
            base = (-axis[1], axis[0], 0.0)
            up = (0.0, 0.0, 1.0)
            pts.append((c * up[0] + s * base[0], c * up[1] + s * base[1],
                        c * up[2] + s * base[2]))
        ps = [gnomonic_project(p, t) for p in pts]
        (x1, y1), (x2, y2), (x3, y3) = ps
        area = abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
        scale = max(1.0, max(abs(c) for p in ps for c in p)) ** 2
        assert area / scale < 1e-9


def test_gnomonic_arc_length_bound():
    # image of a unit arc from polar distance r is at most
    # R sin(1/R) / (cos(r/R) cos((r+1)/R)), checked over random directions
    rng = random.Random(5)
    for _ in range(100):
        R = rng.uniform(2.5, 40.0)
        r = rng.uniform(0.0, 0.9 * (math.pi / 2 * R - 1.0))
        if (r + 1.0) / R >= math.pi / 2:
            continue
        t = (0.0, 0.0, 1.0)
        p = (math.sin(r / R), 0.0, math.cos(r / R))
        bound = R * math.sin(1.0 / R) / (math.cos(r / R) * math.cos((r + 1.0) / R))
        for _ in range(12):
            psi_dir = rng.uniform(0, 2 * math.pi)
            east = (math.cos(r / R), 0.0, -math.sin(r / R))
            north = (0.0, 1.0, 0.0)
            d = (math.cos(psi_dir) * east[0] + math.sin(psi_dir) * north[0],
                 math.cos(psi_dir) * east[1] + math.sin(psi_dir) * north[1],
                 math.cos(psi_dir) * east[2] + math.sin(psi_dir) * north[2])
            ang = 1.0 / R
            q = tuple(math.cos(ang) * p[i] + math.sin(ang) * d[i] for i in range(3))
            if q[2] <= 1e-9:
                continue
            pu = gnomonic_project(p, t)
            qu = gnomonic_project(q, t)
            length = R * math.hypot(qu[0] - pu[0], qu[1] - pu[1])
            assert length <= bound + 1e-9


def test_projected_angle_formula_matches_3d():
    # Eq-based angle equals the explicit plane-trace computation
    rng = random.Random(23)
    for _ in range(100):
        rr = rng.uniform(0.0, 1.2)
        a1 = rng.uniform(-0.99, 0.99)
        a2 = rng.uniform(-0.99, 0.99)
        alpha, alpha_hat = projected_angle_pair(rr, a1, a2)
        n1 = (a1 * math.cos(rr), math.sqrt(1 - a1 * a1), a1 * math.sin(rr))
        n2 = (a2 * math.cos(rr), math.sqrt(1 - a2 * a2), a2 * math.sin(rr))
        d1 = (n1[1], -n1[0])
        d2 = (n2[1], -n2[0])
        dot = d1[0] * d2[0] + d1[1] * d2[1]
        nrm = math.hypot(*d1) * math.hypot(*d2)
        assert alpha_hat == pytest.approx(math.acos(max(-1, min(1, dot / nrm))), abs=1e-10)


def projected_angle_bound_check(r, R, alpha, samples=32):
    """Check |alpha_hat_r - pi/3| < pi tan^2(r/R) + eps over a plane-pencil sample.

    alpha must be pi/3 + eps with eps in (0, pi/6); r/R < pi/2.
    """
    rr = r / R
    assert rr < math.pi / 2
    eps = alpha - math.pi / 3
    bound = math.pi * math.tan(rr) ** 2 + eps
    if rr == 0.0:
        return True  # projection is the identity on directions at the pole
    # a_i = cos(phi_i) with phi1 - phi2 = +-alpha keeps the plane angle at alpha
    for k in range(samples):
        phi1 = (k + 0.5) * math.pi / samples
        for phi2 in (phi1 + alpha, phi1 - alpha):
            got_alpha, got_hat = projected_angle_pair(rr, math.cos(phi1), math.cos(phi2))
            if abs(got_alpha - alpha) > 1e-9:
                continue  # pencil member folded past the angle range
            if abs(got_hat - math.pi / 3) >= bound:
                return False
    return True


def test_projected_angle_bound_check_examples():
    assert projected_angle_bound_check(0.0, 1.0, math.pi / 3 + 0.01)
    assert projected_angle_bound_check(0.1, 1.0, math.pi / 3 + 0.01)
    assert projected_angle_bound_check(0.3, 1.0, math.pi / 3 + 0.05)


def _segment_distance(space, a, b, p):
    return rpoint_seg_dist(space, *(rep_point(space, x) for x in (p, a, b)))


def test_point_to_segment_distance():
    assert _segment_distance(E, (0.0, 0.0), (1.0, 0.0), (0.5, 0.4)) == pytest.approx(0.4)
    assert _segment_distance(E, (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)) == pytest.approx(1.0)
    d = _segment_distance(S, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert d == pytest.approx(math.pi / 2, abs=1e-12)
    d = _segment_distance(H, (-0.5, 0.0), (0.5, 0.0), (0.0, 0.3))
    assert d == pytest.approx(math.atanh(0.3), abs=1e-12)

"""Existence bounds, thresholds, abstract curve length, verdicts."""

import math

import pytest

from conftest import coprime_types
from tetrageo.combinat import GeodesicType
from tetrageo.errors import BoundDegenerate, BoundVacuous, NoThreshold
from tetrageo.existence import (abstract_shortest_curve_length,
                                edge_sufficient_bound, exists_geodesic,
                                hyperbolic_clearance_bound,
                                hyperbolic_length_lower_bound,
                                necessary_alpha_bound, sufficient_epsilon_bound,
                                threshold_beta)
from tetrageo.geom import SpaceKind
from tetrageo.paths import midpoint_geodesic, GeodesicPath
from tetrageo.tetra import TetrahedronSpec, angle_from_edge

S = SpaceKind.SPHERICAL


def test_necessary_bound_values():
    # 2 asin sqrt(7/(28-pi^2)), frozen from a 30-digit independent evaluation
    assert necessary_alpha_bound(GeodesicType(1, 2)) == pytest.approx(
        1.3409621366164460, abs=1e-12)
    # the rounded variant 2 asin sqrt(7/18) is close but not equal
    rounded = 2 * math.asin(math.sqrt(7.0 / 18.0))
    assert abs(necessary_alpha_bound(GeodesicType(1, 2)) - rounded) < 0.01
    for pq in [(0, 1), (1, 1)]:
        with pytest.raises(BoundVacuous):
            necessary_alpha_bound(GeodesicType(*pq))


def test_necessary_bound_limit():
    prev = math.inf
    for n in (5, 10, 50, 200, 1000):
        val = necessary_alpha_bound(GeodesicType(1, n))
        assert val < prev
        prev = val
    assert val == pytest.approx(math.pi / 3, abs=2e-3)


def test_sufficient_bound_structure():
    for pq in [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (2, 5)]:
        if sum(pq) <= 6:
            with pytest.raises(BoundDegenerate):
                sufficient_epsilon_bound(GeodesicType(*pq))
    eb = sufficient_epsilon_bound(GeodesicType(3, 4))
    assert 0 < eb.epsilon <= eb.hemisphere_term
    assert eb.epsilon == min(eb.geometric_term, eb.hemisphere_term)
    assert eb.c0 > 0
    assert eb.epsilon_alt is not None and eb.epsilon_alt > eb.epsilon
    # hemisphere cap term for p+q = 3: 1/(8 cos(pi/12) * 9)
    assert 1.0 / (8.0 * math.cos(math.pi / 12) * 9.0) == pytest.approx(
        0.014378835839028931, abs=1e-12)


def test_sufficient_bound_constants_oracle():
    # re-evaluate the constants independently before trusting the composition
    t = GeodesicType(3, 4)
    n = 7
    top = n // 2 + 2
    cos12 = math.cos(math.pi / 12)
    tan2 = [math.tan(math.pi * i / (2 * n)) ** 2 for i in range(top + 1)]
    c_l = [cos12 * n * n * (4 + math.pi ** 2 * (2 * i + 1) ** 2) / (n - i - 1) ** 2
           for i in range(top + 1)]
    c_a = [4 * (8 * math.pi * n * n * cos12 * tan2[j] + 1) for j in range(top + 1)]
    total = sum(c_l[i] + sum(c_a[:i + 1]) for i in range(top + 1))
    num = 3 - (n + 2) / (math.pi * cos12 * n * n) - 16 * sum(tan2)
    den = 1 - (n + 2) / (2 * math.pi * cos12 * n * n) - 8 * sum(tan2)
    c0 = num / den
    geometric = math.sqrt(3) / (4 * c0 * math.sqrt(t.norm) * total)
    eb = sufficient_epsilon_bound(t)
    assert eb.c0 == pytest.approx(c0, rel=1e-12)
    assert eb.sum_terms == pytest.approx(total, rel=1e-12)
    assert eb.geometric_term == pytest.approx(geometric, rel=1e-12)


def test_sufficiency_consistency():
    # construction succeeds below pi/3 + eps*
    for pq in [(3, 4), (1, 6)]:
        t = GeodesicType(*pq)
        eps = sufficient_epsilon_bound(t).epsilon
        spec = TetrahedronSpec(S, math.pi / 3 + eps / 2)
        assert isinstance(midpoint_geodesic(spec, t), GeodesicPath)


def test_edge_sufficient_bound():
    # 2 asin(pi / (1 + sqrt(1 + 2 pi^2))) evaluated independently
    assert edge_sufficient_bound(GeodesicType(0, 1)) == pytest.approx(
        1.2024225909448557, abs=1e-12)
    assert edge_sufficient_bound(GeodesicType(1, 2)) < edge_sufficient_bound(
        GeodesicType(0, 1))
    # construct at half the bound edge
    t = GeodesicType(1, 2)
    alpha = angle_from_edge(S, edge_sufficient_bound(t) / 2)
    assert isinstance(midpoint_geodesic(TetrahedronSpec(S, alpha), t), GeodesicPath)
    # and just below the bound itself
    alpha = angle_from_edge(S, edge_sufficient_bound(t) * (1 - 1e-6))
    v = exists_geodesic(TetrahedronSpec(S, alpha), t)
    assert v.outcome == "exists"


def test_hyperbolic_bounds():
    assert hyperbolic_clearance_bound(1e-15) == pytest.approx(
        math.log(1 + math.sqrt(2)), abs=1e-12)
    assert hyperbolic_clearance_bound(math.pi / 3 - 1e-9) == pytest.approx(0.0, abs=1e-9)
    got = hyperbolic_length_lower_bound(math.pi / 6, GeodesicType(1, 2))
    assert got == pytest.approx(6 * math.log(1 + math.sqrt(3)), abs=1e-12)


def test_exists_verdicts():
    assert exists_geodesic(TetrahedronSpec(S, 0.6 * math.pi), GeodesicType(0, 1)).exists
    v = exists_geodesic(TetrahedronSpec(S, 0.55 * math.pi), GeodesicType(1, 1))
    assert v.outcome == "not_exists"
    v = exists_geodesic(TetrahedronSpec(S, 1.40), GeodesicType(1, 2))
    assert v.outcome == "not_exists"
    assert v.alpha2 == pytest.approx(1.3409621366164460, abs=1e-12)


def test_threshold_values():
    with pytest.raises(NoThreshold):
        threshold_beta(GeodesicType(0, 1))
    res = threshold_beta(GeodesicType(1, 1), tol=1e-6)
    assert abs(res.beta - math.pi / 2) < 2e-6
    res12 = threshold_beta(GeodesicType(1, 2), tol=1e-6)
    assert math.pi / 3 < res12.beta < necessary_alpha_bound(GeodesicType(1, 2))


def test_threshold_rejects_nonfinite_tol():
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            threshold_beta(GeodesicType(1, 1), tol=tol)


def test_threshold_tol_below_float_spacing():
    # the bisection ends once lo and hi are adjacent floats
    res = threshold_beta(GeodesicType(1, 1), tol=1e-300)
    assert 0.0 < res.hi - res.lo <= 2.0 * math.ulp(res.lo)


def test_abstract_length_below_threshold_equals_geodesic():
    spec = TetrahedronSpec(S, 1.2)
    t = GeodesicType(1, 1)
    path = midpoint_geodesic(spec, t)
    L = abstract_shortest_curve_length(spec, t)
    assert L == pytest.approx(path.total_length, abs=1e-10)
    assert L < 2 * math.pi


def test_abstract_length_digon():
    beta = threshold_beta(GeodesicType(1, 1), tol=1e-6).beta
    for da in (-1e-4, 1e-4):
        L = abstract_shortest_curve_length(TetrahedronSpec(S, beta + da), GeodesicType(1, 1))
        assert abs(L - 2 * math.pi) < 1e-3


def test_abstract_length_monotone():
    t = GeodesicType(1, 1)
    prev = 0.0
    for alpha in (1.1, 1.25, 1.4, 1.55, 1.62, 1.75):
        L = abstract_shortest_curve_length(TetrahedronSpec(S, alpha), t)
        assert L > prev
        prev = L


def test_threshold_touching_witnesses():
    # just below beta the minimal margin is attained at four crossings whose
    # near endpoints are the four tetrahedron vertices, on alternating sides
    # of the chord
    from tetrageo.geom import rside_measure
    from face_fold import _rep_segments

    t = GeodesicType(1, 2)
    beta = threshold_beta(t, tol=1e-6).beta
    path = midpoint_geodesic(TetrahedronSpec(S, beta - 5e-6), t)
    assert isinstance(path, GeodesicPath)
    margins = [min(f, 1 - f) for f in path.fractions]
    m = min(margins)
    idxs = [i for i, v in enumerate(margins) if v < m * 1.5 + 1e-9]
    assert len(idxs) == 4

    spec = TetrahedronSpec(S, beta - 5e-6)
    segs = _rep_segments(spec, path.tokens, path.fractions)
    touched = []
    sides = []
    for i in idxs:
        tok = path.tokens[i]
        near = int(tok[0]) if path.fractions[i] < 0.5 else int(tok[1])
        touched.append(near)
        labels, pts, p_in, p_out = segs[i]
        sides.append(rside_measure(S, p_in, p_out, pts[near]) > 0)
    assert sorted(touched) == [1, 2, 3, 4]
    assert sides in ([True, False, True, False], [False, True, False, True])


def test_sandwich_small():
    for pq in [(3, 4), (1, 6), (2, 5)]:
        t = GeodesicType(*pq)
        eps = sufficient_epsilon_bound(t).epsilon
        a2 = necessary_alpha_bound(t)
        beta = threshold_beta(t, tol=1e-5).beta
        assert math.pi / 3 + eps <= beta <= a2 + 1e-5


def test_necessity_random():
    # 100 random (type, alpha) with alpha above the necessary bound: no geodesic
    import random
    rng = random.Random(404)
    types = [pq for pq in coprime_types(12) if sum(pq) >= 3]
    for _ in range(100):
        p, q = rng.choice(types)
        t = GeodesicType(p, q)
        a2 = necessary_alpha_bound(t)
        alpha = rng.uniform(a2 * 1.000001, 2 * math.pi / 3 - 1e-6)
        v = exists_geodesic(TetrahedronSpec(S, alpha), t)
        assert v.outcome == "not_exists", (p, q, alpha)


def test_sufficiency_random():
    # 100 random (type, alpha) below pi/3 + eps*: the geodesic exists
    import random
    rng = random.Random(808)
    types = [pq for pq in coprime_types(10, min_sum=7)]
    for _ in range(100):
        p, q = rng.choice(types)
        t = GeodesicType(p, q)
        eps = sufficient_epsilon_bound(t).epsilon
        alpha = math.pi / 3 + rng.uniform(0.05, 0.999) * eps
        if alpha == math.pi / 3:
            continue
        v = exists_geodesic(TetrahedronSpec(S, alpha), t)
        assert v.outcome == "exists", (p, q, alpha)


def test_finiteness_toward_pi_third():
    # alpha2 decreases strictly with the norm and tends to pi/3, so for any
    # fixed alpha above pi/3 only finitely many types can carry a geodesic
    norms = []
    for pq in coprime_types(40, min_sum=3):
        t = GeodesicType(*pq)
        norms.append((t.norm, necessary_alpha_bound(t)))
    norms.sort()
    for (n1, a1), (n2, a2) in zip(norms, norms[1:]):
        if n1 != n2:
            assert a2 < a1
    # decay rate is ~1.425/norm; the largest p+q <= 40 norm is 1561
    assert norms[-1][1] - math.pi / 3 < 1e-3
    alpha_star = 1.2
    admissible = [n for n, a in norms if a > alpha_star]
    assert len(admissible) <= 6
    # spot-check: a type outside the admissible set has no geodesic at alpha*
    big = GeodesicType(3, 5)
    assert necessary_alpha_bound(big) < alpha_star
    assert exists_geodesic(TetrahedronSpec(S, alpha_star), big).outcome == "not_exists"


def test_undetermined_band_at_threshold():
    # within ~1e-9 of the containment boundary the verdict is undetermined
    # rather than a forced call; away from it the verdict is sharp
    t = GeodesicType(1, 1)
    v = exists_geodesic(TetrahedronSpec(S, math.pi / 2), t)
    assert v.outcome == "undetermined"
    v = exists_geodesic(TetrahedronSpec(S, math.pi / 2 - 1e-6), t)
    assert v.outcome == "exists"
    v = exists_geodesic(TetrahedronSpec(S, math.pi / 2 + 1e-6), t)
    assert v.outcome == "not_exists"


def test_abstract_length_above_threshold_12():
    # the taut string wraps the blocking vertices for a longer type as well
    t = GeodesicType(1, 2)
    beta = threshold_beta(t, tol=1e-5).beta
    L = abstract_shortest_curve_length(TetrahedronSpec(S, beta + 0.02), t)
    assert L > 2 * math.pi
    L2 = abstract_shortest_curve_length(TetrahedronSpec(S, beta + 0.05), t)
    assert L2 > L


# abstract shortest curve lengths frozen from the Gauss-Seidel taut string
# that the Newton chord solve replaced; the solve may only come out shorter,
# by less than 1e-6
TAUT_STRING_LENGTHS = [
    ((1, 4), 7, 6.480958987055651),
    ((2, 3), 8, 6.581869813520593),
    ((1, 3), 11, 6.331538296488243),
    ((1, 3), 12, 6.595941213103963),
    ((1, 2), 21, 6.329247094381984),
    ((1, 2), 22, 6.463637455409231),
    ((1, 2), 23, 6.594367613400218),
    ((1, 2), 24, 6.721671089350316),
    ((1, 2), 25, 6.845758085193256),
    ((1, 2), 26, 6.9668186590872025),
    ((1, 2), 27, 7.085025384239954),
    ((1, 2), 28, 7.200535490280333),
    ((1, 2), 29, 7.313492757723947),
    ((1, 2), 1.9, 10.905610894748378),
    ((2, 3), 1.5, 14.762145667122956),
    ((3, 4), 1.3, 15.749417334880622),
    ((2, 5), 1.25, 14.556869278090996),
    ((1, 6), 1.6, 22.38839727586189),
]


def _grid_alpha(k):
    """Angle k of the verdict grid, computed as the benchmark grid computes it."""
    return 1.05 + 0.01 * k


@pytest.mark.parametrize("pq, where, frozen", TAUT_STRING_LENGTHS)
def test_abstract_length_against_taut_string(pq, where, frozen):
    # an int is a grid index, a float a literal angle
    alpha = _grid_alpha(where) if isinstance(where, int) else where
    L = abstract_shortest_curve_length(TetrahedronSpec(S, alpha), GeodesicType(*pq))
    assert L <= frozen + 1e-12
    assert frozen - L < 1e-6


def test_exact_criterion_on_verdict_grid():
    # the paper's exact criterion: a type-(p,q) geodesic exists iff the
    # abstract shortest curve is shorter than 2 pi; and the curve lengthens
    # as the angle grows
    for p, q in coprime_types(7):
        t = GeodesicType(p, q)
        prev = 0.0
        for k in range(36):
            spec = TetrahedronSpec(S, _grid_alpha(k))
            L = abstract_shortest_curve_length(spec, t)
            assert (L < 2 * math.pi) == (exists_geodesic(spec, t).outcome == "exists"), (p, q, k)
            assert L > prev, (p, q, k)
            prev = L


def test_verdict_builds_the_midpoint_chord_once(monkeypatch):
    # a verdict that reaches the length criterion reuses the chord it built
    import tetrageo.existence as existence_mod
    calls = []

    def counted(spec, t):
        calls.append(t)
        return midpoint_geodesic(spec, t)

    monkeypatch.setattr(existence_mod, "midpoint_geodesic", counted)
    t = GeodesicType(1, 2)
    spec = TetrahedronSpec(SpaceKind.SPHERICAL, 1.3)
    verdict = exists_geodesic(spec, t)
    assert verdict.outcome == "not_exists" and "abstract shortest curve" in verdict.reason
    assert len(calls) == 1
    assert abstract_shortest_curve_length(spec, t) >= 2 * math.pi - 1e-9

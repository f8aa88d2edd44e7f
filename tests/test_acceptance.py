"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances and runtime budgets are pinned here and nowhere else; the suite
is the exit gate for the package.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from conftest import coprime_types, subprocess_env
from tetrageo.combinat import GeodesicType
from tetrageo.counting import count_exact, psi, psi_bruteforce, totient_sum
from tetrageo.errors import TooLong
from tetrageo.existence import (abstract_shortest_curve_length,
                                hyperbolic_clearance_bound,
                                hyperbolic_length_lower_bound,
                                necessary_alpha_bound, sufficient_epsilon_bound,
                                threshold_beta)
from tetrageo.errors import BoundDegenerate, BoundVacuous
from tetrageo.geom import SpaceKind, projected_angle_pair
from tetrageo.paths import (GeodesicPath, NotContained, euclid_geodesic,
                            generic_hyperbolic_geodesic, midpoint_geodesic)
from tetrageo.tetra import TetrahedronSpec, edge_from_angle, generic_from_edges

E, S, H = SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL, SpaceKind.HYPERBOLIC


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def euclid_paths():
    t0 = time.monotonic()
    paths = {pq: euclid_geodesic(GeodesicType(*pq)) for pq in coprime_types(30)}
    return paths, time.monotonic() - t0


def test_criterion_01_euclid_length_law(euclid_paths):
    paths, elapsed = euclid_paths
    worst = 0.0
    for (p, q), path in paths.items():
        t = GeodesicType(p, q)
        worst = max(worst, abs(path.total_length - 2.0 * math.sqrt(t.norm)))
        assert path.closed, (p, q)
        assert path.simple, (p, q)
        n = len(path.crossings)
        # midpoints of two opposite-edge pairs: the four symmetry crossings
        mids = [path.crossings[i] for i in (0, n // 4, n // 2, 3 * n // 4)]
        pairs = {frozenset((tok, tok)) for tok, _ in mids}
        for tok, f in mids:
            assert abs(f - 0.5) < 1e-12
        toks = [tok for tok, _ in mids]
        assert len(set(toks)) == 4   # four distinct edges = two opposite pairs
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, f"{len(paths)} types p+q<=30, max |L - 2 sqrt(N)| = {worst:.2e}, "
               f"construction time {elapsed:.2f}s < 10s")


def test_criterion_02_euclid_clearance(euclid_paths):
    paths, _ = euclid_paths
    worst_deficit = -math.inf
    for (p, q), path in paths.items():
        bound = math.sqrt(3.0) / (4.0 * math.sqrt(GeodesicType(p, q).norm))
        worst_deficit = max(worst_deficit, bound - path.clearance)
    assert worst_deficit < 1e-12
    _report(2, f"clearance >= sqrt(3)/(4 sqrt(N)) - 1e-12, worst deficit "
               f"{worst_deficit:.2e}")


def test_criterion_03_spherical_base_cases():
    lo, hi = math.pi / 3 + 1e-3, 2 * math.pi / 3 - 1e-3
    lengths = []
    for k in range(50):
        alpha = lo + (hi - lo) * k / 49.0
        path = midpoint_geodesic(TetrahedronSpec(S, alpha), GeodesicType(0, 1))
        assert isinstance(path, GeodesicPath), f"(0,1) must exist at alpha={alpha}"
        lengths.append(path.total_length)
    for k in range(25):
        alpha = (math.pi / 3 + 1e-3) + (math.pi / 2 - math.pi / 3 - 2e-3) * k / 24.0
        path = midpoint_geodesic(TetrahedronSpec(S, alpha), GeodesicType(1, 1))
        assert isinstance(path, GeodesicPath), f"(1,1) must exist at alpha={alpha}"
        lengths.append(path.total_length)
    for k in range(25):
        alpha = (math.pi / 2 + 1e-3) + (2 * math.pi / 3 - math.pi / 2 - 2e-3) * k / 24.0
        try:
            res = midpoint_geodesic(TetrahedronSpec(S, alpha), GeodesicType(1, 1))
            assert isinstance(res, NotContained), f"(1,1) must fail at alpha={alpha}"
        except TooLong:
            pass
    assert all(L < 2 * math.pi - 1e-6 for L in lengths)
    _report(3, f"(0,1) exists on 50-point grid, (1,1) splits at pi/2, "
               f"max length {max(lengths):.6f} < 2 pi - 1e-6")


def test_criterion_04_spherical_sandwich():
    t0 = time.monotonic()
    rows = []
    for p, q in coprime_types(8, min_sum=2):
        t = GeodesicType(p, q)
        try:
            a2 = necessary_alpha_bound(t)
        except BoundVacuous:
            continue
        beta = threshold_beta(t, tol=1e-6).beta
        assert beta <= a2 + 2e-6, (p, q, beta, a2)
        try:
            eps = sufficient_epsilon_bound(t).epsilon
        except BoundDegenerate:
            eps = None
        if eps is not None:
            assert math.pi / 3 + eps <= beta, (p, q)
        rows.append((p, q, beta, a2, eps))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    both = sum(1 for r in rows if r[4] is not None)
    _report(4, f"{len(rows)} types with alpha2 defined, {both} with eps* too; "
               f"pi/3 + eps* <= beta <= alpha2 at tol 1e-6 in {elapsed:.1f}s < 5min")


def test_criterion_05_threshold_digon():
    beta = threshold_beta(GeodesicType(1, 1), tol=1e-6).beta
    worst = 0.0
    for da in (-1e-4, 1e-4):
        L = abstract_shortest_curve_length(TetrahedronSpec(S, beta + da),
                                           GeodesicType(1, 1))
        worst = max(worst, abs(L - 2 * math.pi))
    assert worst < 5e-3
    _report(5, f"abstract curve length at beta(1,1) +- 1e-4 is 2 pi "
               f"within {worst:.2e} < 5e-3")


def test_criterion_06_midpoint_law():
    worst = 0.0
    cases = []
    for alpha in (1.15, 1.35, 1.55, 1.9):
        cases.append((TetrahedronSpec(S, alpha), GeodesicType(0, 1)))
    for alpha in (1.15, 1.35):
        cases.append((TetrahedronSpec(S, alpha), GeodesicType(1, 1)))
    cases.append((TetrahedronSpec(S, 1.10), GeodesicType(1, 2)))
    for alpha in (0.3, 0.7, 1.0):
        for pq in coprime_types(10):
            cases.append((TetrahedronSpec(H, alpha), GeodesicType(*pq)))
    checked = 0
    for spec, t in cases:
        path = midpoint_geodesic(spec, t)
        if not isinstance(path, GeodesicPath):
            continue
        # the pinned midpoint fractions carry weight only because the path
        # also satisfies the supplementary-angle closure there
        assert path.closed and path.closure_residual < 1e-8
        n = len(path.crossings)
        for idx in (0, n // 4, n // 2, 3 * n // 4):
            worst = max(worst, abs(path.fractions[idx] - 0.5))
        checked += 1
    assert checked == len(cases)
    assert worst < 1e-8
    _report(6, f"{checked} curved geodesics cross the distinguished pairs at "
               f"fraction 0.5 within {worst:.2e} < 1e-8")


def test_criterion_07_hyperbolic_universality():
    t0 = time.monotonic()
    alphas = [0.05 + 0.1 * k for k in range(10)] + [1.0]
    types = coprime_types(20)
    count = 0
    for alpha in alphas:
        spec = TetrahedronSpec(H, alpha)
        clear_bound = hyperbolic_clearance_bound(alpha)
        for p, q in types:
            t = GeodesicType(p, q)
            path = midpoint_geodesic(spec, t)
            assert isinstance(path, GeodesicPath), (alpha, p, q)
            assert path.closed and path.simple, (alpha, p, q)
            assert path.clearance > clear_bound, (alpha, p, q)
            assert path.total_length > hyperbolic_length_lower_bound(alpha, t), (alpha, p, q)
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(7, f"{count} hyperbolic geodesics ({len(alphas)} angles x "
               f"{len(types)} types p+q<=20) all exist and beat both bounds, "
               f"{elapsed:.1f}s < 2min")


def test_criterion_08_generic_hyperbolic():
    rng = random.Random(20260808)
    made = 0
    attempts = 0
    while made < 50 and attempts < 5000:
        attempts += 1
        base = rng.uniform(1.9, 2.2)
        edges = [base * (1.0 + rng.uniform(-0.05, 0.05)) for _ in range(6)]
        try:
            spec = generic_from_edges(edges)
        except Exception:
            continue
        if not spec.all_angles_le(math.pi / 4):
            continue
        for pq in ((0, 1), (1, 1), (1, 2)):
            path = generic_hyperbolic_geodesic(spec, GeodesicType(*pq))
            assert path.closed and path.simple, (edges, pq)
        made += 1
    assert made == 50
    a = edge_from_angle(H, math.pi / 6)
    reg = generic_from_edges([a] * 6)
    worst = 0.0
    for pq in ((0, 1), (1, 1), (1, 2)):
        rg = generic_hyperbolic_geodesic(reg, GeodesicType(*pq))
        rm = midpoint_geodesic(TetrahedronSpec(H, math.pi / 6), GeodesicType(*pq))
        worst = max(worst, max(abs(f1 - f2) for f1, f2 in
                               zip(rg.fractions, rm.fractions)))
    assert worst < 1e-8
    _report(8, f"50 random generic tetrahedra yield (0,1),(1,1),(1,2) geodesics; "
               f"regular spec reproduces the midpoint geodesic within {worst:.2e}")


def test_criterion_09_counting():
    import numpy as np
    from tetrageo.counting import totient_sieve
    x = 10 ** 4
    # per-sum brute-force pair counts give psi(x) for EVERY x <= 10^4 at once
    per_sum = np.zeros(x + 1, dtype=np.int64)
    for q in range(2, x):
        ps = np.arange(1, min(q - 1, x - q) + 1)
        if len(ps) == 0:
            continue
        sums = ps + q
        np.add.at(per_sum, sums[np.gcd(ps, q) == 1], 1)
    brute_prefix = np.cumsum(per_sum)
    identity = np.cumsum(totient_sieve(x)[: x + 1]) // 2 - 1
    for xs in range(3, x + 1):
        assert brute_prefix[xs] == identity[xs], xs
    assert int(brute_prefix[x]) == psi(x) == psi_bruteforce(x)
    ratio = totient_sum(x) / float(x) ** 2
    assert abs(ratio - 3.0 / math.pi ** 2) / (3.0 / math.pi ** 2) < 0.01
    ratios = []
    for L in (20.0, 40.0, 80.0):
        rep = count_exact(L, 0.5)
        assert rep.exact_count % 3 == 0
        assert rep.exact_count <= rep.bound_count
        ratios.append(rep.exact_count / L ** 2)
    drift = abs(ratios[-1] - ratios[-2]) / ratios[-1]
    assert drift < 0.25
    _report(9, f"psi({x}) matches brute force ({psi(x)}), totient ratio "
               f"{ratio:.6f} ~ 3/pi^2, ladder ratios {[f'{r:.5f}' for r in ratios]} "
               f"drift {drift:.1%} < 25%")


def test_criterion_10_projection_bounds():
    rng = random.Random(314159)
    cos12 = math.cos(math.pi / 12.0)
    violations = [0, 0, 0]
    for _ in range(1000):
        eps = rng.uniform(1e-9, math.pi / 6 - 1e-9)
        alpha = math.pi / 3 + eps
        a = edge_from_angle(S, alpha)
        # edge bound a < pi sqrt(2 cos(pi/12)) sqrt(eps)
        if not a < math.pi * math.sqrt(2.0 * cos12) * math.sqrt(eps):
            violations[0] += 1
        # projected angle bound |alpha_hat - pi/3| < pi tan^2(r/R) + eps
        r_cap = 0.95 * (math.pi / (2.0 * a) - 1.0)
        r = rng.uniform(0.0, min(20.0, max(r_cap, 1e-6)))
        phi1 = rng.uniform(0.05, math.pi - 0.05)
        got_alpha, got_hat = projected_angle_pair(a * r, math.cos(phi1),
                                                  math.cos(phi1 - alpha))
        if abs(got_alpha - alpha) < 1e-9:
            if not abs(got_hat - math.pi / 3) < math.pi * math.tan(a * r) ** 2 + eps:
                violations[1] += 1
        # projected arc-length bound (worst direction closed form)
        if (r + 1.0) * a < math.pi / 2:
            lhat = math.sin(a) / (a * math.cos(a * r) * math.cos(a * (r + 1.0)))
            bound = (cos12 * (4.0 + math.pi ** 2 * (2 * r + 1) ** 2)
                     / (1.0 - (2.0 / math.pi) * a * (r + 1.0)) ** 2) * eps
            if not lhat - 1.0 < bound:
                violations[2] += 1
    assert violations == [0, 0, 0]
    _report(10, "1000 randomized checks each of the edge, angle and length "
                "projection bounds: zero violations")


def test_criterion_11_determinism(tmp_path):
    outs = []
    for name in ("v1.json", "v2.json"):
        proc = subprocess.run(
            [sys.executable, "-m", "tetrageo.cli", "verify", "--out",
             str(tmp_path / name)],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    _report(11, f"verify twice -> byte-identical reports ({len(outs[0])} bytes)")

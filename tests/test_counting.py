"""Totient machinery and geodesic counting."""

import math

import pytest

from tetrageo.counting import (admissible_types, asymptotic_constant,
                               count_exact, euler_phi, psi, psi_bruteforce,
                               totient_sieve, totient_sum)


def test_euler_phi():
    assert euler_phi(10) == 4          # {1, 3, 7, 9}
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    sieve = totient_sieve(500)
    for n in range(1, 501):
        assert sieve[n] == euler_phi(n)


def test_psi_small():
    assert psi(5) == 4                 # (1,2),(1,3),(1,4),(2,3)
    assert psi(2) == 0
    assert psi(3) == 1                 # (1,2)
    for x in range(3, 200):
        assert psi(x) == psi_bruteforce(x)


def test_totient_sum_asymptotics():
    assert totient_sum(1000) / 1000.0 ** 2 == pytest.approx(3.0 / math.pi ** 2, abs=0.01)


def test_asymptotic_constants():
    c = asymptotic_constant(0.0)
    # derivation-consistent value 9/(8 pi^2 ln^2(2 sqrt3 + 1)), independently
    # recomputed as 3 * (3/(2 pi^2)) * (1/(2 ln(2 sqrt3 + 1)))^2
    lnD = math.log(2 * math.sqrt(3) + 1)
    oracle = 3.0 * (3.0 / (2.0 * math.pi ** 2)) * (1.0 / (2.0 * lnD)) ** 2
    assert c["c_derived"] == pytest.approx(oracle, rel=1e-14)
    assert c["c_derived"] == pytest.approx(0.050927237217444078, abs=1e-12)
    assert c["c_printed"] == pytest.approx(9.0 / (8.0 * math.pi ** 2 * lnD), rel=1e-14)
    # alpha -> pi/3 divergence
    assert asymptotic_constant(math.pi / 3 - 1e-9)["c_derived"] > 1e10


def test_admissible_pruning_sound():
    alpha = 0.5
    L = 25.0
    types = admissible_types(L, alpha)
    lnD = math.log(2 * math.sqrt(3) * (1 - 3 * alpha / math.pi) + 1)
    for t in types:
        assert 2 * (t.p + t.q) * lnD <= L
    # no admitted type may be missing: check the boundary sum value
    n_max = max(t.p + t.q for t in types)
    assert 2 * (n_max + 1) * lnD > L


def test_count_exact_base_cases():
    alpha = math.pi / 6
    rep = count_exact(12.0, alpha)
    # (0,1) has length ~3.33, (1,1) ~6.03, (1,2) ~9.25 at this angle
    lengths = {(p, q): length for p, q, length, _ in rep.lengths}
    base = lengths[(0, 1)]
    assert count_exact(base - 0.01, alpha).exact_count == 0
    assert count_exact(base + 0.01, alpha).exact_count == 3
    assert rep.exact_count % 3 == 0
    assert rep.exact_count <= rep.bound_count


def test_count_exact_rejects_nonfinite_length():
    for L in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            count_exact(L, 0.5)


def test_count_exact_counts_by_length():
    rep = count_exact(16.0, math.pi / 6)
    manual = 3 * sum(1 for _, _, length, _ in rep.lengths if length <= 16.0)
    assert rep.exact_count == manual
    # lengths exceed the pruning bound for each type
    lnD = math.log(2 * math.sqrt(3) * 0.5 + 1)
    for p, q, length, clearance in rep.lengths:
        assert length >= 2 * (p + q) * lnD - 1e-9
        assert clearance > 0


def test_count_exact_parallel_matches_serial():
    serial = count_exact(18.0, 0.5, jobs=1)
    parallel = count_exact(18.0, 0.5, jobs=2)
    assert serial.exact_count == parallel.exact_count
    assert serial.lengths == parallel.lengths

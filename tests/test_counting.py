"""Totient machinery and geodesic counting."""

import dataclasses
import math
import subprocess
import sys

import pytest

from conftest import subprocess_env

from tetrageo import counting
from tetrageo.cli import main
from tetrageo.counting import (admissible_types, asymptotic_constant,
                               count_exact, euler_phi, length_pruning_bound, psi,
                               psi_bruteforce, totient_sieve, totient_sum)
from tetrageo.errors import NumericalFailure
from tetrageo.paths import NotContained


def test_euler_phi():
    assert euler_phi(10) == 4          # {1, 3, 7, 9}
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    sieve = totient_sieve(500)
    for n in range(1, 501):
        assert sieve[n] == euler_phi(n)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, 0, -1])
def test_euler_phi_rejects_all_but_positive_integers(n):
    with pytest.raises(ValueError):
        euler_phi(n)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_psi_rejects_non_finite_input(x):
    with pytest.raises(ValueError, match="x must be finite"):
        psi(x)


def test_psi_truncates_finite_input():
    assert psi(5.9) == psi(5) == 4 and psi(-3.5) == psi(2.99) == 0


@pytest.mark.parametrize("x", [2.5, 10.0, math.nan, math.inf, "10"])
def test_totient_sum_rejects_all_but_integers(x):
    with pytest.raises(ValueError, match="x must be an integer"):
        totient_sum(x)


@pytest.mark.parametrize("alpha,n_sum", [
    (math.nan, 3), (-1.0, 3), (2.0, 3), (math.pi / 3, 3), (math.inf, 3), (-math.inf, 3),
    (0.5, -3), (0.5, 0), (0.5, 2.5), (0.5, 3.0), (0.5, math.nan), (0.5, math.inf)])
def test_length_pruning_bound_rejects_bad_input(alpha, n_sum):
    with pytest.raises(ValueError, match="alpha must lie in|n_sum must be a positive integer"):
        length_pruning_bound(alpha, n_sum)


def test_length_pruning_bound_values():
    assert length_pruning_bound(0.0, 1) == 2.0 * math.log(2.0 * math.sqrt(3.0) + 1.0)
    assert length_pruning_bound(0.5, 7) == 7 * length_pruning_bound(0.5, 1) > 0.0


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


@pytest.mark.parametrize("L, alpha, message", [
    (math.nan, 0.5, "L must be"), (math.inf, 0.5, "L must be"), (-math.inf, 0.5, "L must be"),
    (0.0, 0.5, "L must be"), (-10.0, 0.5, "L must be"),
    (10.0, math.nan, "alpha must"), (10.0, math.inf, "alpha must"),
    (10.0, -math.inf, "alpha must"), (10.0, 0.0, "alpha must"),
    (10.0, math.pi / 3, "alpha must"), (10.0, 2.0, "alpha must")])
def test_admissible_types_rejects_bad_input(L, alpha, message):
    # count_exact checks its input by calling admissible_types first
    for count in (admissible_types, count_exact):
        with pytest.raises(ValueError, match=message):
            count(L, alpha)


def test_count_exact_counts_by_length():
    rep = count_exact(16.0, math.pi / 6)
    manual = 3 * sum(1 for _, _, length, _ in rep.lengths if length <= 16.0)
    assert rep.exact_count == manual
    # lengths exceed the pruning bound for each type
    lnD = math.log(2 * math.sqrt(3) * 0.5 + 1)
    for p, q, length, clearance in rep.lengths:
        assert length >= 2 * (p + q) * lnD - 1e-9
        assert clearance > 0


def test_count_ladder_constructs_each_type_once(monkeypatch):
    calls = []
    real = counting.midpoint_geodesic

    def counted(spec, t):
        calls.append((spec.alpha, t.p, t.q))
        return real(spec, t)

    monkeypatch.setattr(counting, "midpoint_geodesic", counted)
    counting._measure_type.cache_clear()
    ladder = [count_exact(L, 0.5) for L in (20.0, 30.0, 40.0)]
    assert len(calls) == len(set(calls)) == len(admissible_types(40.0, 0.5)) == 61
    calls.clear()
    count_exact(30.0, 0.5)
    assert calls == []
    # each rung equals a count from scratch
    for rep in ladder:
        counting._measure_type.cache_clear()
        assert count_exact(rep.L, 0.5) == rep
    # another alpha constructs its own types; the first alpha's rows stay cached
    calls.clear()
    count_exact(20.0, 0.4)
    assert len(calls) == len(set(calls)) == len(admissible_types(20.0, 0.4))
    assert {alpha for alpha, _, _ in calls} == {0.4}
    calls.clear()
    count_exact(40.0, 0.5)
    assert calls == []


def test_count_exact_keeps_no_failed_row(monkeypatch):
    real = counting.midpoint_geodesic

    def failing(spec, t):
        if (t.p, t.q) == (1, 2):
            raise NumericalFailure("injected")
        return real(spec, t)

    counting._measure_type.cache_clear()
    monkeypatch.setattr(counting, "midpoint_geodesic", failing)
    with pytest.raises(NumericalFailure):
        count_exact(20.0, 0.5)
    # the next count reads (0,1) and (1,1) from the cache and constructs (1,2) again
    calls = []
    monkeypatch.setattr(counting, "midpoint_geodesic",
                        lambda spec, t: calls.append((t.p, t.q)) or real(spec, t))
    rep = count_exact(20.0, 0.5)
    assert calls[0] == (1, 2) and len(calls) == len(rep.lengths) - 2
    counting._measure_type.cache_clear()
    assert rep == count_exact(20.0, 0.5)


def _assert_count_stops_at_2_3(monkeypatch, tmp_path, capsys, fault, message):
    """With fault(path) in place of the (2,3) construction, count_exact and `count` stop."""
    real = counting.midpoint_geodesic

    def faulty(spec, t):
        path = real(spec, t)
        return fault(path) if (t.p, t.q) == (2, 3) else path

    counting._measure_type.cache_clear()
    monkeypatch.setattr(counting, "midpoint_geodesic", faulty)
    with pytest.raises(NumericalFailure, match=r"type \(2,3\) at alpha=0\.5"):
        count_exact(20.0, 0.5)
    out = tmp_path / "count.json"
    assert main(["count", "--alpha", "0.5", "--L", "20", "--out", str(out)]) == 4
    assert not out.exists()
    assert f"type (2,3) at alpha=0.5: {message}" in capsys.readouterr().err


def test_count_exact_raises_on_uncontained_chord(monkeypatch, tmp_path, capsys):
    # a type whose chord leaves the face chain stops the count, never a silent row
    _assert_count_stops_at_2_3(monkeypatch, tmp_path, capsys,
                               lambda path: NotContained(path.gtype, 0, "12", 0.0),
                               "chord leaves the face chain")


def test_count_exact_raises_on_non_simple_path(monkeypatch, tmp_path, capsys):
    # a row is a simple closed geodesic: a self-crossing construction stops the count
    _assert_count_stops_at_2_3(monkeypatch, tmp_path, capsys,
                               lambda path: dataclasses.replace(path, simple=False),
                               "the path is not simple")


def _markov_by_slope(limit):
    """m(p/q) <= limit for coprime 0 <= p <= q, by the Stern-Brocot recursion.

    The mediant c of neighbours l, r gets m(c) = 3 m(l) m(r) - m(o), where o
    is the fraction whose mediant with one of l, r made the other; m grows
    down the tree, so a branch stops at its first value past the limit.
    """
    m = {(0, 1): 1, (1, 0): 1, (1, 1): 2}
    stack = [((0, 1), (1, 1), (1, 0))]        # (left, right, opposite)
    while stack:
        left, right, opp = stack.pop()
        c = (left[0] + right[0], left[1] + right[1])
        mc = 3 * m[left] * m[right] - m[opp]
        if mc <= limit:
            m[c] = mc
            stack += [(left, c, right), (c, right, left)]
    del m[(1, 0)]
    return {pq: v for pq, v in m.items() if v <= limit}


def test_ideal_limit_count_is_the_markov_count():
    # near the ideal limit a type's length is 4 acosh(3m/2) for the Markov
    # number m of its slope p/q, so N(L) = 3 #{p/q : 3 m(p/q) <= 2 cosh(L/4)};
    # the ladder ascends, as a table of N(L) would
    counts = []
    for L in (20.0, 40.0, 80.0):
        expected = 3 * len(_markov_by_slope(2.0 * math.cosh(L / 4.0) / 3.0))
        rep = count_exact(L, 1e-4)
        assert rep.exact_count == expected, (L, rep.exact_count, expected)
        counts.append(rep.exact_count)
    assert counts == [18, 57, 216]


def test_import_leaves_numpy_out():
    # numpy serves only the totient oracles: importing the library and the CLI,
    # which every command pays, does not load it
    code = "import sys, tetrageo, tetrageo.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env(), check=True).stdout
    assert out.strip() == "False"

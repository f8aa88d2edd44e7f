"""Counting simple closed geodesics by length on hyperbolic tetrahedra.

The exact count enumerates coprime types admitted by the length lower
bound 2(p+q) ln(2 sqrt(3)(1 - 3 alpha/pi) + 1), constructs each geodesic,
and counts three isometric copies per type whose constructed length fits
the budget.  Totient machinery supplies the asymptotics: the number of
coprime pairs p < q with p + q <= x is psi(x) = (1/2) sum phi(y) - 1
(the halving identity phi(y)/2 per sum value y holds from y = 3 on;
y = 1, 2 contribute the -1 correction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinat import GeodesicType
from .errors import NumericalFailure
from .geom import SpaceKind
from .paths import GeodesicPath, midpoint_geodesic
from .tetra import TetrahedronSpec


def euler_phi(n):
    """Euler's totient of a single integer."""
    if n < 1:
        raise ValueError("n must be positive")
    total = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            total -= total // p
        p += 1 if p == 2 else 2
    if m > 1:
        total -= total // m
    return total


def totient_sieve(x):
    """phi(1..x) as an array (linear sieve)."""
    phi = np.arange(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def totient_sum(x):
    """Sum of phi(n) for n = 1..x; asymptotically (3/pi^2) x^2."""
    if x < 1:
        return 0
    return int(totient_sieve(x)[1:].sum())


def psi(x):
    """Number of coprime pairs p < q with p, q >= 1 and p + q <= x."""
    x = int(x)
    if x < 3:
        return 0
    return totient_sum(x) // 2 - 1


def psi_bruteforce(x):
    """psi by direct pair enumeration (vectorized gcd); the test oracle."""
    x = int(x)
    count = 0
    for q in range(2, x):
        p_hi = min(q - 1, x - q)
        if p_hi < 1:
            continue
        ps = np.arange(1, p_hi + 1)
        count += int((np.gcd(ps, q) == 1).sum())
    return count


def length_pruning_bound(alpha, n_sum):
    """Lower bound on the length of any type with p + q = n_sum."""
    return 2.0 * n_sum * math.log(2.0 * math.sqrt(3.0) * (1.0 - 3.0 * alpha / math.pi) + 1.0)


# cap on the admissible type list of one count
MAX_TYPES = 100000


def admissible_types(L, alpha):
    """Coprime types (0 <= p <= q) passing the length lower-bound filter.

    Near the flat limit the filter admits ~c(alpha) L^2 types; the cap
    MAX_TYPES turns a would-be runaway enumeration into an explicit error.
    """
    out = []
    n = 1
    while length_pruning_bound(alpha, n) <= L:
        for p in range(0, n // 2 + 1):
            q = n - p
            if p <= q and math.gcd(p, q) == 1 and (p, q) != (0, 0):
                out.append(GeodesicType(p, q))
        if len(out) > MAX_TYPES:
            raise NumericalFailure(
                f"more than {MAX_TYPES} admissible types for L={L}, alpha={alpha}; "
                "the count grows like c(alpha) L^2 and diverges toward alpha = pi/3")
        n += 1
    return sorted(out, key=lambda t: (t.p + t.q, t.p))


def asymptotic_constant(alpha):
    """The quadratic growth constant c(alpha), both printed and derived forms.

    The composition N = 3 psi(L / (2 ln D)) with psi(x) ~ (3/(2 pi^2)) x^2
    yields 9 / (8 pi^2 ln^2 D); the published growth constant carries ln D
    to the first power.  Both are returned so the discrepancy stays visible.
    """
    if not (0.0 <= alpha < math.pi / 3):
        raise ValueError("alpha must lie in [0, pi/3)")
    lnD = math.log(2.0 * math.sqrt(3.0) * (1.0 - 3.0 * alpha / math.pi) + 1.0)
    return {
        "c_printed": 9.0 / (8.0 * math.pi ** 2 * lnD),
        "c_derived": 9.0 / (8.0 * math.pi ** 2 * lnD ** 2),
        "note": "printed constant has ln to the first power; the derivation yields ln^2",
    }


@dataclass(frozen=True)
class CountReport:
    L: float
    alpha: float
    exact_count: int
    bound_count: int
    c_printed: float
    c_derived: float
    lengths: tuple = field(default=())   # (p, q, length, clearance) per admissible type


def _measure_type(args):
    alpha, p, q = args
    spec = TetrahedronSpec(SpaceKind.HYPERBOLIC, alpha)
    result = midpoint_geodesic(spec, GeodesicType(p, q))
    if not isinstance(result, GeodesicPath):
        return (p, q, math.inf, 0.0)
    return (p, q, result.total_length, result.clearance)


def count_exact(L, alpha, jobs=1):
    """Count simple closed geodesics of length <= L, three copies per type."""
    if not (0.0 < alpha < math.pi / 3):
        raise ValueError("alpha must lie in (0, pi/3)")
    if not (math.isfinite(L) and L > 0):
        raise ValueError("L must be positive and finite")
    types = admissible_types(L, alpha)
    work = [(alpha, t.p, t.q) for t in types]
    if jobs > 1 and len(work) > 1:
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            rows = pool.map(_measure_type, work)
    else:
        rows = [_measure_type(w) for w in work]
    rows.sort(key=lambda r: (r[0] + r[1], r[0]))
    exact = 3 * sum(1 for _, _, length, _ in rows if length <= L)
    consts = asymptotic_constant(alpha)
    return CountReport(L=float(L), alpha=float(alpha), exact_count=exact,
                       bound_count=3 * len(types),
                       c_printed=consts["c_printed"], c_derived=consts["c_derived"],
                       lengths=tuple(rows))

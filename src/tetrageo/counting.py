"""Counting simple closed geodesics by length on hyperbolic tetrahedra.

The exact count enumerates coprime types admitted by the length lower
bound 2(p+q) ln(2 sqrt(3)(1 - 3 alpha/pi) + 1), constructs each geodesic,
and counts three isometric copies per type whose constructed length fits
the budget.  A count runs in one process, and each row is cached by
(alpha, p, q) in a bounded least-recently-used cache.  Totient machinery
supplies the asymptotics: the number of coprime pairs p < q with
p + q <= x is psi(x) = (1/2) sum phi(y) - 1 (the halving identity
phi(y)/2 per sum value y holds from y = 3 on; y = 1, 2 contribute the -1
correction).  numpy is imported only by the sieve and the brute-force
oracle, so importing the library does not load it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

from .combinat import GeodesicType
from .errors import NumericalFailure
from .geom import SpaceKind
from .paths import GeodesicPath, midpoint_geodesic
from .tetra import TetrahedronSpec


def _positive_integer(name, n):
    """n as an int; ValueError naming the argument unless n is a positive integer."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def euler_phi(n):
    """Euler's totient of a positive integer; ValueError for anything else."""
    n = _positive_integer("n", n)
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
    import numpy as np
    phi = np.arange(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def totient_sum(x):
    """Sum of phi(n) for n = 1..x, asymptotically (3/pi^2) x^2; ValueError for a non-integer x."""
    if not isinstance(x, numbers.Integral):
        raise ValueError(f"x must be an integer, got {x!r}")
    if x < 1:
        return 0
    return int(totient_sieve(x)[1:].sum())


def psi(x):
    """Number of coprime pairs p < q with p, q >= 1 and p + q <= int(x); ValueError for inf, NaN."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    x = int(x)
    if x < 3:
        return 0
    return totient_sum(x) // 2 - 1


def psi_bruteforce(x):
    """psi by direct pair enumeration (vectorized gcd); the test oracle."""
    import numpy as np
    x = int(x)
    count = 0
    for q in range(2, x):
        p_hi = min(q - 1, x - q)
        if p_hi < 1:
            continue
        ps = np.arange(1, p_hi + 1)
        count += int((np.gcd(ps, q) == 1).sum())
    return count


def _log_d(alpha):
    """ln D, D = 2 sqrt(3)(1 - 3 alpha/pi) + 1, of the length bound and the growth constants.

    ValueError unless 0 <= alpha < pi/3.
    """
    if not (0.0 <= alpha < math.pi / 3):
        raise ValueError("alpha must lie in [0, pi/3)")
    return math.log(2.0 * math.sqrt(3.0) * (1.0 - 3.0 * alpha / math.pi) + 1.0)


def length_pruning_bound(alpha, n_sum):
    """Lower bound 2 n_sum ln D on the length of any type with p + q = n_sum.

    ValueError unless 0 <= alpha < pi/3 and n_sum is a positive integer.
    """
    return 2.0 * _positive_integer("n_sum", n_sum) * _log_d(alpha)


# cap on the admissible type list of one count
MAX_TYPES = 100000


def admissible_types(L, alpha):
    """Coprime types (0 <= p <= q) passing the length lower-bound filter.

    Near the flat limit the filter admits ~c(alpha) L^2 types; the cap
    MAX_TYPES turns a would-be runaway enumeration into an explicit error.
    ValueError unless 0 < alpha < pi/3 and L is positive and finite.
    """
    if not (0.0 < alpha < math.pi / 3):
        raise ValueError("alpha must lie in (0, pi/3)")
    if not (math.isfinite(L) and L > 0):
        raise ValueError("L must be positive and finite")
    out = []
    n = 1
    while length_pruning_bound(alpha, n) <= L:
        for p in range(0, n // 2 + 1):
            q = n - p
            if math.gcd(p, q) == 1:
                out.append(GeodesicType(p, q))
        if len(out) > MAX_TYPES:
            raise NumericalFailure(
                f"more than {MAX_TYPES} admissible types for L={L}, alpha={alpha}; "
                "the count grows like c(alpha) L^2 and diverges toward alpha = pi/3")
        n += 1
    return out


def asymptotic_constant(alpha):
    """The quadratic growth constant c(alpha), both printed and derived forms.

    The composition N = 3 psi(L / (2 ln D)) with psi(x) ~ (3/(2 pi^2)) x^2
    yields 9 / (8 pi^2 ln^2 D); the published growth constant carries ln D
    to the first power.  Both are returned so the discrepancy stays visible.
    Both are constants of that bound count, the three copies of every type
    the length filter admits (a report's bound_count), not of the exact
    count, which the bound count only bounds from above.
    """
    lnD = _log_d(alpha)
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


# one spec per angle, shared by the rows of every count at it
_spec = functools.lru_cache(maxsize=16)(functools.partial(TetrahedronSpec, SpaceKind.HYPERBOLIC))


@functools.lru_cache(maxsize=MAX_TYPES)
def _measure_type(alpha, p, q):
    """Row (p, q, length, clearance) of the type-(p, q) geodesic at alpha."""
    result = midpoint_geodesic(_spec(alpha), GeodesicType(p, q))
    if not isinstance(result, GeodesicPath):
        raise NumericalFailure(f"type ({p},{q}) at alpha={alpha!r}: {result.reason}")
    if not result.simple:
        raise NumericalFailure(f"type ({p},{q}) at alpha={alpha!r}: the path is not simple")
    return (p, q, result.total_length, result.clearance)


def count_exact(L, alpha, jobs=1):
    """Count simple closed geodesics of length <= L, three copies per type.

    A row (p, q, length, clearance) depends only on (alpha, p, q), so rows
    are cached by those three, up to MAX_TYPES of them, the least recently
    used evicted first: a ladder of L at one alpha constructs each type
    once.  A type whose construction fails raises NumericalFailure and is
    not cached.  jobs must be 1: the count runs in one process.
    """
    if jobs != 1:
        raise ValueError("jobs must be 1: the count runs in one process")
    types = admissible_types(L, alpha)
    rows = [_measure_type(alpha, t.p, t.q) for t in types]
    exact = 3 * sum(1 for _, _, length, _ in rows if length <= L)
    consts = asymptotic_constant(alpha)
    return CountReport(L=float(L), alpha=float(alpha), exact_count=exact,
                       bound_count=3 * len(types),
                       c_printed=consts["c_printed"], c_derived=consts["c_derived"],
                       lengths=tuple(rows))

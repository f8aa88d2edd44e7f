"""Existence bounds and threshold machinery for spherical tetrahedra.

The operational existence criterion is the containment test of the
midpoint chord; the closed-form angle bounds are one-sided cross-checks:

* necessary: no type-(p,q) geodesic when alpha exceeds
  2 arcsin sqrt(N / (4N - pi^2)), N = p^2+pq+q^2;
* sufficient: existence for alpha in (pi/3, pi/3 + eps*) with eps* the
  two-term minimum built from the constants c0, c_l, c_alpha;
* exact: existence iff the abstract shortest curve in the development is
  shorter than 2*pi; the curve is the midpoint chord where that is
  contained, otherwise one bounded solve of the Newton chord solver of
  :mod:`frames`, which wraps the blocking vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import frames
from .combinat import GeodesicType, crossing_sequence
from .errors import BoundDegenerate, BoundVacuous, NoThreshold, TooLong
from .geom import SpaceKind
from .paths import GeodesicPath, NotContained, midpoint_geodesic
from .tetra import TetrahedronSpec

UNDETERMINED_MARGIN = 1e-9


@dataclass(frozen=True)
class ExistenceVerdict:
    outcome: str                  # "exists" | "not_exists" | "undetermined"
    gtype: GeodesicType
    alpha: float
    path: object = None           # GeodesicPath when outcome == "exists"
    reason: str = ""
    alpha1: float = None          # pi/3 + eps* when the sufficient bound is defined
    alpha2: float = None          # necessary bound when defined
    beta: float = None

    @property
    def exists(self):
        return self.outcome == "exists"


def necessary_alpha_bound(t: GeodesicType):
    """Angle above which no type-(p,q) geodesic exists (alpha_2)."""
    N = t.norm
    denom = 4.0 * N - math.pi ** 2
    if denom <= 0.0 or N / denom > 1.0:
        raise BoundVacuous(f"type {(t.p, t.q)} does not satisfy the bound condition")
    return 2.0 * math.asin(math.sqrt(N / denom))


@dataclass(frozen=True)
class EpsilonBound:
    """Sufficient-angle bound eps* and the constants behind it."""

    epsilon: float
    hemisphere_term: float
    geometric_term: float
    c0: float
    sum_terms: float
    index_top: int                 # printed upper summation index
    epsilon_alt: float = None      # value for the lower index variant, if finite


def _epsilon_variant(t: GeodesicType, top):
    n = t.p + t.q
    if top >= n - 1:
        raise BoundDegenerate(
            f"summation index {top} reaches singular terms for p+q={n}",
            detail={"p": t.p, "q": t.q, "index_top": top})
    cos12 = math.cos(math.pi / 12.0)
    tan2 = [math.tan(math.pi * i / (2.0 * n)) ** 2 for i in range(top + 1)]
    sum_tan2 = sum(tan2)

    def c_l(i):
        return cos12 * n * n * (4.0 + math.pi ** 2 * (2 * i + 1) ** 2) / (n - i - 1) ** 2

    def c_a(j):
        return 4.0 * (8.0 * math.pi * n * n * cos12 * tan2[j] + 1.0)

    total = 0.0
    prefix = 0.0
    for i in range(top + 1):
        prefix += c_a(i)
        total += c_l(i) + prefix
    num = 3.0 - (n + 2.0) / (math.pi * cos12 * n * n) - 16.0 * sum_tan2
    den = 1.0 - (n + 2.0) / (2.0 * math.pi * cos12 * n * n) - 8.0 * sum_tan2
    if den == 0.0:
        raise BoundDegenerate("c0 denominator vanishes",
                              detail={"c0_den": den, "sum_tan2": sum_tan2})
    c0 = num / den
    if not math.isfinite(c0) or c0 <= 0.0 or total <= 0.0:
        raise BoundDegenerate("non-positive constant in the sufficient bound",
                              detail={"c0": c0, "sum_terms": total, "sum_tan2": sum_tan2})
    geometric = math.sqrt(3.0) / (4.0 * c0 * math.sqrt(t.norm) * total)
    return geometric, c0, total


def sufficient_epsilon_bound(t: GeodesicType):
    """eps* with existence guaranteed on (pi/3, pi/3 + eps*).

    Computed verbatim from the printed formulas with upper summation index
    floor((p+q)/2)+2; the index-variant floor((p+q)/2)+1 is reported
    alongside when finite.  Types with p+q <= 6 hit singular terms
    (tan(pi/2) or a vanishing (p+q-i-1) denominator) and raise
    BoundDegenerate instead of silently clamping.
    """
    n = t.p + t.q
    hemisphere = 1.0 / (8.0 * math.cos(math.pi / 12.0) * n * n)
    top = n // 2 + 2
    geometric, c0, total = _epsilon_variant(t, top)
    eps = min(geometric, hemisphere)
    eps_alt = None
    try:
        geo_alt, _, _ = _epsilon_variant(t, n // 2 + 1)
        eps_alt = min(geo_alt, hemisphere)
    except BoundDegenerate:
        pass
    if not (math.isfinite(eps) and eps > 0.0):
        raise BoundDegenerate("sufficient bound is not positive", detail={"eps": eps})
    return EpsilonBound(epsilon=eps, hemisphere_term=hemisphere, geometric_term=geometric,
                        c0=c0, sum_terms=total, index_top=top, epsilon_alt=eps_alt)


def edge_sufficient_bound(t: GeodesicType):
    """Edge length below which the type-(p,q) geodesic exists (spherical)."""
    N = t.norm
    return 2.0 * math.asin(math.pi / (math.sqrt(N) + math.sqrt(N + 2.0 * math.pi ** 2)))


def hyperbolic_clearance_bound(alpha):
    """Lower bound on vertex clearance of hyperbolic geodesics, d(alpha)."""
    if not (0.0 <= alpha < math.pi / 3):
        raise ValueError("alpha must lie in [0, pi/3)")
    c = math.sqrt(2.0 * math.pi ** 3)
    s = (math.pi - 3.0 * alpha) ** 1.5
    return 0.5 * math.log((c + s) / (c - s))


def hyperbolic_length_lower_bound(alpha, t: GeodesicType):
    """Length lower bound 2(p+q) ln(2 sqrt(3) (1 - 3 alpha/pi) + 1)."""
    if not (0.0 <= alpha < math.pi / 3):
        raise ValueError("alpha must lie in [0, pi/3)")
    return 2.0 * (t.p + t.q) * math.log(2.0 * math.sqrt(3.0) * (1.0 - 3.0 * alpha / math.pi) + 1.0)


def _bounds_pair(t):
    a1 = a2 = None
    try:
        a1 = math.pi / 3 + sufficient_epsilon_bound(t).epsilon
    except BoundDegenerate:
        pass
    try:
        a2 = necessary_alpha_bound(t)
    except BoundVacuous:
        pass
    return a1, a2


def exists_geodesic(spec: TetrahedronSpec, t: GeodesicType):
    """Existence verdict for a type-(p,q) geodesic on a spherical tetrahedron.

    The decision is the containment test; the inequality bounds and the
    2*pi criterion are attached as reasons.  Verdicts within 1e-9 of the
    containment boundary are reported undetermined rather than forced.
    """
    if spec.space != SpaceKind.SPHERICAL:
        raise ValueError("existence verdicts apply to spherical tetrahedra")
    alpha1, alpha2 = _bounds_pair(t)
    try:
        result = midpoint_geodesic(spec, t)
    except TooLong as exc:
        return ExistenceVerdict("not_exists", t, spec.alpha, reason=str(exc),
                                alpha1=alpha1, alpha2=alpha2)
    if isinstance(result, GeodesicPath):
        interior = [min(f, 1.0 - f) for _, f in result.crossings]
        if min(interior) < UNDETERMINED_MARGIN:
            return ExistenceVerdict("undetermined", t, spec.alpha,
                                    reason="chord within tolerance of the boundary",
                                    alpha1=alpha1, alpha2=alpha2)
        return ExistenceVerdict("exists", t, spec.alpha, path=result,
                                alpha1=alpha1, alpha2=alpha2)
    assert isinstance(result, NotContained)
    if abs(result.signed_distance) < UNDETERMINED_MARGIN:
        return ExistenceVerdict("undetermined", t, spec.alpha,
                                reason="chord touches the boundary within tolerance",
                                alpha1=alpha1, alpha2=alpha2)
    if alpha2 is not None and spec.alpha > alpha2:
        return ExistenceVerdict("not_exists", t, spec.alpha,
                                reason="alpha exceeds the necessary bound",
                                alpha1=alpha1, alpha2=alpha2)
    length = abstract_shortest_curve_length(spec, t)
    if length >= 2.0 * math.pi - 1e-9:
        return ExistenceVerdict("not_exists", t, spec.alpha,
                                reason="abstract shortest curve not shorter than 2*pi",
                                alpha1=alpha1, alpha2=alpha2)
    return ExistenceVerdict("undetermined", t, spec.alpha,
                            reason="containment and length criteria disagree within tolerance",
                            alpha1=alpha1, alpha2=alpha2)


def _contained(alpha, t):
    try:
        result = midpoint_geodesic(TetrahedronSpec(SpaceKind.SPHERICAL, alpha), t)
    except TooLong:
        return False
    return isinstance(result, GeodesicPath)


@dataclass(frozen=True)
class ThresholdResult:
    beta: float
    lo: float
    hi: float
    tol: float


def threshold_beta(t: GeodesicType, tol=1e-6):
    """Bisection threshold: containment holds below beta, fails above.

    Raises NoThreshold when the predicate is constant on (pi/3, 2pi/3),
    e.g. for type (0,1) which exists at every angle.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    hi = 2.0 * math.pi / 3.0 - 1e-9
    if _contained(hi, t):
        raise NoThreshold(f"type {(t.p, t.q)} exists across the whole interval")
    lo = None
    step = 1e-4
    while step > 1e-13:
        cand = math.pi / 3.0 + step
        if _contained(cand, t):
            lo = cand
            break
        step *= 0.1
    if lo is None:
        raise NoThreshold(f"type {(t.p, t.q)} never exists on the interval")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats: tol is below their spacing
            break
        if _contained(mid, t):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(beta=0.5 * (lo + hi), lo=lo, hi=hi, tol=tol)


# ---------------------------------------------------------------------------
# abstract shortest curve (bounded chord over the development)

def abstract_shortest_curve_length(spec: TetrahedronSpec, t: GeodesicType):
    """Length of the shortest development curve from X1 to X1'.

    Where the midpoint chord is contained (below the threshold) this is
    its length, the geodesic's.  Otherwise the chain e_0..e_N of the whole
    crossing word is placed in edge-local frames, and one Newton chord
    solve, pinned at the midpoints X1 of e_0 and X1' of e_N only and seeded
    with the exact Euclidean crossing fractions, shortens the curve; each
    crossing may reach an end of its edge, so the curve wraps the vertices
    that block it.  At the threshold the value is 2*pi (the perimeter of
    the flat digon).
    """
    if spec.space != SpaceKind.SPHERICAL:
        raise ValueError("the abstract shortest curve is a spherical construction")
    try:
        result = midpoint_geodesic(spec, t)
        if isinstance(result, GeodesicPath):
            return result.total_length
    except TooLong:
        pass
    seq = crossing_sequence(t)
    tokens = list(seq.tokens) + [seq.tokens[0]]
    steps = frames.build_chain(spec, tokens)
    init = [0.5] + [float(f) for f in seq.fractions[1:]] + [0.5]
    offsets = frames.relax_chord(steps, [spec.edge] * len(tokens), init)
    return sum(frames.trace_geometry(steps, offsets))

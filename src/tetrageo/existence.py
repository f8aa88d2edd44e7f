"""Existence bounds and threshold machinery for spherical tetrahedra.

The existence criterion is the threshold beta(p,q) below which the type
exists; the closed-form angle bounds and the 2*pi criterion are cross-checks:

* necessary: no type-(p,q) geodesic when alpha exceeds
  2 arcsin sqrt(N / (4N - pi^2)), N = p^2+pq+q^2;
* sufficient: existence for alpha in (pi/3, pi/3 + eps*) with eps* the
  two-term minimum built from the constants c0, c_l, c_alpha;
* exact: existence iff the abstract shortest curve in the development is
  shorter than 2*pi; the curve is the midpoint chord where that is
  contained, otherwise the shortest path from X1 to X1' over the
  development's vertices, each piece a minor arc that stays in the strip;
* threshold: beta(p,q), where the geodesic becomes the flat digon of
  length 2*pi, is the least root in (pi/3, 2pi/3) of the integer trace
  polynomial x_(p,q)(cos alpha) = 2 cos(L/4), bracketed in exact integer
  arithmetic; no chord is constructed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .combinat import GeodesicType, crossing_sequence
from .counting import length_pruning_bound
from .errors import BoundDegenerate, BoundVacuous, NoThreshold, NumericalFailure, TooLong
from .geom import SpaceKind, _kcross, _kdot, rdistance, rside_measure
from .paths import GeodesicPath, NotContained, midpoint_geodesic
from .tetra import TetrahedronSpec
from .unfold import build_development

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
    beta: float = None            # threshold_beta at tol 1e-9 when the type has one

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
    """Length lower bound 2(p+q) ln(2 sqrt(3) (1 - 3 alpha/pi) + 1); ValueError off [0, pi/3)."""
    return length_pruning_bound(alpha, t.p + t.q)


# the bounds and the threshold depend on the type only, and every verdict reports them
@functools.lru_cache(maxsize=256)
def _bounds(t):
    a1 = a2 = threshold = None
    try:
        a1 = math.pi / 3 + sufficient_epsilon_bound(t).epsilon
    except BoundDegenerate:
        pass
    try:
        a2 = necessary_alpha_bound(t)
    except BoundVacuous:
        pass
    try:
        threshold = threshold_beta(t, UNDETERMINED_MARGIN)
    except NoThreshold:
        pass
    return a1, a2, threshold


def exists_geodesic(spec: TetrahedronSpec, t: GeodesicType):
    """Existence verdict for a type-(p,q) geodesic on a spherical tetrahedron.

    Decided by the tol-1e-9 bracket [lo, hi] of beta(p,q): not_exists from
    hi on, with no chord built, undetermined inside.  Below it, or with no
    threshold as for (0,1), exists iff the midpoint chord is contained with
    every crossing 1e-9 from a vertex, else undetermined.
    """
    if spec.space != SpaceKind.SPHERICAL:
        raise ValueError("existence verdicts apply to spherical tetrahedra")
    alpha1, alpha2, threshold = _bounds(t)
    bounds = dict(alpha1=alpha1, alpha2=alpha2, beta=threshold.beta if threshold else None)
    if threshold is not None and spec.alpha >= threshold.hi:
        return ExistenceVerdict("not_exists", t, spec.alpha,
                                reason="alpha at or above the threshold beta", **bounds)
    if threshold is not None and spec.alpha > threshold.lo:
        return ExistenceVerdict("undetermined", t, spec.alpha,
                                reason="alpha within the threshold bracket", **bounds)
    try:
        result = midpoint_geodesic(spec, t)
    except TooLong as exc:
        return ExistenceVerdict("undetermined", t, spec.alpha, reason=str(exc), **bounds)
    if isinstance(result, NotContained):
        return ExistenceVerdict("undetermined", t, spec.alpha, reason=result.reason, **bounds)
    if result.min_fraction_margin < UNDETERMINED_MARGIN:
        return ExistenceVerdict("undetermined", t, spec.alpha,
                                reason="chord within tolerance of the boundary", **bounds)
    return ExistenceVerdict("exists", t, spec.alpha, path=result, **bounds)


def _stern_brocot(t, x01, x11, fricke):
    """x_(p,q) in any ring from x(0,1) = x(1,0) = x01 and x(1,1) = x11 (see trace_polynomial)."""
    xa, xb, xd = x01, x11, x01
    if t.p == 0:
        return xa
    a, b = (0, 1), (1, 1)
    while b != (t.p, t.q):
        m = (a[0] + b[0], a[1] + b[1])
        if t.p * m[1] <= m[0] * t.q:    # p/q in [a, m]: its difference is b
            b, xb, xd = m, fricke(xa, xb, xd), xb
        else:                           # in (m, b]: its difference is a
            a, xa, xd = m, fricke(xa, xb, xd), xa
    return xb


@functools.lru_cache(maxsize=256)
def trace_polynomial(t: GeodesicType):
    """x_(p,q) = 2 C(L/4) as a polynomial in c = cos(alpha): integer coefficients, c^0 first.

    L is the type's length on the regular tetrahedron of angle alpha, C = cos
    on S and cosh on H.  Farey neighbours a, b with mediant m and difference
    d satisfy Fricke's trace identity x_m = x_a x_b - x_d (the Markov tree at
    alpha -> 0, Zagier 1982); the Stern-Brocot walk to p/q carries
    (x_a, x_b, x_d) from x(0,1) = x(1,0) = 1 + 2c and x(1,1) = 2c(1 + 2c).
    x = 2 at c = 1/2 for every type, and x = 0 is the flat digon L = 2 pi.
    """
    def fricke(xa, xb, xd):
        xm = [-v for v in xd] + [0] * (len(xa) + len(xb) - 1 - len(xd))
        for i, u in enumerate(xa):
            for j, v in enumerate(xb):
                xm[i + j] += u * v
        return tuple(xm)
    return _stern_brocot(t, (1, 2), (0, 2, 4), fricke)


def _float_root(t):
    """beta(p,q) in floats: Newton in c on the walk's (x, dx/dc), from pi/3 + pi^2/(4 sqrt(3) N)."""
    c = math.cos(math.pi / 3.0 + math.pi ** 2 / (4.0 * math.sqrt(3.0) * t.norm))
    for _ in range(40):
        x, dx = _stern_brocot(t, (1.0 + 2.0 * c, 2.0), (2.0 * c + 4.0 * c * c, 2.0 + 8.0 * c),
                              lambda a, b, d: (a[0] * b[0] - d[0], a[1] * b[0] + a[0] * b[1] - d[1]))
        step = x / dx if dx else math.nan
        c -= step
        if not abs(step) >= 1e-15:
            break
    return math.acos(c) if abs(c) <= 1.0 else math.nan


def _sign(poly, c):
    """Sign of poly at the exact rational value of the float c."""
    num, den = c.as_integer_ratio()
    value, scale = 0, 1
    for a in reversed(poly):
        value = value * num + a * scale
        scale *= den
    return (value > 0) - (value < 0)


def _variations(poly, lo, hi):
    """Descartes' bound on the roots of poly in the open interval (lo, hi) of floats.

    The sign variations of (1 + y)^n poly((hi + lo y) / (1 + y)), in exact
    integers: at most the number of roots, and of the same parity.
    """
    (L, D1), (H, D2) = lo.as_integer_ratio(), hi.as_integer_ratio()
    D = max(D1, D2)
    L, W = L * (D // D1), H * (D // D2) - L * (D // D1)
    n = len(poly) - 1
    r = [a * D ** (n - k) for k, a in enumerate(poly)]
    for i in range(n):                      # r(y) <- r(L + y)
        for j in range(n - 1, i - 1, -1):
            r[j] += L * r[j + 1]
    w = 1
    for k in range(n + 1):                  # r(y) <- r(W y), then y^n r(1/y)
        r[k] *= w
        w *= W
    r.reverse()
    for i in range(n):                      # r(y) <- r(1 + y)
        for j in range(n - 1, i - 1, -1):
            r[j] += r[j + 1]
    signs = [a > 0 for a in r if a]
    return sum(u != v for u, v in zip(signs, signs[1:]))


@dataclass(frozen=True)
class ThresholdResult:
    """[lo, hi] certified around beta(p,q) (see threshold_beta); beta is its midpoint."""

    beta: float
    lo: float
    hi: float
    tol: float


def threshold_beta(t: GeodesicType, tol=1e-6):
    """Threshold beta(p,q): the least root in (pi/3, 2pi/3) of x_(p,q)(cos alpha).

    Below beta the type-(p,q) geodesic is shorter than 2 pi; at beta it is
    the flat digon (see :func:`trace_polynomial`).  No construction is made.
    [lo, hi] is the node of the float bisection tree of (pi/3, 2pi/3) around
    beta where hi - lo <= tol or lo, hi are adjacent floats, found by the
    float root (:func:`_bisect`) and certified in exact integers at the
    floats cos(lo), cos(hi): x(lo) > 0 >= x(hi), and one Descartes count
    clears (pi/3, lo].  Else Descartes isolates beta first (:func:`_isolate`).
    Both agree for tol <= 1e-2; above, the walk may stop at a wider node.

    Raises NoThreshold when x has no root on the interval, as for type
    (0,1), whose root is 2pi/3.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    x = trace_polynomial(t)
    lo, hi = _bisect(x, math.pi / 3.0, 2.0 * math.pi / 3.0, tol, _float_root(t))
    if not (_sign(x, math.cos(lo)) > 0 >= _sign(x, math.cos(hi))
            and _variations(x, math.cos(lo), math.cos(math.pi / 3.0)) == 0):
        lo, hi = _bisect(x, *_isolate(t, x), tol)
    return ThresholdResult(beta=0.5 * (lo + hi), lo=lo, hi=hi, tol=tol)


def _bisect(x, lo, hi, tol, root=math.nan):
    """Halve (lo, hi) toward beta on mid < root, or on x(mid) > 0 within 1e-12 of root or if nan."""
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        below = mid < root if abs(mid - root) > 1e-12 * root else _sign(x, math.cos(mid)) > 0
        lo, hi = (mid, hi) if below else (lo, mid)
    return lo, hi


def _isolate(t, x):
    """The first part of (pi/3, 2pi/3), halved from the left, with x(lo) > 0 and one root."""
    # at the first part x(1/2) = 2 and the float cos(pi/3) lies 1.1e-16 above 1/2
    parts = [(math.pi / 3.0, 2.0 * math.pi / 3.0)]
    while parts:
        lo, hi = parts.pop()
        changes = _variations(x, math.cos(hi), math.cos(lo))
        if changes == 1 or changes == 0 and _sign(x, math.cos(hi)) == 0:
            return lo, hi
        if changes > 1:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                raise NumericalFailure(f"roots of x{(t.p, t.q)} closer than the float spacing")
            parts += [(mid, hi), (lo, mid)]
    raise NoThreshold(f"type {(t.p, t.q)} exists across the whole interval")


# ---------------------------------------------------------------------------
# abstract shortest curve (shortest visible path over the development's vertices)

def abstract_shortest_curve_length(spec: TetrahedronSpec, t: GeodesicType):
    """Length of the shortest development curve from X1 to X1'.

    Where the midpoint chord is contained (below the threshold) this is
    its length, the geodesic's.  Otherwise the curve is the shortest path
    from X1 to X1' in the strip of the development's faces, which bends
    only at vertices; each piece is locally shortest, so at most pi long
    and a minor arc.  The nodes are X1, the vertices in order of their
    first glue edge, and X1'; one forward pass gives each node the least
    length over the earlier nodes that see it (:func:`_sees`).  At the
    threshold the value is 2*pi (the perimeter of the flat digon).
    """
    if spec.space != SpaceKind.SPHERICAL:
        raise ValueError("the abstract shortest curve is a spherical construction")
    try:
        result = midpoint_geodesic(spec, t)
        if isinstance(result, GeodesicPath):
            return result.total_length
    except TooLong:
        pass
    dev = build_development(spec, crossing_sequence(t), hemisphere_check=False)
    spans = {}      # vertex id -> [first, last] glue edge through it
    for i, (_, vids) in enumerate(dev.glue_edges):
        for vid in vids:
            spans.setdefault(vid, [i, i])[1] = i
    portals = [dev.glue_edge_reps(i) for i in range(len(dev.glue_edges))]
    n = len(portals) - 1
    nodes = ([(dev.sym_reps["X1"], 0, 0)]
             + [(dev.vertex_reps[vid], first, last) for vid, (first, last) in spans.items()]
             + [(dev.sym_reps["X1p"], n, n)])
    best = [0.0] + [math.inf] * (len(nodes) - 1)
    for j, (Q, c, _) in enumerate(nodes):
        for i in range(j - 1, -1, -1):
            P, _, b = nodes[i]
            if best[i] < best[j] and _sees(portals, P, b, Q, c):
                best[j] = min(best[j], best[i] + rdistance(SpaceKind.SPHERICAL, P, Q))
    return best[-1]


def _sees(portals, P, b, Q, c):
    """Whether the minor arc from P, last on glue edge e_b, to Q, first on e_c, is in the strip.

    portals[m] holds the ends of e_m.  For c <= b the arc is e_c itself.
    Otherwise it must cross e_(b+1)..e_(c-1) in turn: the ends E, F of each
    lie on opposite sides of its great circle n = P x Q, or on it, and the
    crossing |<n, F>| E + |<n, E>| F lies after the one before (P first)
    and before Q.
    """
    if c <= b:
        return True
    n = _kcross(1.0, P, Q)
    if not _kdot(1.0, n, n) > 1e-22:    # coincident, or antipodal where rdistance raises: no piece
        return False
    prev = P
    for m in range(b + 1, c):
        E, F = portals[m]
        e, f = _kdot(1.0, n, E), _kdot(1.0, n, F)
        if e * f > 0.0:
            return False
        X = tuple(abs(f) * u + abs(e) * v for u, v in zip(E, F))
        if (rside_measure(SpaceKind.SPHERICAL, prev, X, n) < 0.0
                or rside_measure(SpaceKind.SPHERICAL, X, Q, n) < 0.0):
            return False
        prev = X
    return True

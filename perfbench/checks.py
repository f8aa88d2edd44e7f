"""Output checks for the benchmark workloads.

Every check compares a result against a closed form or a property of the
construction, never against stored output.  Each returns a list of error
strings; an empty list means the result passed.  The checks read results
through attributes only (``total_length``, ``fractions`` ...), so the
self-tests can hand them deliberately wrong copies.
"""

from __future__ import annotations

import math

MIDPOINT_TOL = 1e-8
CLOSURE_TOL = 1e-8
REGULAR_MATCH_TOL = 1e-8
BETA_PI_HALF_TOL = 1e-5
BETA_ALPHA2_SLACK = 2e-6


def coprime_types(max_sum):
    """All (p, q) with 0 <= p <= q, gcd 1 and p + q <= max_sum, by p + q then p."""
    out = []
    for n in range(1, max_sum + 1):
        for p in range(0, n // 2 + 1):
            if math.gcd(p, n - p) == 1:
                out.append((p, n - p))
    return out


def _log_d(alpha):
    return math.log(2.0 * math.sqrt(3.0) * (1.0 - 3.0 * alpha / math.pi) + 1.0)


def length_lower_bound(alpha, p, q):
    """2 (p+q) ln(2 sqrt(3) (1 - 3 alpha/pi) + 1): no shorter type-(p,q) geodesic."""
    return 2.0 * (p + q) * _log_d(alpha)


def clearance_bound(alpha):
    """d(alpha): every hyperbolic geodesic keeps at least this far from the vertices."""
    c = math.sqrt(2.0 * math.pi ** 3)
    s = (math.pi - 3.0 * alpha) ** 1.5
    return 0.5 * math.log((c + s) / (c - s))


def necessary_alpha(p, q):
    """alpha_2 = 2 arcsin sqrt(N / (4N - pi^2)), or None where the bound is vacuous."""
    n = p * p + p * q + q * q
    denom = 4.0 * n - math.pi ** 2
    if denom <= 0.0 or n / denom > 1.0:
        return None
    return 2.0 * math.asin(math.sqrt(n / denom))


def admissible_count(L, alpha):
    """Number of coprime types whose length lower bound is at most L."""
    count = 0
    n = 1
    while 2.0 * n * _log_d(alpha) <= L:
        count += sum(1 for p in range(0, n // 2 + 1) if math.gcd(p, n - p) == 1)
        n += 1
    return count


# ---------------------------------------------------------------------------
# paths

def check_closed_simple(path, label):
    errs = []
    if not path.closed or not path.closure_residual < CLOSURE_TOL:
        errs.append(f"{label}: not closed (residual {path.closure_residual:.3e})")
    if not path.simple:
        errs.append(f"{label}: not simple")
    return errs


def check_midpoint_law(path, label):
    """The four symmetry crossings sit at edge midpoints."""
    n = len(path.fractions)
    worst = max(abs(path.fractions[i] - 0.5) for i in (0, n // 4, n // 2, 3 * n // 4))
    if not worst < MIDPOINT_TOL:
        return [f"{label}: symmetry crossing off the midpoint by {worst:.3e}"]
    return []


def check_multiplicities(path, p, q, label):
    """Opposite edges are crossed equally often: p, q and p+q times."""
    counts = {}
    for tok in path.tokens:
        counts[tok] = counts.get(tok, 0) + 1
    pairs = []
    for a, b in (("12", "34"), ("13", "24"), ("14", "23")):
        ca, cb = counts.get(a, 0), counts.get(b, 0)
        if ca != cb:
            return [f"{label}: opposite edges {a}/{b} crossed {ca} and {cb} times"]
        pairs.append(ca)
    if sorted(pairs) != sorted((p, q, p + q)) or len(path.tokens) != 4 * (p + q):
        return [f"{label}: edge-pair crossings {sorted(pairs)} != {sorted((p, q, p + q))}"]
    return []


def check_hyperbolic_bounds(path, alpha, p, q, label):
    errs = []
    bound = length_lower_bound(alpha, p, q)
    if not (math.isfinite(path.total_length) and path.total_length > bound):
        errs.append(f"{label}: length {path.total_length!r} not above the bound {bound!r}")
    d = clearance_bound(alpha)
    if not path.clearance > d:
        errs.append(f"{label}: clearance {path.clearance!r} not above d(alpha) = {d!r}")
    return errs


def check_flat_deficit(path, edge, alpha, p, q, label):
    """1 - L / (2 a sqrt(p^2+pq+q^2)) lies in (0, pi/3 - alpha).

    At alpha -> pi/3 the ratio tends to the Euclidean closed form 1, so
    the deficit shrinks with the angle defect.
    """
    deficit = 1.0 - path.total_length / (2.0 * edge * math.sqrt(p * p + p * q + q * q))
    if not 0.0 < deficit < math.pi / 3 - alpha:
        return [f"{label}: flat-limit deficit {deficit!r} outside (0, {math.pi / 3 - alpha!r})"]
    return []


def check_hyperbolic_path(path, alpha, edge, p, q, label):
    return (check_closed_simple(path, label) + check_midpoint_law(path, label)
            + check_multiplicities(path, p, q, label)
            + check_hyperbolic_bounds(path, alpha, p, q, label)
            + check_flat_deficit(path, edge, alpha, p, q, label))


def check_matches_midpoint(path, reference, label):
    """A generic construction on a regular spec reproduces the midpoint chord."""
    if path.tokens != reference.tokens:
        return [f"{label}: crossing word differs from the midpoint geodesic"]
    worst = max(abs(a - b) for a, b in zip(path.fractions, reference.fractions))
    if not worst < REGULAR_MATCH_TOL:
        return [f"{label}: fractions differ from the midpoint geodesic by {worst:.3e}"]
    return []


# ---------------------------------------------------------------------------
# counting

def check_count_report(report, L, alpha):
    """bound_count, exact_count and every row against the closed forms."""
    label = f"count L={L}"
    errs = []
    expected_bound = 3 * admissible_count(L, alpha)
    if report.bound_count != expected_bound:
        errs.append(f"{label}: bound_count {report.bound_count} != {expected_bound}")
    if report.bound_count != 3 * len(report.lengths):
        errs.append(f"{label}: {len(report.lengths)} rows for bound_count {report.bound_count}")
    d = clearance_bound(alpha)
    for p, q, length, clearance in report.lengths:
        bound = length_lower_bound(alpha, p, q)
        if not (math.isfinite(length) and length > bound):
            errs.append(f"{label} ({p},{q}): length {length!r} not above {bound!r}")
        if not clearance > d:
            errs.append(f"{label} ({p},{q}): clearance {clearance!r} not above {d!r}")
    exact = 3 * sum(1 for _, _, length, _ in report.lengths if length <= L)
    if report.exact_count != exact:
        errs.append(f"{label}: exact_count {report.exact_count} != 3 x {exact // 3} rows <= L")
    return errs


def check_ladder_rows(reports):
    """A type's row is identical at every L of the ladder."""
    seen = {}
    errs = []
    for report in reports:
        for row in report.lengths:
            first = seen.setdefault(row[:2], row)
            if first != row:
                errs.append(f"count: row {row[:2]} differs between ladder rungs")
    return errs


# ---------------------------------------------------------------------------
# spherical existence

def check_threshold(p, q, beta, alpha1):
    """pi/3 + eps* <= beta <= alpha_2 + 2e-6; beta(1,1) = pi/2."""
    label = f"beta({p},{q})"
    errs = []
    if alpha1 is not None and not beta >= alpha1:
        errs.append(f"{label} = {beta!r} below pi/3 + eps* = {alpha1!r}")
    alpha2 = necessary_alpha(p, q)
    if alpha2 is not None and not beta <= alpha2 + BETA_ALPHA2_SLACK:
        errs.append(f"{label} = {beta!r} above alpha_2 = {alpha2!r}")
    if (p, q) == (1, 1) and not abs(beta - math.pi / 2) < BETA_PI_HALF_TOL:
        errs.append(f"{label} = {beta!r} differs from pi/2")
    return errs


def expected_outcome(p, q, alpha, alpha1, beta, tol):
    """The verdict the bounds and the threshold force, or None where they force none."""
    if (p, q) == (0, 1):
        return "exists"
    if alpha1 is not None and alpha < alpha1:
        return "exists"
    alpha2 = necessary_alpha(p, q)
    if alpha2 is not None and alpha > alpha2:
        return "not_exists"
    if beta is not None and alpha < beta - tol:
        return "exists"
    if beta is not None and alpha > beta + tol:
        return "not_exists"
    return None


def check_verdict(verdict, p, q, alpha, alpha1, beta, tol):
    label = f"verdict ({p},{q}) at {alpha!r}"
    want = expected_outcome(p, q, alpha, alpha1, beta, tol)
    if want is not None and verdict.outcome != want:
        return [f"{label}: {verdict.outcome}, expected {want}"]
    if verdict.outcome != "exists":
        return []
    path = verdict.path
    errs = check_closed_simple(path, label) + check_midpoint_law(path, label)
    if not path.total_length < 2.0 * math.pi:
        errs.append(f"{label}: length {path.total_length!r} not below 2 pi")
    return errs

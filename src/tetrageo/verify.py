"""Deterministic invariant suite behind the `verify` subcommand.

Every check uses fixed seeds and a fixed evaluation order, so two runs
produce byte-identical reports.  The suite is a condensed version of the
package's test invariants: kernel isometries, the Euclidean length and
clearance laws, spherical base cases, a hyperbolic existence sample, the
projection bounds, totient identities and serialization round-trips.
"""

from __future__ import annotations

import math
import random

from . import report
from .combinat import GeodesicType, crossing_sequence, validate_sequence
from .counting import asymptotic_constant, count_exact, psi, psi_bruteforce, totient_sum
from .errors import TooLong
from .existence import hyperbolic_clearance_bound, hyperbolic_length_lower_bound, threshold_beta
from .geom import SpaceKind, Segment2, distance, projected_angle_pair, reflect_across
from .paths import GeodesicPath, euclid_geodesic, generic_hyperbolic_geodesic, midpoint_geodesic
from .tetra import TetrahedronSpec, edge_from_angle, generic_from_edges
from .unfold import build_development, symmetry_check


def _coprime_types(max_sum):
    out = []
    for n in range(1, max_sum + 1):
        for p in range(0, n // 2 + 1):
            q = n - p
            if p <= q and math.gcd(p, q) == 1 and (p, q) != (0, 0):
                out.append(GeodesicType(p, q))
    return out


def _random_point(rng, space):
    if space == SpaceKind.EUCLIDEAN:
        return (rng.uniform(-2, 2), rng.uniform(-2, 2))
    if space == SpaceKind.SPHERICAL:
        while True:
            v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            n = math.sqrt(sum(c * c for c in v))
            if n > 1e-6:
                return (v[0] / n, v[1] / n, v[2] / n)
    r = math.sqrt(rng.uniform(0, 0.9))
    phi = rng.uniform(0, 2 * math.pi)
    return (r * math.cos(phi), r * math.sin(phi))


def _check_euclid_laws():
    worst_len = 0.0
    worst_margin = 0.0
    ok = True
    for t in _coprime_types(12):
        path = euclid_geodesic(t)
        worst_len = max(worst_len, abs(path.total_length - 2.0 * math.sqrt(t.norm)))
        bound = math.sqrt(3.0) / (4.0 * math.sqrt(t.norm))
        worst_margin = max(worst_margin, bound - path.clearance)
        ok = ok and path.closed and path.simple and validate_sequence(
            crossing_sequence(t), t)
    return {"name": "euclid-length-and-clearance", "passed": bool(
        ok and worst_len < 1e-10 and worst_margin < 1e-12),
        "length_residual": worst_len, "clearance_deficit": worst_margin}


def _check_kernel_isometries():
    rng = random.Random(20240811)
    worst = 0.0
    for space in (SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL, SpaceKind.HYPERBOLIC):
        for _ in range(120):
            a = _random_point(rng, space)
            b = _random_point(rng, space)
            p = _random_point(rng, space)
            q = _random_point(rng, space)
            if distance(space, a, b) < 1e-6:
                continue
            seg = Segment2(a, b, space)
            p1 = reflect_across(space, seg, p)
            q1 = reflect_across(space, seg, q)
            p2 = reflect_across(space, seg, p1)
            worst = max(worst, distance(space, p, p2),
                        abs(distance(space, p, q) - distance(space, p1, q1)))
    return {"name": "reflection-involution-isometry", "passed": bool(worst < 1e-10),
            "residual": worst}


def _check_spherical_base():
    ok = True
    detail = {}
    for alpha in (1.2, 1.5, 1.9):
        r = midpoint_geodesic(TetrahedronSpec(SpaceKind.SPHERICAL, alpha), GeodesicType(0, 1))
        ok = ok and isinstance(r, GeodesicPath) and r.total_length < 2 * math.pi
    for alpha, want in ((1.35, True), (math.pi / 2 + 0.05, False)):
        try:
            r = midpoint_geodesic(TetrahedronSpec(SpaceKind.SPHERICAL, alpha), GeodesicType(1, 1))
            got = isinstance(r, GeodesicPath)
        except TooLong:
            got = False
        detail[f"(1,1)@{alpha:.3f}"] = got
        ok = ok and (got == want)
    return {"name": "spherical-base-cases", "passed": bool(ok), **detail}


def _check_midpoint_law():
    worst = 0.0
    for spec, t in ((TetrahedronSpec(SpaceKind.SPHERICAL, 1.10), GeodesicType(2, 3)),
                    (TetrahedronSpec(SpaceKind.HYPERBOLIC, 0.7), GeodesicType(1, 4)),
                    (TetrahedronSpec(SpaceKind.HYPERBOLIC, 0.3), GeodesicType(3, 4))):
        path = midpoint_geodesic(spec, t)
        n = len(path.crossings)
        for idx in (0, n // 4, n // 2, 3 * n // 4):
            worst = max(worst, abs(path.fractions[idx] - 0.5))
        worst = max(worst, path.closure_residual)
    return {"name": "curved-midpoint-law", "passed": bool(worst < 1e-8), "residual": worst}


def _check_hyperbolic_sample():
    ok = True
    for alpha in (0.3, 0.9):
        spec = TetrahedronSpec(SpaceKind.HYPERBOLIC, alpha)
        for t in _coprime_types(7):
            path = midpoint_geodesic(spec, t)
            good = (isinstance(path, GeodesicPath) and path.closed and path.simple
                    and path.total_length > hyperbolic_length_lower_bound(alpha, t)
                    and path.clearance > hyperbolic_clearance_bound(alpha))
            ok = ok and good
    return {"name": "hyperbolic-existence-sample", "passed": bool(ok)}


def _check_generic():
    a = edge_from_angle(SpaceKind.HYPERBOLIC, math.pi / 6)
    reg = generic_from_edges([a] * 6)
    rg = generic_hyperbolic_geodesic(reg, GeodesicType(1, 2))
    rm = midpoint_geodesic(TetrahedronSpec(SpaceKind.HYPERBOLIC, math.pi / 6), GeodesicType(1, 2))
    dmax = max(abs(f1 - f2) for f1, f2 in zip(rg.fractions, rm.fractions))
    skew = generic_from_edges([2.0, 2.0, 2.0, 2.2, 2.2, 2.2])
    rs = generic_hyperbolic_geodesic(skew, GeodesicType(1, 2))
    return {"name": "generic-hyperbolic", "passed": bool(
        dmax < 1e-8 and rs.closed and rs.simple),
        "regular_match": dmax, "skew_residual": rs.closure_residual}


def _check_projection_bounds():
    rng = random.Random(1729)
    cos12 = math.cos(math.pi / 12.0)
    violations = 0
    for _ in range(200):
        eps = rng.uniform(1e-6, math.pi / 6 - 1e-6)
        a = edge_from_angle(SpaceKind.SPHERICAL, math.pi / 3 + eps)
        if not a < math.pi * math.sqrt(2.0 * cos12) * math.sqrt(eps):
            violations += 1
        r_max = min(20.0, 0.95 * (math.pi / (2.0 * a) - 1.0))
        if r_max <= 0:
            continue
        r = rng.uniform(0.0, r_max)
        lhat = math.sin(a) / (a * math.cos(a * r) * math.cos(a * (r + 1.0)))
        bound = cos12 * (4.0 + math.pi ** 2 * (2 * r + 1) ** 2) / (
            1.0 - (2.0 / math.pi) * a * (r + 1.0)) ** 2 * eps
        if not lhat - 1.0 < bound:
            violations += 1
        phi1 = rng.uniform(0.05, math.pi - 0.05)
        alpha = math.pi / 3 + eps
        got_alpha, got_hat = projected_angle_pair(a * r, math.cos(phi1),
                                                  math.cos(phi1 - alpha))
        if abs(got_alpha - alpha) < 1e-9:
            if not abs(got_hat - math.pi / 3) < math.pi * math.tan(a * r) ** 2 + eps:
                violations += 1
    return {"name": "projection-bounds", "passed": violations == 0,
            "violations": violations}


def _check_totients():
    x = 2000
    brute = psi_bruteforce(x)
    ident = psi(x)
    ratio = totient_sum(x) / (x * x)
    consts = asymptotic_constant(0.5)
    return {"name": "totient-identities", "passed": bool(
        brute == ident and abs(ratio - 3.0 / math.pi ** 2) < 0.01
        and consts["c_derived"] < consts["c_printed"]),
        "psi": ident, "ratio": ratio}


def _check_count():
    rep = count_exact(14.0, 0.6)
    return {"name": "count-multiplicity", "passed": rep.exact_count % 3 == 0
            and rep.exact_count <= rep.bound_count,
            "exact": rep.exact_count, "bound": rep.bound_count}


def _check_threshold():
    res = threshold_beta(GeodesicType(1, 1), tol=1e-5)
    return {"name": "threshold-(1,1)", "passed": bool(abs(res.beta - math.pi / 2) < 1e-4),
            "beta": res.beta}


def _check_round_trip():
    t = GeodesicType(1, 2)
    spec = TetrahedronSpec(SpaceKind.HYPERBOLIC, 0.5)
    path = midpoint_geodesic(spec, t)
    dev = build_development(spec, crossing_sequence(t))
    ok = True
    for doc in (report.path_to_dict(path), report.development_to_dict(dev)):
        text = report.dumps(doc)
        again = report.dumps(report.loads(text))
        ok = ok and (text == again) and report.loads(text) == report.loads(again)
    ok = ok and symmetry_check(dev)
    return {"name": "serialization-round-trip", "passed": bool(ok)}


def run_verification():
    """Run every deterministic check; returns the report document."""
    checks = [
        _check_euclid_laws(),
        _check_kernel_isometries(),
        _check_spherical_base(),
        _check_midpoint_law(),
        _check_hyperbolic_sample(),
        _check_generic(),
        _check_projection_bounds(),
        _check_totients(),
        _check_count(),
        _check_threshold(),
        _check_round_trip(),
    ]
    return {"passed": all(c["passed"] for c in checks), "checks": checks}

"""Print one line per construction case, for a bit-for-bit comparison of two commits.

Each line is a case label and its outcome: every GeodesicPath field but
``extras`` by repr, or the NotContained witness, or the exception's type
and message.  The cases:

* the sphere on an alpha grid over (pi/3, 2pi/3), just above pi/3, and
  around each type's threshold beta;
* the hyperboloid at alpha in {1e-6, 0.05, 0.5, 1.0}, and at 3e-8 to p+q = 60;
* the Euclidean tiling paths;
* generic hyperbolic geodesics on the regular pi/6 spec and on seeded
  random specs drawn as in acceptance criterion 08;
* existence verdicts on the spherical_existence benchmark's grid.

Usage, from a checkout's root (about 5 s)::

    PYTHONPATH=src python tools/snapshot.py > after.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys

from tetrageo.combinat import GeodesicType
from tetrageo.errors import NoThreshold
from tetrageo.existence import ExistenceVerdict, exists_geodesic, threshold_beta
from tetrageo.geom import SpaceKind
from tetrageo.paths import (GeodesicPath, euclid_geodesic, generic_hyperbolic_geodesic,
                            midpoint_geodesic)
from tetrageo.tetra import TetrahedronSpec, edge_from_angle, generic_from_edges

S, H = SpaceKind.SPHERICAL, SpaceKind.HYPERBOLIC


def coprime_types(max_sum):
    """All (p, q) with 0 <= p <= q, gcd 1 and p + q <= max_sum, by p + q then p."""
    return [(p, n - p) for n in range(1, max_sum + 1) for p in range(n // 2 + 1)
            if math.gcd(p, n - p) == 1]


def path_fields(path):
    """Every field of a GeodesicPath but extras, by repr."""
    return repr(tuple(getattr(path, f.name) for f in dataclasses.fields(path)
                      if f.name != "extras"))


def outcome(call):
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, GeodesicPath):
        return path_fields(result)
    if isinstance(result, ExistenceVerdict):
        path = path_fields(result.path) if result.path is not None else None
        return repr((result.outcome, result.reason, result.alpha1, result.alpha2, result.beta,
                     path))
    return repr(result)


def spherical_alphas(pq):
    """The grid, pi/3 + 10^-j, and beta +- 10^-j of the type's tol-1e-12 threshold."""
    third = math.pi / 3
    alphas = [third + third * k / 96 for k in range(1, 96)]
    alphas += [third + 10.0 ** -j for j in range(4, 10)]
    try:
        beta = threshold_beta(GeodesicType(*pq), 1e-12).beta
    except NoThreshold:
        return alphas
    return alphas + [beta + sign * 10.0 ** -j for j in range(5, 12) for sign in (-1, 1)]


def random_generic_specs(rng, count):
    """Tetrahedra with all planar angles <= pi/4, drawn as in acceptance criterion 08."""
    out = []
    while len(out) < count:
        base = rng.uniform(1.9, 2.2)
        spec = generic_from_edges([base * (1.0 + rng.uniform(-0.05, 0.05)) for _ in range(6)])
        if spec.all_angles_le(math.pi / 4):
            out.append(spec)
    return out


def cases():
    for pq in coprime_types(16):
        t = GeodesicType(*pq)
        for alpha in spherical_alphas(pq):
            yield f"S {alpha!r} {pq}", lambda a=alpha, t=t: midpoint_geodesic(
                TetrahedronSpec(S, a), t)
    for alpha in (1e-6, 0.05, 0.5, 1.0):
        spec = TetrahedronSpec(H, alpha)
        for pq in coprime_types(20):
            yield f"H {alpha!r} {pq}", lambda s=spec, t=GeodesicType(*pq): midpoint_geodesic(s, t)
    ideal = TetrahedronSpec(H, 3e-8)      # most types p+q > 40 fail here (NumericalFailure)
    for pq in coprime_types(60):
        yield f"H 3e-08 {pq}", lambda t=GeodesicType(*pq): midpoint_geodesic(ideal, t)
    for pq in coprime_types(40):
        yield f"E {pq}", lambda t=GeodesicType(*pq): euclid_geodesic(t)
    regular = generic_from_edges([edge_from_angle(H, math.pi / 6)] * 6)
    for pq in coprime_types(8):
        yield f"generic regular {pq}", lambda t=GeodesicType(*pq): generic_hyperbolic_geodesic(
            regular, t)
    for seed in range(3):
        for i, spec in enumerate(random_generic_specs(random.Random(seed), 32)):
            for pq in ((1, 1), (1, 2), (2, 3), (3, 5)):
                yield f"generic {seed}.{i} {pq}", lambda s=spec, t=GeodesicType(*pq): (
                    generic_hyperbolic_geodesic(s, t))
    for alpha in (1.05 + 0.01 * k for k in range(36)):
        spec = TetrahedronSpec(S, alpha)
        for pq in coprime_types(7):
            yield f"verdict {alpha!r} {pq}", lambda s=spec, t=GeodesicType(*pq): exists_geodesic(
                s, t)


def main():
    out = sys.stdout
    for label, call in cases():
        out.write(f"{label}\t{outcome(call)}\n")


if __name__ == "__main__":
    main()

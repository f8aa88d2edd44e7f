"""Outputs frozen before a change that must not move them.

tests/data/frozen_outputs.json holds the repr of the count_exact(40, alpha)
rows for alpha in {0.3, 0.5, 0.9} and of the midpoint_geodesic lengths and
fractions for every type p+q <= 12 at alpha in {0.05, 0.5, 1.0}, frozen
before the step table and the static word tables and re-taken when the
hyperbolic quarter solve began from the shot chord instead of the
Euclidean fractions (which moved them by rounding); every value must stay
the same to the last bit, so the test compares the reprs exactly.

Lengths and clearances were frozen as measured on the whole closed chain.
The library now measures a midpoint path on its quarter chain, which moves
them by rounding; so the frozen reprs are matched by path_metrics given
every fraction of the path (which pins the fractions and that closed-chain
measure to the bit), and the path's own length and clearance must lie
within REL_TOL of them.

Its "spherical" part holds decisions only, frozen before the spherical
quarter chord moved from the global chart to edge-local frames: the
midpoint_geodesic outcome (the witness face and edge, or the exception)
for every type p+q <= 7 at alpha = 1.05 + 0.01 k, k < 36, and the repr of
the threshold_beta(t, 1e-6) bracket of every type p+q <= 8 with a
necessary bound, and (1, 1).  The brackets were re-taken twice, every
decision entry staying byte for byte the same: when the threshold
search moved from bisection to Brent's method on the length margin, and
when the threshold became the least root of the integer trace
polynomial (existence.trace_polynomial), bracketed in exact arithmetic
instead of by the containment predicate.  The predicate fails up to
about 1.6e-9 below that root, so the containment bracket of (1, 1) ended
9.8e-10 short of pi/2; the other 10 new brackets overlap the old ones.

Its "generic" part pins generic_hyperbolic_geodesic and its
"spherical_lengths" part the spherical midpoint lengths, both frozen
before the chord solver's Newton iterate was fused into one pass: the
repr of the fractions, s0, length and clearance of types (1,1), (1,2),
(2,3) and (3,5) on the regular pi/6 tetrahedron and on GENERIC_SPECS
seeded random ones with every angle <= pi/4 (or the exception a
construction raises), and the repr of the midpoint_geodesic length and
clearance of every type p+q <= 7 at every fifth alpha of the spherical
grid (or its outcome).  The "generic" part was re-taken twice, each time
moved by rounding only: when the closed solve began from the axis of the
chain's holonomy instead of the Euclidean fractions, and when the cyclic
Newton system gave way to the pinned solve, both ends held at the offset
s0 where the holonomy's axis meets e_0 (7 of its 20 entries moved, by
1 to 3 ulps).

The "count_exact" and "spherical_lengths" parts were re-taken when
geom.rpoint_seg_dist began to place the foot of the perpendicular by two
signs, without the relative tie band in which the clearance kernel had
handed its calls to the projected foot.  Only (1, 1) clearances moved,
by 1 or 2 ulps: the count row at alpha = 0.5 and four spherical lengths
entries, where the band had decided a tie.

Its "own_measures" part pins what the library itself reports, to the
bit: the repr of each of those midpoint paths' own total_length,
clearance and closure_residual (measured on its quarter chain), under
"path ALPHA", and of the count_exact(40, alpha) rows, under "count ALPHA".
It was frozen before the quarter construction and the fold-back were
trimmed of their per-call detours, which had to leave every bit in place.

The "count_exact", "midpoint_geodesic", "own_measures" and "verify" parts
were re-taken when the hyperbolic quarter chord came from X1 and Y1 carried
toward each other instead of a Newton solve pinned at them, which stopped
at a step of 1e-13.  All 3 count_exact entries moved, 67 of 72
midpoint_geodesic entries and 70 of 75 own_measures entries, by rounding
only: fractions by up to 3.2e-14 ((5, 6) at alpha = 0.5), lengths by up to
7.9e-16 relative, clearances by up to 2.4e-13 relative ((1, 15) at alpha =
0.9) and closure residuals by up to 2.1e-13, the largest of them falling
from 2.1e-13 to 1.3e-15 at alpha = 0.5.  The verify report moved by one
line, a residual from 7.99e-15 to 5.77e-15.  The other parts did not move.
The "own_measures" part was re-taken once more when the clearance kernel
measured a far vertex's distance to a segment end as acosh(-<V, E>) past
cosh 2 (geom._end_distance): one entry moved, the (1, 1) clearance at
alpha = 0.05, from 3.341941209354212 to 3.3419412093542094, 2 ulps under
the exact 3.34194120935421034 where it had been 4 over.

The "generic" and "verify" parts were re-taken when the closed chord came
from the holonomy's two ideal fixed points, carried toward each other,
instead of a Newton solve pinned at the axis's s0, which stopped at a step
of 1e-13.  All 20 generic entries moved, by rounding only: fractions by up
to 4.8e-14 ((2, 3) on spec 2), s0 by up to 2.2e-16 relative, lengths by up
to 2.4e-16 relative and clearances by up to 1.1e-15 relative.  The verify
report moved by two lines, both the generic check's: regular_match from
9.77e-15 to 4.44e-16 and skew_residual from 8.88e-16 to 6.66e-16.  The
other parts did not move.

Its "verify" part holds report.dumps of run_verification(), the document
that ``python -m tetrageo verify`` prints, under the key "report".  The
file is written by

    PYTHONPATH=src python tests/test_frozen_outputs.py [PART ...]

which re-takes only the named parts, every other part left byte for
byte as it was, or every part when none is named.
"""

import json
import math
import random
import sys
from pathlib import Path

from conftest import coprime_types
from tetrageo import (GeodesicType, SpaceKind, TetrahedronSpec, count_exact, midpoint_geodesic,
                      report)
from tetrageo.errors import BoundVacuous
from tetrageo.existence import necessary_alpha_bound, threshold_beta
from tetrageo.paths import NotContained, generic_hyperbolic_geodesic, path_metrics
from tetrageo.tetra import edge_from_angle, generic_from_edges
from tetrageo.verify import run_verification

FROZEN = Path(__file__).resolve().parent / "data" / "frozen_outputs.json"
REL_TOL = 1e-13   # quarter-chain against closed-chain length and clearance
GENERIC_TYPES = ((1, 1), (1, 2), (2, 3), (3, 5))
GENERIC_SPECS = 4


def _outcome(spec, t):
    try:
        result = midpoint_geodesic(spec, t)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc).__name__
    if isinstance(result, NotContained):
        return ("witness", result.face_index, result.edge)
    return "path"


def _has_threshold(t):
    try:
        necessary_alpha_bound(t)
    except BoundVacuous:
        return (t.p, t.q) == (1, 1)
    return True


def spherical_decisions():
    out = {}
    for k in range(36):
        alpha = 1.05 + 0.01 * k
        spec = TetrahedronSpec(SpaceKind.SPHERICAL, alpha)
        out[repr(alpha)] = [repr((p, q, _outcome(spec, GeodesicType(p, q))))
                            for p, q in coprime_types(7)]
    for p, q in coprime_types(8):
        t = GeodesicType(p, q)
        if _has_threshold(t):
            bracket = threshold_beta(t, 1e-6)
            out[repr((p, q))] = repr((bracket.lo, bracket.hi))
    return out


def generic_specs():
    """The regular pi/6 tetrahedron and GENERIC_SPECS seeded ones with every angle <= pi/4."""
    regular = edge_from_angle(SpaceKind.HYPERBOLIC, math.pi / 6)
    specs = {"regular": generic_from_edges([regular] * 6)}
    rng = random.Random(15)
    while len(specs) <= GENERIC_SPECS:
        base = rng.uniform(1.9, 2.2)
        spec = generic_from_edges([base * (1.0 + rng.uniform(-0.05, 0.05)) for _ in range(6)])
        if spec.all_angles_le(math.pi / 4):
            specs[repr(len(specs))] = spec
    return specs


def generic_outputs():
    out = {}
    for name, spec in generic_specs().items():
        out[name] = []
        for p, q in GENERIC_TYPES:
            try:
                path = generic_hyperbolic_geodesic(spec, GeodesicType(p, q))
            except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
                out[name].append(repr((p, q, type(exc).__name__)))
                continue
            out[name].append(repr((p, q, path.fractions, path.extras["s0"], path.total_length,
                                   path.clearance)))
    return out


def _measured_outcome(spec, t):
    try:
        result = midpoint_geodesic(spec, t)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc).__name__
    if isinstance(result, NotContained):
        return ("witness", result.face_index, result.edge)
    return result.total_length, result.clearance


def spherical_lengths():
    out = {}
    for k in range(0, 36, 5):
        alpha = 1.05 + 0.01 * k
        spec = TetrahedronSpec(SpaceKind.SPHERICAL, alpha)
        out[repr(alpha)] = [repr((p, q, _measured_outcome(spec, GeodesicType(p, q))))
                            for p, q in coprime_types(7)]
    return out


def _closed_chain_path(spec, p, q):
    """The midpoint path of type (p, q), and its length and clearance on the whole closed chain."""
    path = midpoint_geodesic(spec, GeodesicType(p, q))
    length, clearance, _ = path_metrics(spec, path.tokens, path.fractions)
    return path, length, clearance


def frozen_outputs():
    """The frozen parts, and (key, closed-chain value, library value) per length and clearance."""
    measured = []
    counts, own = {}, {}
    for alpha in (0.3, 0.5, 0.9):
        spec = TetrahedronSpec(SpaceKind.HYPERBOLIC, alpha)
        rows = []
        own_rows = count_exact(40, alpha).lengths
        own["count " + repr(alpha)] = repr(tuple(own_rows))
        for p, q, length, clearance in own_rows:
            _, closed_length, closed_clearance = _closed_chain_path(spec, p, q)
            rows.append((p, q, closed_length, closed_clearance))
            measured += [(("count", alpha, p, q), closed_length, length),
                         (("count", alpha, p, q), closed_clearance, clearance)]
        counts[repr(alpha)] = repr(tuple(rows))
    paths = {}
    for alpha in (0.05, 0.5, 1.0):
        spec = TetrahedronSpec(SpaceKind.HYPERBOLIC, alpha)
        paths[repr(alpha)], own["path " + repr(alpha)] = [], []
        for p, q in coprime_types(12):
            path, closed_length, _ = _closed_chain_path(spec, p, q)
            paths[repr(alpha)].append(repr((p, q, closed_length, path.fractions)))
            own["path " + repr(alpha)].append(repr((p, q, path.total_length, path.clearance,
                                                    path.closure_residual)))
            measured.append((("path", alpha, p, q), closed_length, path.total_length))
    outputs = {"count_exact": counts, "midpoint_geodesic": paths,
               "spherical": spherical_decisions(), "generic": generic_outputs(),
               "spherical_lengths": spherical_lengths(), "own_measures": own,
               "verify": {"report": report.dumps(run_verification())}}
    return outputs, measured


def test_outputs_match_frozen_reprs():
    frozen = json.loads(FROZEN.read_text())
    outputs, measured = frozen_outputs()
    for part in ("count_exact", "midpoint_geodesic", "spherical", "generic",
                 "spherical_lengths", "own_measures", "verify"):
        assert outputs[part].keys() == frozen[part].keys()
        for key, value in frozen[part].items():
            assert outputs[part][key] == value, (part, key)
    for key, closed, own in measured:
        assert math.isfinite(own) and abs(own - closed) <= REL_TOL * closed, (key, closed, own)


if __name__ == "__main__":
    outputs = frozen_outputs()[0]
    parts = sys.argv[1:] or list(outputs)
    if not set(parts) <= outputs.keys():
        sys.exit(f"unknown parts {sorted(set(parts) - outputs.keys())}; the parts are "
                 f"{', '.join(outputs)}")
    frozen = json.loads(FROZEN.read_text()) if sys.argv[1:] else {}
    frozen.update((part, outputs[part]) for part in parts)
    FROZEN.write_text(json.dumps(frozen, indent=1) + "\n")

"""Tests of the benchmark's own checks, tracer and result format.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Each check first passes a correct result computed by tetrageo, then must
reject a deliberately wrong copy of it.  The file is not named test_*.py,
so the repository's own test run does not collect it.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tetrageo import counting, existence, paths  # noqa: E402
from tetrageo.combinat import GeodesicType  # noqa: E402
from tetrageo.geom import SpaceKind  # noqa: E402
from tetrageo.tetra import TetrahedronSpec, generic_from_edges  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import Op  # noqa: E402

ALPHA = 0.5
H_SPEC = TetrahedronSpec(SpaceKind.HYPERBOLIC, ALPHA)


def _h_path(p=1, q=2):
    return paths.midpoint_geodesic(H_SPEC, GeodesicType(p, q))


def _off_midpoint(path, delta):
    fracs = list(path.fractions)
    fracs[len(fracs) // 4] += delta
    return dataclasses.replace(path, crossings=tuple(zip(path.tokens, fracs)))


def test_hyperbolic_path_passes():
    assert checks.check_hyperbolic_path(_h_path(), ALPHA, H_SPEC.edge, 1, 2, "ok") == []


def test_length_under_lower_bound_rejected():
    bound = checks.length_lower_bound(ALPHA, 1, 2)
    bad = dataclasses.replace(_h_path(), total_length=0.99 * bound)
    assert checks.check_hyperbolic_bounds(bad, ALPHA, 1, 2, "bad")


def test_clearance_under_bound_rejected():
    bad = dataclasses.replace(_h_path(), clearance=0.5 * checks.clearance_bound(ALPHA))
    assert checks.check_hyperbolic_bounds(bad, ALPHA, 1, 2, "bad")


def test_fraction_off_midpoint_rejected():
    assert checks.check_midpoint_law(_off_midpoint(_h_path(), 1e-6), "bad")


def test_not_closed_or_not_simple_rejected():
    path = _h_path()
    assert checks.check_closed_simple(dataclasses.replace(path, closure_residual=1e-6,
                                                          closed=False), "bad")
    assert checks.check_closed_simple(dataclasses.replace(path, simple=False), "bad")


def test_wrong_multiplicities_rejected():
    path = _h_path()
    assert checks.check_multiplicities(path, 1, 2, "ok") == []
    assert checks.check_multiplicities(path, 1, 3, "bad")
    crossings = list(path.crossings)
    crossings[1] = ("12" if crossings[1][0] != "12" else "13", crossings[1][1])
    assert checks.check_multiplicities(dataclasses.replace(path, crossings=tuple(crossings)),
                                       1, 2, "bad")


def test_flat_deficit_out_of_range_rejected():
    path = _h_path()
    euclid = 2.0 * H_SPEC.edge * math.sqrt(7.0)
    assert checks.check_flat_deficit(dataclasses.replace(path, total_length=1.01 * euclid),
                                     H_SPEC.edge, ALPHA, 1, 2, "bad")
    assert checks.check_flat_deficit(dataclasses.replace(path, total_length=0.01 * euclid),
                                     H_SPEC.edge, ALPHA, 1, 2, "bad")


def test_generic_regular_match():
    a = H_SPEC.edge
    generic = paths.generic_hyperbolic_geodesic(generic_from_edges([a] * 6), GeodesicType(1, 2))
    reference = _h_path()
    assert checks.check_matches_midpoint(generic, reference, "ok") == []
    assert checks.check_matches_midpoint(_off_midpoint(generic, 1e-6), reference, "bad")


def test_count_report_checks():
    report = counting.count_exact(20.0, ALPHA)
    assert checks.check_count_report(report, 20.0, ALPHA) == []
    too_high = dataclasses.replace(report, bound_count=report.bound_count + 3)
    assert checks.check_count_report(too_high, 20.0, ALPHA)
    wrong_exact = dataclasses.replace(report, exact_count=report.exact_count - 3)
    assert checks.check_count_report(wrong_exact, 20.0, ALPHA)
    p, q, length, clearance = report.lengths[-1]
    short = report.lengths[:-1] + ((p, q, 0.5 * checks.length_lower_bound(ALPHA, p, q),
                                    clearance),)
    assert checks.check_count_report(dataclasses.replace(report, lengths=short), 20.0, ALPHA)
    missing = report.lengths[:-1] + ((p, q, math.inf, 0.0),)
    assert checks.check_count_report(dataclasses.replace(report, lengths=missing), 20.0, ALPHA)


def test_ladder_rows_must_agree():
    report = counting.count_exact(20.0, ALPHA)
    assert checks.check_ladder_rows([report, report]) == []
    p, q, length, clearance = report.lengths[0]
    moved = dataclasses.replace(report, lengths=((p, q, length + 1e-9, clearance),)
                                + report.lengths[1:])
    assert checks.check_ladder_rows([report, moved])


def test_admissible_count_matches_enumeration():
    for L in (20.0, 40.0):
        bound = checks.length_lower_bound
        brute = sum(1 for p, q in checks.coprime_types(60) if bound(ALPHA, p, q) <= L)
        assert checks.admissible_count(L, ALPHA) == brute


def test_threshold_checks():
    a2 = checks.necessary_alpha(1, 2)
    assert checks.check_threshold(1, 2, a2 - 0.01, None) == []
    assert checks.check_threshold(1, 2, a2 + 1e-4, None)
    assert checks.check_threshold(1, 2, 1.1, 1.2)
    assert checks.check_threshold(1, 1, math.pi / 2, None) == []
    assert checks.check_threshold(1, 1, math.pi / 2 + 1e-4, None)


def test_verdict_checks():
    t = GeodesicType(1, 2)
    alpha2 = checks.necessary_alpha(1, 2)
    beta = 1.2566374736
    below = existence.exists_geodesic(TetrahedronSpec(SpaceKind.SPHERICAL, 1.2), t)
    assert below.outcome == "exists"
    assert checks.check_verdict(below, 1, 2, 1.2, None, beta, 1e-6) == []
    above = dataclasses.replace(below, alpha=alpha2 + 0.01)
    assert checks.check_verdict(above, 1, 2, alpha2 + 0.01, None, None, 1e-6)
    past_beta = dataclasses.replace(below, outcome="not_exists", path=None)
    assert checks.check_verdict(past_beta, 1, 2, 1.2, None, beta, 1e-6)
    too_long = dataclasses.replace(below, path=dataclasses.replace(below.path,
                                                                   total_length=2 * math.pi))
    assert checks.check_verdict(too_long, 1, 2, 1.2, None, beta, 1e-6)
    off = dataclasses.replace(below, path=_off_midpoint(below.path, 1e-6))
    assert checks.check_verdict(off, 1, 2, 1.2, None, beta, 1e-6)
    zero_one = dataclasses.replace(below, outcome="not_exists", path=None)
    assert checks.check_verdict(zero_one, 0, 1, 1.9, None, None, 1e-6)


def test_tracer_self_time_and_restore():
    original = paths.simplicity_check
    tracer = Tracer().install()
    try:
        paths.midpoint_geodesic(H_SPEC, GeodesicType(1, 2))
    finally:
        tracer.restore()
    assert paths.simplicity_check is original
    totals = tracer.layer_totals()
    assert totals["paths.midpoint_geodesic.calls"] == 1
    assert totals["paths.simplicity_check.calls"] == 1
    assert totals["geom.rside_measure.calls"] > 0
    root = next(s for s in tracer.spans if s[0] == "paths.midpoint_geodesic")
    spent = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert abs(spent - (root[2] - root[1])) < 1e-9


def test_pass_counts_faults_and_scales_times():
    def fail(message):
        raise RuntimeError(message)

    ops = [Op(("ok",), lambda: 1),
           Op(("named",), lambda: fail("known stall"), known_fault="known stall"),
           Op(("other",), lambda: fail("surprise"), known_fault="known stall")]
    timings, results, faults, errors = worker.run_pass(ops)
    assert results == [1, None, None]
    assert timings["latencies"][0] > 0 and timings["latencies"][1:] == [None, None]
    assert [f[0] for f in faults] == [repr(("named",))]
    assert len(errors) == 1 and "surprise" in errors[0]
    assert timings["wall_s"] > 0 and timings["scale"] > 0


def test_percentile_puts_failures_last():
    lat = [0.1 * i for i in range(1, 101)] + [None]
    assert run.percentile(lat, 0.5) == lat[50]
    assert run.percentile(lat, 0.99) == lat[99]
    try:
        run.percentile([0.1, None], 0.99)
    except run.BenchmarkError:
        pass
    else:
        raise AssertionError("a percentile on a failed operation must not pass")


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")

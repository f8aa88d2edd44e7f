"""The benchmark's count checks (perfbench/checks.py) against count_exact.

The count_ladder workload calls ``count_exact(L, alpha, jobs=1)`` at
L = 20, 30, 40 and checks each report and the rows across the ladder, so
a change to the count's rows or signature shows here before it fails a
benchmark run.
"""

import importlib.util
from pathlib import Path

from tetrageo import counting

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
LADDER = (20.0, 30.0, 40.0)


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_ladder_passes_the_benchmark_checks(monkeypatch):
    checks = _checks()
    counting._measure_type.cache_clear()
    ladder = [counting.count_exact(L, 0.5, jobs=1) for L in LADDER]
    for L, report in zip(LADDER, ladder):
        assert checks.check_count_report(report, L, 0.5) == []
    assert checks.check_ladder_rows(ladder) == []
    # a repeated ladder reads every row from the cache
    calls = []
    real = counting.midpoint_geodesic
    monkeypatch.setattr(counting, "midpoint_geodesic",
                        lambda spec, t: calls.append((t.p, t.q)) or real(spec, t))
    assert [counting.count_exact(L, 0.5, jobs=1) for L in LADDER] == ladder
    assert calls == []

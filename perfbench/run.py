"""Benchmark of the tetrageo geodesic pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round is a fresh interpreter
(``worker.py``) that imports ``tetrageo`` from ``src/``, builds the
workload's inputs from the seed and makes one pass over them; rounds
repeat until S seconds have passed, so a run always holds whole rounds
of the same operations.  With ``--trace 0`` the last line of standard
output is a JSON object holding the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and it holds the
per-layer metrics.  Spans of the traced rounds are written to
``.bench_build/spans/``.  See README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("count_ladder", "hyperbolic_sweep", "generic_bisection", "spherical_existence")
MIN_SETUPS = 5          # set-up time is the median of at least this many cold starts
RUN_LIMIT_S = 170.0     # no round starts that could end a run past this

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s"}
PER_LAYER = {
    "combinat.trace_crossings.calls": "count",
    "combinat.trace_crossings.self_s": "s",
    "frames.build_chain.self_s": "s",
    "frames.shoot_chord.calls": "count",
    "frames.shoot_chord.self_s": "s",
    "frames.propagate_chord.calls": "count",
    "frames.relax_chord.calls": "count",
    "frames.relax_chord.self_s": "s",
    "frames.trace_geometry.self_s": "s",
    "paths.midpoint_geodesic.calls": "count",
    "paths.midpoint_geodesic.self_s": "s",
    "paths.generic_hyperbolic_geodesic.self_s": "s",
    "paths.full_fractions_from_quarter.self_s": "s",
    "paths.path_metrics.self_s": "s",
    "paths.simplicity_check.calls": "count",
    "paths.simplicity_check.self_s": "s",
    "geom.rside_measure.calls": "count",
    "geom.rdistance.calls": "count",
    "geom.rangle.calls": "count",
    "existence.threshold_beta.self_s": "s",
    "existence.exists_geodesic.self_s": "s",
    "existence.abstract_shortest_curve_length.calls": "count",
    "existence.abstract_shortest_curve_length.self_s": "s",
    "counting.admissible_types.self_s": "s",
    "counting.count_exact.self_s": "s",
    "tetra.generic_from_edges.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    pass


def percentile(latencies, q):
    """Nearest-rank percentile; a failed operation (None) is slower than any success."""
    ordered = sorted(math.inf if x is None else x for x in latencies)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    if value == math.inf:
        raise BenchmarkError(f"the {q:.0%} latency falls on a failed operation")
    return value


def git_revision():
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, deadline):
    """Run worker.py once and return its JSON result."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args,
                               "--spawned-at", repr(started)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"round {args} passed the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"round {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload, seed, seconds, trace):
    """Whole rounds until `seconds` have passed; traced runs alternate both kinds."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    plain, traced = [], []
    longest = 0.0
    while not plain or time.monotonic() - start < seconds:
        if time.monotonic() + longest > deadline:
            break
        t0 = time.monotonic()
        plain.append(spawn(base, deadline))
        if trace:
            spans = ROOT / ".bench_build" / "spans" / f"{workload}-seed{seed}-round{len(traced)}.jsonl"
            traced.append(spawn(base + ["--trace", "--spans", str(spans)], deadline))
        longest = max(longest, time.monotonic() - t0)
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(base + ["--setup-only"], deadline)["setup_s"])
    return plain, traced, setups


def summarize(plain, traced, setups):
    rounds = plain + traced
    latencies = [x for r in rounds for x in r["latencies"]]
    failed = sum(1 for x in latencies if x is None)
    errors = [e for r in rounds for e in r["errors"]]
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_p50_s": percentile(latencies, 0.50),
            "op_p90_s": percentile(latencies, 0.90),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": not errors, "attempted": len(latencies), "failed": failed,
            "metrics": metrics}, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tetrageo" / "__init__.py").is_file():
        print(f"no tetrageo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced, setups = run_rounds(args.workload, args.seed, args.seconds, args.trace)
        result, errors = summarize(plain, traced, setups)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    faults = sorted({f[0] + " " + f[1] for r in plain + traced for f in r["faults"]})
    print(f"env python={platform.python_version()} cores={os.cpu_count()} "
          f"revision={git_revision()}")
    print(f"workload={args.workload} seed={args.seed} rounds={len(plain)} "
          f"traced_rounds={len(traced)} attempted={result['attempted']} failed={result['failed']}")
    print(f"clock: wall {statistics.median(r['raw_wall_s'] for r in plain)!r} s, "
          f"{statistics.median(r['scale'] for r in plain)!r} reference s per s")
    for fault in faults:
        print(f"named fault: {fault}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

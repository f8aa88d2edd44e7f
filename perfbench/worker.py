"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
                                [--trace [--spans FILE]] [--setup-only]

Imports ``tetrageo`` from ``src/`` of the checkout this file sits in,
builds the workload's inputs from the seed, makes one timed pass over
them, checks every output and prints one JSON line:

    setup_s      seconds from the spawn (time.monotonic() T, read by the
                 parent just before it started this process) to the first
                 timed call
    wall_s       duration of the pass
    latencies    per-operation durations, null where the call raised
    raw_wall_s   wall_s as the clock read it
    scale        reference seconds per clock second, over the whole pass
    faults       [op, error] for calls that raised a named fault
    errors       failed checks and unexpected exceptions
    layers       per-layer totals of the pass (with --trace)

Pass times are in reference seconds.  The speed of a shared host drifts
by up to a factor of 1.8 within a minute, so the pass also times a fixed
piece of pure-Python work (the reference) between operations, at least
every REFERENCE_EVERY_S, and scales each duration by REFERENCE_S over the
reference's median duration around it.  A reference second is a second
on a core that runs the reference in REFERENCE_S.  With --setup-only it
stops after building the inputs.
"""

import argparse
import bisect
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_S = 0.005         # the reference in the calibration host's fast state
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 1.5    # wide enough to smooth single samples, narrow enough to follow the host


def _import_tetrageo():
    sys.path.insert(0, str(SRC))
    import tetrageo
    if Path(tetrageo.__file__).resolve().parent != SRC / "tetrageo":
        raise SystemExit(f"tetrageo imported from {tetrageo.__file__}, not from {SRC}")


def reference_work():
    """Fixed pure-Python float work, like the library's inner loops."""
    acc = 0.0
    for i in range(20000):
        x = (i % 97) * 0.01
        v = (math.cosh(x), math.sinh(x), 0.5 * x)
        acc += math.sqrt(v[0] * v[0] - v[1] * v[1] + v[2] * v[2])
    return acc


def time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def run_pass(ops):
    """One timed pass; returns (timings, results, faults, errors).

    Each duration is scaled by REFERENCE_S over the median of the
    reference samples taken within REFERENCE_WINDOW_S of the operation,
    or within its own duration if that is longer.
    """
    clock = time.perf_counter
    stamps, samples = [clock()], [time_reference()]
    spans, failed, results, faults, errors = [], [], [], [], []
    for op in ops:
        t0 = clock()
        ok = True
        try:
            res = op.call()
        except Exception as exc:  # counted as a failed operation, the pass goes on
            res, ok = None, False
            if op.known_fault is not None and op.known_fault in str(exc):
                faults.append([repr(op.key), repr(exc)])
            else:
                errors.append(f"{op.key}: unexpected {exc!r}")
        t1 = clock()
        spans.append((t0, t1))
        failed.append(not ok)
        results.append(res)
        if t1 - stamps[-1] >= REFERENCE_EVERY_S:
            stamps.append(t1)
            samples.append(time_reference())
    stamps.append(clock())
    samples.append(time_reference())
    scaled = []
    for t0, t1 in spans:
        w = max(REFERENCE_WINDOW_S, t1 - t0)
        near = samples[bisect.bisect_left(stamps, t0 - w):bisect.bisect_right(stamps, t1 + w)]
        scaled.append((t1 - t0) * REFERENCE_S / statistics.median(near))
    timings = {
        "wall_s": sum(scaled),
        "raw_wall_s": sum(t1 - t0 for t0, t1 in spans),
        "latencies": [None if f else x for x, f in zip(scaled, failed)],
        "scale": REFERENCE_S / statistics.median(samples),
    }
    return timings, results, faults, errors


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_tetrageo()
    import workloads
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer().install()
    ops = workloads.build(args.workload, args.seed)
    setup = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return
    timings, results, faults, errors = run_pass(ops)
    out = dict(timings, setup_s=setup, faults=faults)
    if tracer is not None:
        tracer.restore()
        out["layers"] = tracer.layer_totals(timings["scale"])
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    out["errors"] = errors + workloads.check(args.workload, ops, results)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

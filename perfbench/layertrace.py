"""Layer tracing from outside the library.

Wrappers are installed on the name each caller looks up (a module
attribute), so ``paths.simplicity_check`` is wrapped in ``paths`` where
``_assemble_path`` finds it, and ``midpoint_geodesic`` in ``counting`` and
``existence`` as well as in ``paths``.  Span layers record a span per call
(name, start, end, parent span) kept in memory; count layers, which run
millions of times, only count calls.  A span's self time is its duration
minus the durations of its child spans (calls are strictly nested: the
program is single-threaded).
"""

from __future__ import annotations

import time

from tetrageo import combinat, counting, existence, frames, paths, tetra, unfold

# layer name -> [(module, attribute)] where callers look the function up
SPAN_SITES = {
    "combinat.trace_crossings": [(combinat, "trace_crossings"), (paths, "trace_crossings")],
    "frames.build_chain": [(frames, "build_chain")],
    "frames.shoot_chord": [(frames, "shoot_chord")],
    "frames.relax_chord": [(frames, "relax_chord")],
    "frames.trace_geometry": [(frames, "trace_geometry")],
    "paths.midpoint_geodesic": [(paths, "midpoint_geodesic"), (counting, "midpoint_geodesic"),
                                (existence, "midpoint_geodesic")],
    "paths.generic_hyperbolic_geodesic": [(paths, "generic_hyperbolic_geodesic")],
    "paths.full_fractions_from_quarter": [(paths, "full_fractions_from_quarter")],
    "paths.path_metrics": [(paths, "path_metrics")],
    "paths.simplicity_check": [(paths, "simplicity_check")],
    "existence.threshold_beta": [(existence, "threshold_beta")],
    "existence.exists_geodesic": [(existence, "exists_geodesic")],
    "existence.abstract_shortest_curve_length": [(existence, "abstract_shortest_curve_length")],
    "counting.admissible_types": [(counting, "admissible_types")],
    "counting.count_exact": [(counting, "count_exact")],
    "tetra.generic_from_edges": [(tetra, "generic_from_edges")],
}

COUNT_SITES = {
    "frames.propagate_chord": [(frames, "propagate_chord")],
    "geom.rside_measure": [(paths, "rside_measure"), (unfold, "rside_measure")],
    "geom.rdistance": [(paths, "rdistance"), (unfold, "rdistance")],
    "geom.rangle": [(paths, "rangle"), (unfold, "rangle")],
}


class Tracer:
    """Installs the wrappers; ``restore`` puts the original functions back."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in COUNT_SITES}
        self._stack = []
        self._saved = []

    def install(self):
        for name, sites in SPAN_SITES.items():
            for module, attr in sites:
                self._patch(module, attr, self._span_wrapper(name, getattr(module, attr)))
        for name, sites in COUNT_SITES.items():
            for module, attr in sites:
                self._patch(module, attr, self._count_wrapper(name, getattr(module, attr)))
        return self

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_totals(self, scale=1.0):
        """{layer.calls: n, layer.self_s: seconds x scale} for every traced layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_SITES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += ((end - start) - inner) * scale
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        return out

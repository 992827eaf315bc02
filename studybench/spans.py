"""Spans for the traced run, and the span arithmetic behind the per-layer metrics.

The program under test is never edited.  In a traced child, `Tracer.install`
replaces module attributes of the imported `tempres` package with wrappers
that record one span (name, start, end, parent) per call and, at some
boundaries, a count of the work done.  Spans stay in memory and are written
out once the command has finished; the parent turns them into per-layer
metrics with `layer_totals` and `layer_metrics`.

A call counts only when it goes through one of the listed bindings: a
function called through another name (for example the estimator's own
import of `detection_rates`) adds no span of that layer.
"""

import functools
import importlib
import json
import os
import time


def _count_runs(args, result):
    return {"montecarlo.runs": len(result)}


def _count_low_information(args, result):
    return {"estimator.low_information": int(result.low_information)}


def _count_scan(args, result):
    points, components = args[2].shape
    # sub, square, weight, add per (point, component); the model matrix is
    # read once as float64.  Computed from the argument shapes, not measured.
    return {"kernels.scan_flops": 4 * points * components,
            "kernels.scan_bytes": 8 * points * components}


def _count_rows(args, result):
    return {"cli.rows_read": sum(len(r.counts_s) + len(r.counts_a) for r in result)}


def _count_written(args, result):
    # _write_csv(path, ...) and write_svg(path, ...) name the file first;
    # _write_manifest(out_dir, ...) writes manifest.json into it.
    path = args[0]
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    return {"cli.output_bytes": os.path.getsize(path)}


# layer name, bindings replaced (module, attribute), counter hook
LAYERS = (
    ("montecarlo.run_experiment", (("tempres.montecarlo", "run_experiment"),), _count_runs),
    ("montecarlo.detection_rates", (("tempres.montecarlo", "detection_rates"),), None),
    ("montecarlo.apply_drift", (("tempres.montecarlo", "apply_drift"),), None),
    ("channels.hg_projection_probs",
     (("tempres.channels", "hg_projection_probs"),
      ("tempres.montecarlo", "hg_projection_probs")), None),
    ("channels.quadrature_projection_probs",
     (("tempres.channels", "quadrature_projection_probs"),
      ("tempres.montecarlo", "quadrature_projection_probs")), None),
    ("estimator.calibrate", (("tempres.estimator", "calibrate"),), None),
    ("estimator.estimate_gls", (("tempres.estimator", "estimate_gls"),),
     _count_low_information),
    ("kernels.weighted_scan",
     (("tempres.kernels", "weighted_scan"), ("tempres.estimator", "weighted_scan")),
     _count_scan),
    ("cli.read_records", (("tempres.cli", "read_records"),), _count_rows),
    ("cli.write", (("tempres.cli", "_write_csv"), ("tempres.cli", "_write_manifest")),
     _count_written),
    ("information.intensity_fi", (("tempres.information", "intensity_fi"),), None),
    ("svgplot.write_svg", (("tempres.svgplot", "write_svg"),), _count_written),
    ("pipeline.aggregate_estimates", (("tempres.pipeline", "aggregate_estimates"),), None),
)

# layers whose wrapped callees make a self time worth reporting
SELF_TIMED = {
    "montecarlo.run_experiment": "montecarlo.sampling_self_s",
    "montecarlo.detection_rates": "montecarlo.detection_rates_self_s",
    "estimator.estimate_gls": "estimator.estimate_gls_self_s",
    "kernels.weighted_scan": "kernels.weighted_scan_self_s",
    "cli.write": "cli.write_self_s",
    "pipeline.aggregate_estimates": "pipeline.aggregate_estimates_self_s",
}

COUNTERS = {
    "montecarlo.runs": "count",
    "estimator.low_information": "count",
    "kernels.scan_flops": "flop-computed",
    "kernels.scan_bytes": "B-computed",
    "cli.rows_read": "count",
    "cli.output_bytes": "B",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"import.tempres_s": "s"}
    for name, _, _ in LAYERS:
        units[f"{name}_calls"] = "count"
        units[f"{name}_s"] = "s"
        if name in SELF_TIMED:
            units[SELF_TIMED[name]] = "s"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans around calls through replaced module attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.spans = []          # [name index, start, end, parent span index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = []         # (layer, "module.attribute") not found
        self._stack = []

    def wrap(self, name, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_index, self.clock(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] += value
            return result

        return traced

    def install(self, layers=LAYERS):
        """Replace each listed binding that exists; note the ones that do not."""
        for name, bindings, count in layers:
            for module_name, attribute in bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attribute, None)
                if not callable(fn):
                    self.absent.append([name, f"{module_name}.{attribute}"])
                    continue
                setattr(module, attribute, self.wrap(name, fn, count))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters, "absent": self.absent}, fh)


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(start, end, children[i])
            for i, (_, start, end, _) in enumerate(spans)]


def layer_totals(names, spans):
    """Per layer name: (calls, inclusive seconds, self seconds).

    Inclusive time counts only the outermost span of a name, so a layer
    that calls itself is not counted twice.
    """
    own = self_times(spans)
    totals = {name: [0, 0.0, 0.0] for name in names}
    for i, (name_index, start, end, parent) in enumerate(spans):
        entry = totals[names[name_index]]
        entry[0] += 1
        entry[2] += own[i]
        while parent >= 0 and spans[parent][0] != name_index:
            parent = spans[parent][3]
        if parent < 0:
            entry[1] += end - start
    return {name: tuple(v) for name, v in totals.items()}


def layer_metrics(trace):
    """Per-layer metrics of one traced child, from its dumped trace.

    Layers never entered read 0; `import.tempres_s` and `trace.overhead_s`
    come from the child timings and are filled in by the caller.
    """
    totals = layer_totals(trace["names"], trace["spans"])
    metrics = {}
    for name, _, _ in LAYERS:
        calls, inclusive, own = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}_calls"] = calls
        metrics[f"{name}_s"] = inclusive
        if name in SELF_TIMED:
            metrics[SELF_TIMED[name]] = own
    metrics.update(trace["counters"])
    return metrics

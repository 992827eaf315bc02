import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, layer_metrics, layer_totals, per_layer_units, self_times  # noqa: E402

# a(0..10) -> b(1..4) -> c(2..3); a -> b(3.5..6), overlapping the first b;
# a -> d(8..12), running past its parent's end
SPANS = [
    [0, 0.0, 10.0, -1],
    [1, 1.0, 4.0, 0],
    [2, 2.0, 3.0, 1],
    [1, 3.5, 6.0, 0],
    [3, 8.0, 12.0, 0],
]
NAMES = ["a", "b", "c", "d"]


def test_self_time_subtracts_the_union_of_children_within_the_parent():
    own = self_times(SPANS)
    # a is covered by [1, 6] and [8, 10]: 7 of its 10 seconds
    assert own == pytest.approx([3.0, 2.0, 1.0, 2.5, 4.0])


def test_layer_totals_count_calls_and_outermost_inclusive_time():
    recursive = [[0, 0.0, 5.0, -1], [0, 1.0, 2.0, 0], [1, 3.0, 4.0, 0]]
    totals = layer_totals(["a", "b"], recursive)
    assert totals["a"] == pytest.approx((2, 5.0, 4.0))
    assert totals["b"] == pytest.approx((1, 1.0, 1.0))
    assert layer_totals(NAMES, SPANS)["b"] == pytest.approx((2, 5.5, 4.5))


def test_tracer_records_parents_counts_and_absent_bindings():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x * 2
    module.outer = lambda x: module.inner(x) + 1
    sys.modules["fake_layer"] = module
    try:
        tracer.install((
            ("outer", (("fake_layer", "outer"),), None),
            ("inner", (("fake_layer", "inner"), ("fake_layer", "gone")),
             lambda args, result: {"cli.rows_read": result}),
            ("missing", (("no_such_module_here", "f"),), None),
        ))
        assert module.outer(3) == 7
    finally:
        del sys.modules["fake_layer"]
    assert tracer.spans == [[0, 0.0, 3.0, -1], [1, 1.0, 2.0, 0]]
    assert tracer.counters["cli.rows_read"] == 6
    assert tracer.absent == [["inner", "fake_layer.gone"],
                             ["missing", "no_such_module_here.f"]]
    metrics = layer_metrics({"names": tracer.names, "spans": tracer.spans,
                             "counters": tracer.counters})
    assert set(metrics) <= set(per_layer_units())
    assert metrics["montecarlo.detection_rates_calls"] == 0

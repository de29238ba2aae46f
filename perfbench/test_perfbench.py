"""Tests of the benchmark's own logic: span self time, tail percentiles, failure counting.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "pass", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "b", 3.0, 6.0, 0, 1),  # overlaps a, as spans on two threads do
        Span(3, "a.child", 2.0, 3.0, 1, 1),
        Span(4, "late", 9.0, 12.0, 0, 1),  # only [9, 10] lies inside the parent
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})
    agg = tracing.aggregate(spans)
    assert agg["a"] == pytest.approx({"busy_s": 3.0, "self_s": 2.0, "calls": 1})


def test_tracer_wraps_and_restores_import_sites():
    ticks = iter(range(100))
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    sys.modules["fake_layer"] = module
    original = module.outer
    try:
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        tracer.pass_id = 7
        tracer.install([("fake_layer", "outer", "outer"), ("fake_layer", "inner", lambda x: f"inner.{x}")])
        with tracer.span("pass"):
            assert module.outer(1) == 4
        tracer.restore()
    finally:
        del sys.modules["fake_layer"]
    assert module.outer is original
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"pass", "outer", "inner.1"}
    assert by_name["inner.1"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name["pass"].id
    assert {s.pass_id for s in tracer.spans} == {7}


def test_worker_thread_spans_nest_under_the_blocked_caller():
    tracer = tracing.Tracer()
    worker = tracer.wrap(lambda: None, "worker")
    with tracer.span("generate") as generate_id:
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    (span,) = [s for s in tracer.spans if s.name == "worker"]
    assert span.parent == generate_id


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = list(range(1, n + 1))
    tail = stats.tail_percentile(reversed(values))
    if expected is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected
    assert sum(v > value for v in values) >= stats.MIN_BEYOND


def test_summarize_reports_count_median_and_tail():
    s = stats.summarize([3.0, 1.0, 2.0])
    assert s == {"n": 3, "median": 2.0, "tail": None}
    assert stats.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0


class _Workload:
    """A stand-in workload: one timed call, one gate, and optionally an error."""

    def __init__(self, fail_gate=False, raise_in_pass=False):
        self.fail_gate, self.raise_in_pass = fail_gate, raise_in_pass

    def run_pass(self, rec):
        rec.call("op", lambda: None)
        rec.gate("gate", not self.fail_gate, "forced")
        if self.raise_in_pass:
            rec.call("boom", _raise)

    def output_digests(self, rec):
        return {"out": "0" * 64}


def _raise():
    raise ValueError("broken layer")


def test_failures_count_raised_errors_and_failed_gates():
    ok = run.run_pass(_Workload(), 0)
    assert ok.ok and (ok.rec.attempted, ok.rec.failed) == (2, 0)

    gate = run.run_pass(_Workload(fail_gate=True), 0)
    assert gate.ok and (gate.rec.attempted, gate.rec.failed) == (2, 1)

    raised = run.run_pass(_Workload(raise_in_pass=True), 0)
    assert not raised.ok and raised.digests is None
    assert (raised.rec.attempted, raised.rec.failed) == (3, 1)
    assert raised.rec.samples["boom"] and "broken layer" in raised.rec.problems[0]


def test_median_pass_takes_medians_call_by_call():
    recs = []
    for durations in ([1.0, 10.0], [2.0, 30.0], [9.0, 20.0]):
        rec = run.Recorder()
        rec.samples["op"] = durations
        rec.work["items"] = 5
        recs.append(rec)
    merged = run.median_pass(recs)
    assert merged.samples["op"] == [2.0, 20.0]
    assert merged.seconds("op") == 22.0 and merged.work["items"] == 5


def test_measure_runs_at_least_two_passes_and_alternates_tracing():
    plain = run.measure(_Workload(), seconds=0.0)
    assert [r.traced for r in plain] == [False, False]
    traced = run.measure(_Workload(), seconds=0.0, sites=[])
    assert [r.traced for r in traced] == [False, True]
    assert [s.name for s in traced[1].spans] == ["pass"]


def test_benchmark_json_matches_the_metric_registries():
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in workloads.PER_LAYER
    ]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)

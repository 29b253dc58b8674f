"""Tests for cross-process telemetry harvesting (repro.obs.snapshot)."""

import os

import pytest

from repro.obs import (
    TelemetrySnapshot,
    TraceContext,
    begin_worker_capture,
    capture_context,
    configure_tracing,
    finish_worker_capture,
    get_registry,
    merge_snapshot,
    span,
)
from repro.pairing import NullModel
from repro.parallel import ParallelConfig, run_tasks, sweep_pairing_moments


@pytest.fixture()
def traced_tracer():
    tracer = configure_tracing(True)
    tracer.reset()
    yield tracer
    configure_tracing(False)
    tracer.reset()


def _record_telemetry(value):
    """Top-level (picklable) task: records a span, and no metric."""
    with span("snaptest.work", item=value) as trace:
        trace.incr("processed", 1)
    return value * 2


@pytest.fixture(scope="module")
def views(workspace):
    """Two regions' pairing views."""
    return {code: workspace.views()[code] for code in ("ITA", "KOR")}


def _montecarlo_series():
    """Every ``repro_montecarlo_*`` series' kind and value, by key."""
    return {
        (series.name, tuple(sorted(series.labels.items()))): (
            series.kind,
            series.metric.value,
        )
        for series in get_registry().collect()
        if series.name.startswith("repro_montecarlo")
    }


class TestTraceContext:
    def test_untraced_context_by_default(self):
        context = capture_context()
        assert context == TraceContext()
        assert not context.traced

    def test_context_carries_current_span(self, traced_tracer):
        with span("parent.op") as parent:
            context = capture_context()
        assert context.traced
        assert context.trace_id == parent.trace_id
        assert context.parent_span_id == parent.span_id

    def test_traced_without_open_span(self, traced_tracer):
        context = capture_context()
        assert context.traced
        assert context.parent_span_id is None


class TestWorkerCapture:
    def test_untraced_capture_ships_no_spans(self):
        capture = begin_worker_capture(TraceContext(traced=False))
        with span("invisible"):
            pass
        snapshot = finish_worker_capture(capture)
        assert snapshot.spans == ()
        assert snapshot.pid == os.getpid()

    def test_traced_capture_ships_span_payloads(self, traced_tracer):
        context = TraceContext(trace_id="t", parent_span_id=None, traced=True)
        capture = begin_worker_capture(context)
        with span("captured.op", shard=3):
            pass
        snapshot = finish_worker_capture(capture)
        names = [payload["name"] for payload in snapshot.spans]
        assert "captured.op" in names
        payload = snapshot.spans[names.index("captured.op")]
        assert payload["attrs"]["shard"] == 3
        assert payload["end_wall"] >= payload["start_wall"]

    def test_empty_snapshot_property(self, traced_tracer):
        assert TelemetrySnapshot().empty
        capture = begin_worker_capture(TraceContext(traced=True))
        with span("captured.op"):
            pass
        snapshot = finish_worker_capture(capture)
        assert snapshot.spans
        assert not snapshot.empty


class TestMergeSnapshot:
    def test_spans_graft_under_parent(self, traced_tracer):
        with span("parent.op") as parent:
            context = capture_context()
        baseline = traced_tracer.finished_count()
        # Simulate a worker: fresh capture, record a nested pair.
        capture = begin_worker_capture(context)
        with span("worker.outer"):
            with span("worker.inner"):
                pass
        snapshot = finish_worker_capture(capture)
        # Drop the worker-side records so adoption is the only copy
        # (in a real pool the records die with the worker process).
        traced_tracer._finished = traced_tracer._finished[:baseline]
        merge_snapshot(snapshot, context)

        adopted = {
            s.name: s for s in traced_tracer.spans_since(baseline)
        }
        outer, inner = adopted["worker.outer"], adopted["worker.inner"]
        assert outer.parent_id == parent.span_id
        assert inner.parent_id == outer.span_id
        assert outer.trace_id == parent.trace_id
        span_ids = {parent.span_id, outer.span_id, inner.span_id}
        assert len(span_ids) == 3  # re-identified, no collisions


class TestRunTasksHarvesting:
    def test_counters_identical_across_worker_counts(self, views):
        # The sweep counts each task from its result, so in process, at
        # one worker and through the pool the counters move alike.
        models = tuple(NullModel)
        per_run = []
        for config in (None, ParallelConfig(workers=1), ParallelConfig(2)):
            before = _montecarlo_series()
            sweep_pairing_moments(views, models, 200, config)
            after = _montecarlo_series()
            per_run.append(
                {
                    key: (kind, value - before.get(key, (kind, 0))[1])
                    for key, (kind, value) in after.items()
                }
            )
        assert per_run[0] == per_run[1] == per_run[2]
        expected = {
            ("repro_montecarlo_shards_total", ()): (
                "counter", len(views) * len(models)
            ),
        }
        for model in models:
            expected[
                ("repro_montecarlo_samples_total", (("model", model.value),))
            ] = ("counter", len(views) * 200)
        assert per_run[0] == expected

    def test_traced_parallel_run_shows_worker_spans(self, traced_tracer):
        with span("test.root"):
            run_tasks(
                _record_telemetry,
                [1, 2, 3],
                workers=2,
                label="snaptest.graft",
            )
        spans = {s.span_id: s for s in traced_tracer.spans_since(0)}
        by_name: dict[str, list] = {}
        for item in spans.values():
            by_name.setdefault(item.name, []).append(item)
        run_span = by_name["snaptest.graft"][0]
        task_spans = by_name["snaptest.graft.task"]
        assert len(task_spans) == 3
        for task_span in task_spans:
            assert task_span.parent_id == run_span.span_id
            assert task_span.trace_id == run_span.trace_id
            assert task_span.attrs["pid"] != 0
        work_spans = by_name["snaptest.work"]
        assert len(work_spans) == 3
        task_ids = {task_span.span_id for task_span in task_spans}
        assert {w.parent_id for w in work_spans} <= task_ids
        shards = sorted(t.attrs["shard"] for t in task_spans)
        assert shards == [0, 1, 2]

    def test_serial_run_records_in_process(self, traced_tracer):
        with span("test.root"):
            run_tasks(
                _record_telemetry, [5], workers=1, label="snaptest.serial"
            )
        names = [s.name for s in traced_tracer.spans_since(0)]
        assert "snaptest.work" in names
        # No pooled task wrapper on the serial path.
        assert "snaptest.serial.task" not in names

"""Tests for the per-endpoint request metrics."""

import threading

import pytest

from repro.obs.metrics import RESERVOIR_SIZE, percentile
from repro.service.metrics import (
    COALESCED,
    INFLIGHT,
    QUEUE_DEPTH,
    REJECTED,
    ServiceMetrics,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert percentile([3.0], 0.99) == 3.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        samples = sorted(float(n) for n in range(1, 101))
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0

    def test_p99_of_uniform(self):
        samples = sorted(float(n) for n in range(1, 101))
        assert percentile(samples, 0.99) == pytest.approx(99.01)


class TestServiceMetrics:
    def test_observe_accumulates_counters(self):
        metrics = ServiceMetrics()
        metrics.observe("score", 0.010)
        metrics.observe("score", 0.020, cache_hit=True)
        metrics.observe("score", 0.030, error=True)
        snapshot = metrics.snapshot()["score"]
        assert snapshot["requests"] == 3
        assert snapshot["errors"] == 1
        assert snapshot["cache_hits"] == 1
        assert snapshot["latency"]["count"] == 3
        assert snapshot["latency"]["p50_ms"] == pytest.approx(20.0)

    def test_endpoints_are_independent_and_sorted(self):
        metrics = ServiceMetrics()
        metrics.observe("sql", 0.001)
        metrics.observe("alias", 0.002)
        assert metrics.endpoint_names() == ("alias", "sql")
        assert metrics.snapshot()["sql"]["requests"] == 1

    def test_reservoir_keeps_recent_window(self):
        metrics = ServiceMetrics()
        # Fill the reservoir with slow samples, then overwrite with fast
        # ones: the percentiles must reflect the recent window only.
        for _ in range(RESERVOIR_SIZE):
            metrics.observe("x", 1.0)
        for _ in range(RESERVOIR_SIZE):
            metrics.observe("x", 0.001)
        snapshot = metrics.snapshot()["x"]
        assert snapshot["requests"] == 2 * RESERVOIR_SIZE
        assert snapshot["latency"]["p99_ms"] == pytest.approx(1.0)

    def test_empty_snapshot(self):
        assert ServiceMetrics().snapshot() == {}

    def test_render_summary_lists_endpoints(self):
        metrics = ServiceMetrics()
        metrics.observe("alias", 0.004)
        metrics.observe("sql", 0.002, error=True)
        text = metrics.render_summary()
        assert "endpoint" in text
        assert "alias" in text
        assert "sql" in text

    def test_render_summary_idle(self):
        assert "no requests" in ServiceMetrics().render_summary()

    def test_concurrent_observations(self):
        metrics = ServiceMetrics()

        def worker():
            for i in range(1000):
                metrics.observe("hot", 0.001 * (i % 10))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.snapshot()["hot"]["requests"] == 8000


class TestSnapshotDerivedStats:
    def test_snapshot_includes_hit_rate_and_mean(self):
        metrics = ServiceMetrics()
        metrics.observe("score", 0.010)
        metrics.observe("score", 0.020, cache_hit=True)
        snapshot = metrics.snapshot()["score"]
        assert snapshot["hit_rate"] == pytest.approx(0.5)
        assert snapshot["latency"]["mean_ms"] == pytest.approx(15.0)

    def test_summary_has_mean_and_hit_rate_columns(self):
        metrics = ServiceMetrics()
        metrics.observe("score", 0.010)
        metrics.observe("score", 0.030, cache_hit=True)
        text = metrics.render_summary()
        header = text.splitlines()[0]
        assert "mean_ms" in header
        assert "hit_rate" in header
        row = text.splitlines()[1]
        assert "50.00%" in row
        assert "20.000" in row  # mean of 10ms and 30ms

    def test_summary_zero_requests_edge(self):
        # hit_rate must not divide by zero on an endpoint-free registry.
        assert "no requests" in ServiceMetrics().render_summary()


class TestPrometheusExport:
    def test_render_prometheus_exposes_series(self):
        metrics = ServiceMetrics()
        metrics.observe("score", 0.010, cache_hit=True)
        metrics.observe("sql", 0.020, error=True)
        text = metrics.render_prometheus()
        assert 'repro_requests_total{endpoint="score"} 1' in text
        assert 'repro_request_errors_total{endpoint="sql"} 1' in text
        assert 'repro_cache_hits_total{endpoint="score"} 1' in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert 'repro_request_seconds_bucket{endpoint="score",le="+Inf"} 1' in text
        assert 'repro_request_seconds_count{endpoint="score"} 1' in text

    def test_instances_are_isolated(self):
        first, second = ServiceMetrics(), ServiceMetrics()
        first.observe("score", 0.010)
        assert second.snapshot() == {}


class TestServingSnapshot:
    def test_empty_registry_reports_empty_maps(self):
        metrics = ServiceMetrics()
        snapshot = metrics.serving_snapshot()
        assert snapshot == {
            "inflight": {},
            "queue_depth": {},
            "coalesced": {},
            "handler_calls": {},
            "rejected": {},
        }

    def test_serving_series_land_in_their_sections(self):
        metrics = ServiceMetrics()
        registry = metrics.registry
        metrics.handler_call("score")
        metrics.handler_call("score")
        registry.gauge(INFLIGHT, endpoint="score").set(3)
        registry.gauge(QUEUE_DEPTH, endpoint="score").set(1)
        registry.counter(COALESCED, endpoint="score").incr()
        registry.counter(
            REJECTED, endpoint="score", reason="overloaded"
        ).incr()
        registry.counter(
            REJECTED, endpoint="score", reason="rate_limited"
        ).incr()
        snapshot = metrics.serving_snapshot()
        assert snapshot["handler_calls"]["score"] == 2
        assert snapshot["inflight"]["score"] == 3
        assert snapshot["queue_depth"]["score"] == 1
        assert snapshot["coalesced"]["score"] == 1
        assert snapshot["rejected"]["score"] == {
            "overloaded": 1,
            "rate_limited": 1,
        }

    def test_request_series_do_not_leak_into_serving(self):
        metrics = ServiceMetrics()
        metrics.observe("score", 0.010)  # includes a latency histogram
        snapshot = metrics.serving_snapshot()
        assert snapshot["handler_calls"] == {}
        assert snapshot["rejected"] == {}


class TestServingPrometheusExposition:
    def _exposition(self):
        metrics = ServiceMetrics()
        registry = metrics.registry
        metrics.observe("score", 0.010)
        metrics.handler_call("score")
        registry.gauge(INFLIGHT, endpoint="score").set(2)
        registry.gauge(QUEUE_DEPTH, endpoint="score").set(0)
        registry.counter(COALESCED, endpoint="score").incr()
        registry.counter(
            REJECTED, endpoint="score", reason="overloaded"
        ).incr()
        return metrics.render_prometheus()

    def test_serving_series_rendered_with_types(self):
        text = self._exposition()
        assert "# TYPE repro_service_inflight gauge" in text
        assert 'repro_service_inflight{endpoint="score"} 2' in text
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "# TYPE repro_service_coalesced_total counter" in text
        assert 'repro_service_coalesced_total{endpoint="score"} 1' in text
        assert "# TYPE repro_service_handler_calls_total counter" in text
        assert (
            'repro_service_rejected_total{endpoint="score",'
            'reason="overloaded"} 1' in text
        )

    def test_exposition_parses_line_by_line(self):
        for line in self._exposition().strip().splitlines():
            assert line
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

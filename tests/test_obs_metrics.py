"""Tests for the generalised metrics registry and Prometheus exposition."""

import re
import threading

import pytest

from repro.obs.metrics import (
    RESERVOIR_SIZE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    get_registry,
    percentile,
)


class TestPrimitives:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.incr()
        counter.incr(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().incr(-1)

    def test_gauge_set_and_add(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.add(-1.5)
        assert gauge.value == pytest.approx(2.0)

    def test_histogram_stats(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        stats = histogram.stats()
        assert stats.count == 4
        assert stats.total == pytest.approx(10.0)
        assert stats.mean == pytest.approx(2.5)
        assert stats.p50 == pytest.approx(2.5)

    def test_empty_histogram(self):
        stats = Histogram().stats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.p50 == 0.0


class TestRingBufferWraparound:
    def test_percentiles_reflect_recent_window_only(self):
        """Observations beyond RESERVOIR_SIZE overwrite the oldest ones."""
        histogram = Histogram()
        # Fill with slow samples, then wrap the ring twice with fast ones.
        for _ in range(RESERVOIR_SIZE):
            histogram.observe(10.0)
        for _ in range(2 * RESERVOIR_SIZE):
            histogram.observe(0.001)
        stats = histogram.stats()
        assert stats.count == 3 * RESERVOIR_SIZE  # exact total
        assert stats.total == pytest.approx(
            RESERVOIR_SIZE * 10.0 + 2 * RESERVOIR_SIZE * 0.001
        )
        # Every retained sample is fast: p99 and mean are window-local.
        assert stats.p99 == pytest.approx(0.001)
        assert stats.mean == pytest.approx(0.001)

    def test_partial_wraparound_mixes_old_and_new(self):
        histogram = Histogram()
        for _ in range(RESERVOIR_SIZE):
            histogram.observe(1.0)
        # Overwrite exactly half the ring.
        for _ in range(RESERVOIR_SIZE // 2):
            histogram.observe(0.0)
        stats = histogram.stats()
        assert stats.count == RESERVOIR_SIZE + RESERVOIR_SIZE // 2
        assert stats.p95 == pytest.approx(1.0)
        assert stats.mean == pytest.approx(0.5)

    def test_percentile_edges_after_wraparound(self):
        histogram = Histogram()
        # Window larger than the reservoir: only the last
        # RESERVOIR_SIZE values (ascending tail) remain.
        total = RESERVOIR_SIZE + 500
        for value in range(total):
            histogram.observe(float(value))
        window = sorted(
            float(v) for v in range(total - RESERVOIR_SIZE, total)
        )
        stats = histogram.stats()
        assert stats.p50 == pytest.approx(percentile(window, 0.50))
        assert stats.p99 == pytest.approx(percentile(window, 0.99))


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", endpoint="score")
        second = registry.counter("hits", endpoint="score")
        assert first is second
        other = registry.counter("hits", endpoint="sql")
        assert other is not first

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_label_values(self):
        registry = MetricsRegistry()
        registry.counter("req", endpoint="b").incr()
        registry.counter("req", endpoint="a").incr()
        assert registry.label_values("req", "endpoint") == ("a", "b")

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("weird name-1!").incr()
        text = registry.render_prometheus()
        assert "weird_name_1_ 1" in text

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="x").incr(2)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot['c{kind=x}'] == 2
        assert snapshot["h"]["count"] == 1

    def test_snapshot_keeps_each_histogram_unit(self):
        registry = MetricsRegistry()
        registry.histogram("stage_build_ms").observe(5.0)
        registry.histogram("request_seconds").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["stage_build_ms"]["mean"] == 5.0
        assert snapshot["stage_build_ms"]["p99"] == 5.0
        assert snapshot["request_seconds"]["mean"] == 0.25

    def test_global_registry_is_singleton(self):
        assert get_registry() is get_registry()

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.counter("n").incr()
                registry.histogram("lat").observe(0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n").value == 8000
        assert registry.histogram("lat").count == 8000


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", endpoint="score").incr(3)
        registry.gauge("repro_temperature").set(1.5)
        text = registry.render_prometheus()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="score"} 3' in text
        assert "# TYPE repro_temperature gauge" in text
        assert "repro_temperature 1.5" in text
        assert text.endswith("\n")

    def test_histogram_renders_native_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_request_seconds", endpoint="sql")
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert "# TYPE repro_request_seconds histogram" in text
        # bucket counts are cumulative and end at +Inf == _count.
        assert 'repro_request_seconds_bucket{endpoint="sql",le="0.001"} 1' in text
        assert 'repro_request_seconds_bucket{endpoint="sql",le="0.005"} 3' in text
        assert 'repro_request_seconds_bucket{endpoint="sql",le="+Inf"} 3' in text
        assert 'repro_request_seconds_count{endpoint="sql"} 3' in text
        assert 'repro_request_seconds_sum{endpoint="sql"} 0.006' in text

    def test_histogram_bucket_counts_are_monotone(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds")
        for value in (0.0005, 0.03, 0.4, 2.0, 7000.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 5  # +Inf bucket holds everything

    def test_type_header_emitted_once_per_name(self):
        registry = MetricsRegistry()
        registry.counter("req", endpoint="a").incr()
        registry.counter("req", endpoint="b").incr()
        text = registry.render_prometheus()
        assert text.count("# TYPE req counter") == 1

    def test_label_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        registry = MetricsRegistry()
        registry.counter("c", q='say "hi"\nback\\slash').incr()
        text = registry.render_prometheus()
        assert 'q="say \\"hi\\"\\nback\\\\slash"' in text
        # The rendered line must stay a single line.
        sample_lines = [
            line for line in text.splitlines() if line.startswith("c{")
        ]
        assert len(sample_lines) == 1

    def test_every_sample_line_is_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("a_total", x="1").incr()
        registry.gauge("b").set(2)
        registry.histogram("c_seconds", op="read").observe(0.5)
        pattern = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+$"
        )
        for line in registry.render_prometheus().splitlines():
            if line.startswith("#"):
                assert re.match(
                    r"^# TYPE \S+ (counter|gauge|histogram)$", line
                )
            else:
                assert pattern.match(line), line

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

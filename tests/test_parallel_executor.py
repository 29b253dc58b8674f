"""Tests for the generic process-pool executor."""

import os

import pytest

from repro.datamodel import ConfigurationError
from repro.parallel import ParallelConfig, resolve_workers, run_tasks


def _square(value):
    return value * value


def _succeed_only_in_parent(parent_pid):
    """Fails inside a pool worker, succeeds on the serial retry."""
    if os.getpid() != parent_pid:
        raise RuntimeError("worker refuses")
    return parent_pid


def _identity(value):
    return value


class TestParallelConfig:
    def test_defaults(self):
        assert ParallelConfig().workers == 1

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(workers=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(workers=-1)


class TestResolveWorkers:
    def test_none_means_all_cores(self):
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(_square, [3, 1, 4, 1, 5], workers=1) == [
            9, 1, 16, 1, 25,
        ]

    def test_parallel_preserves_order(self):
        payloads = list(range(11))
        assert run_tasks(_square, payloads, workers=2) == [
            value * value for value in payloads
        ]

    def test_single_payload_skips_the_pool(self):
        assert run_tasks(_square, [6], workers=4) == [36]

    def test_empty_payloads(self):
        assert run_tasks(_square, [], workers=4) == []

    def test_crashed_task_is_retried_serially(self):
        # The function fails in every pool worker (wrong pid) and
        # succeeds only on the parent's serial retry: every result must
        # still come back.
        parent = os.getpid()
        results = run_tasks(
            _succeed_only_in_parent, [parent, parent, parent], workers=2
        )
        assert results == [parent, parent, parent]

    def test_serial_path_runs_in_parent(self):
        parent = os.getpid()
        assert run_tasks(_succeed_only_in_parent, [parent], workers=1) == [
            parent
        ]

    def test_pool_results_allow_none_values(self):
        # A legitimate None result must not be mistaken for a crashed
        # task and re-run (the completion set, not the value, decides).
        assert run_tasks(_identity, [None, None], workers=2) == [None, None]


class TestRetryTelemetry:
    def test_retries_counted_in_registry(self):
        from repro.obs import get_registry

        retries = get_registry().counter(
            "repro_parallel_shard_retries_total", label="retrytest.run"
        )
        parent = os.getpid()
        before = retries.value
        run_tasks(
            _succeed_only_in_parent,
            [parent, parent, parent],
            workers=2,
            label="retrytest.run",
        )
        assert retries.value - before == 3

    def test_retried_shards_recorded_on_span(self):
        from repro.obs import configure_tracing

        tracer = configure_tracing(True)
        tracer.reset()
        try:
            parent = os.getpid()
            run_tasks(
                _succeed_only_in_parent,
                [parent, parent, parent],
                workers=2,
                label="retrytest.span",
            )
        finally:
            configure_tracing(False)
        spans = {s.name: s for s in tracer.spans_since(0)}
        tracer.reset()
        run_span = spans["retrytest.span"]
        assert run_span.attrs["retried_shards"] == "0,1,2"

    def test_clean_run_records_no_retries(self):
        from repro.obs import get_registry

        registry = get_registry()

        def retries():
            return {
                tuple(series.labels.items()): series.metric.value
                for series in registry.collect()
                if series.name == "repro_parallel_shard_retries_total"
            }

        before = retries()
        run_tasks(_square, [1, 2, 3, 4], workers=2, label="retrytest.clean")
        assert retries() == before

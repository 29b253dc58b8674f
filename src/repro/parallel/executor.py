"""Process-pool fan-out with a serial fallback, retry and telemetry.

:func:`run_tasks` is the execution core of the parallel engine: it maps a
picklable worker function over a list of task payloads, either serially
(``workers=1`` — same code path, no pool, useful both as a fallback and
as the deterministic baseline) or across a ``ProcessPoolExecutor``.
Results always come back in payload order, so callers can zip them
against their task keys regardless of scheduling order. The pool's own
pickling is the only transport: a payload carries everything its task
reads, as a Monte Carlo task carries its cuisine view.

Spans cross the process boundary (see :mod:`repro.obs.snapshot`): each
pooled task carries a :class:`~repro.obs.snapshot.TraceContext` and
returns a :class:`~repro.obs.snapshot.TelemetrySnapshot` of its
finished spans alongside its result. The parent merges snapshots in
shard order, so ``--trace`` output shows worker-side spans under the
submitting ``run_tasks`` span (one ``<label>.task`` span per shard,
tagged with shard index and pid). Metrics do not: a task function
records no metric series, because a worker's registry dies with it.
Its result carries what it counted, and the caller records that, so
every series reads the same at any worker count.

Failure handling is graceful-degradation by design: a task whose future
fails — including every outstanding future of a broken pool (a worker
crashed hard) — is retried serially in the parent process rather than
lost. Only a task that *also* fails serially propagates its error. The
retried shard indices are recorded on the span (``retried_shards``), in
a structured ``parallel.shards_retried`` log line, and in the
``repro_parallel_shard_retries_total`` counter.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, TypeVar

from ..datamodel import ConfigurationError
from ..obs import get_logger, get_registry, span
from ..obs.snapshot import (
    TelemetrySnapshot,
    TraceContext,
    begin_worker_capture,
    capture_context,
    finish_worker_capture,
    merge_snapshots,
)

_LOG = get_logger("repro.parallel")

_T = TypeVar("_T")


@dataclasses.dataclass(frozen=True)
class ParallelConfig:
    """How a sampling workload fans out.

    Attributes:
        workers: process count; ``1`` runs every task serially in the
            parent (no pool). A task's random stream never depends on
            the worker count, so every count gives the same results.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")


def resolve_workers(requested: int | None = None) -> int:
    """Worker count for a request; ``None``/``0`` means all CPU cores."""
    if not requested:
        return os.cpu_count() or 1
    return requested


@dataclasses.dataclass(frozen=True)
class _TaskEnvelope:
    """A pooled task's result plus the spans it finished."""

    result: Any
    snapshot: TelemetrySnapshot


def _run_pooled_task(
    bundle: tuple[Callable[[Any], Any], Any, int, str, TraceContext],
) -> _TaskEnvelope:
    """Worker entry point: run one task under telemetry capture.

    Opens a ``<label>.task`` span (shard index + pid attributes) so a
    traced run always shows worker-side spans even when the task
    function itself records none.
    """
    fn, payload, index, label, context = bundle
    capture = begin_worker_capture(context)
    try:
        with span(f"{label}.task", shard=index, pid=os.getpid()):
            result = fn(payload)
    finally:
        snapshot = finish_worker_capture(capture)
    return _TaskEnvelope(result=result, snapshot=snapshot)


def run_tasks(
    fn: Callable[[Any], _T],
    payloads: Iterable[Any],
    workers: int = 1,
    label: str = "parallel.run",
) -> list[_T]:
    """Map ``fn`` over ``payloads``; results in payload order.

    With ``workers <= 1`` or a single payload, the payloads run
    serially in-process; otherwise each one, pickled, goes to a pool
    worker. A pool that cannot be created (no process support) degrades
    to the serial path; an individual task failure is retried serially
    before the error is allowed to propagate. Worker span snapshots are
    merged in shard order after all results are in.

    ``fn`` records no metric series: its result carries what it
    counted, and the caller records it once the results are in.
    """
    items: Sequence[Any] = list(payloads)
    with span(label, workers=workers, tasks=len(items)) as trace:
        if workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        results: list[Any] = [None] * len(items)
        snapshots: list[TelemetrySnapshot | None] = [None] * len(items)
        done: set[int] = set()
        context = capture_context()
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(items))
            )
        except (OSError, NotImplementedError) as error:
            _LOG.warning("parallel.pool_unavailable", error=str(error))
            return [fn(item) for item in items]
        try:
            with pool:
                futures = {
                    pool.submit(
                        _run_pooled_task,
                        (fn, items[index], index, label, context),
                    ): index
                    for index in range(len(items))
                }
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        envelope = future.result()
                        results[index] = envelope.result
                        snapshots[index] = envelope.snapshot
                        done.add(index)
                    except Exception as error:  # noqa: BLE001 - retried
                        _LOG.warning(
                            "parallel.task_failed",
                            task=index,
                            error=f"{type(error).__name__}: {error}",
                        )
        except Exception as error:  # noqa: BLE001 - pool-level failure
            _LOG.warning(
                "parallel.pool_broken",
                error=f"{type(error).__name__}: {error}",
            )
        # A crashed worker's shard is retried serially, not lost — and
        # the exact shard indices are recorded for the operator.
        retried = [index for index in range(len(items)) if index not in done]
        if retried:
            get_registry().counter(
                "repro_parallel_shard_retries_total", label=label
            ).incr(len(retried))
            trace.incr("retried", len(retried))
            trace.set("retried_shards", ",".join(map(str, retried)))
            _LOG.warning(
                "parallel.shards_retried",
                label=label,
                count=len(retried),
                shards=",".join(map(str, retried)),
            )
        for index in retried:
            _LOG.info("parallel.retry_serial", task=index)
            results[index] = fn(items[index])
        # Shard-order merge: worker spans graft under this run's span
        # (a retried shard's spans were recorded in-process).
        merge_snapshots(snapshots, context)
        return results

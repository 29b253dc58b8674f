"""Cross-process telemetry: trace-context propagation and span harvesting.

A span recorded inside a pool worker would die with the worker. The
executor ships a :class:`TraceContext` out with each task and a
:class:`TelemetrySnapshot` of finished spans back with each result:

1. The parent calls :func:`capture_context` inside its ``run_tasks``
   span; the context carries the trace id, the submitting span's id and
   whether tracing is on — a few dozen bytes in each task payload.
2. The worker brackets the task with :func:`begin_worker_capture` /
   :func:`finish_worker_capture`. The span-count baseline absorbs
   anything inherited across ``fork``, so the snapshot holds exactly
   the spans *this task* finished, as plain payloads.
3. The parent merges snapshots **in shard order** via
   :func:`merge_snapshots`: spans are re-identified and grafted under
   the submitting span, so ``--trace`` shows the full parent→worker
   tree.

Metrics do not cross the pool. A pooled task function records no
metric series: its result carries what it counted, and the caller
records that in its own registry (as
:func:`repro.parallel.montecarlo.sweep_pairing_moments` does from each
``ShardResult``), so every ``repro_*`` series reads the same at any
worker count.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Sequence
from typing import Any

from .trace import get_tracer

__all__ = [
    "TelemetrySnapshot",
    "TraceContext",
    "WorkerCapture",
    "begin_worker_capture",
    "capture_context",
    "finish_worker_capture",
    "merge_snapshot",
    "merge_snapshots",
]


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The correlation state a task payload carries into a worker.

    Attributes:
        trace_id: the parent's trace id (empty when tracing is off).
        parent_span_id: id of the span the task was submitted under;
            harvested worker roots re-parent onto it.
        traced: whether the worker should record spans at all.
    """

    trace_id: str = ""
    parent_span_id: int | None = None
    traced: bool = False


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """The spans one worker task finished, as picklable payloads.

    Spans are plain dicts (see :meth:`~repro.obs.trace.Span.to_payload`),
    never live ``Span`` objects with their locks and tracer references.
    """

    spans: tuple[dict[str, Any], ...] = ()
    pid: int = 0

    @property
    def empty(self) -> bool:
        return not self.spans


@dataclasses.dataclass
class WorkerCapture:
    """In-worker baseline between ``begin`` and ``finish``."""

    traced: bool
    span_baseline: int


def capture_context() -> TraceContext:
    """The parent-side context to embed in task payloads.

    Called inside the ``run_tasks`` span: when tracing is enabled the
    innermost open span on this thread becomes the graft point for every
    harvested worker span.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return TraceContext()
    span = tracer.current_span()
    if span is None:
        return TraceContext(traced=True)
    return TraceContext(
        trace_id=span.trace_id, parent_span_id=span.span_id, traced=True
    )


def begin_worker_capture(context: TraceContext) -> WorkerCapture:
    """Arm telemetry recording for one task inside a pool worker.

    Enables (or disables) the worker's tracer per the context, clears
    the open-span stack a ``fork`` may have copied mid-span, and
    baselines the finished-span list so the eventual snapshot covers
    exactly this task.
    """
    tracer = get_tracer()
    tracer.enabled = context.traced
    tracer.reset_thread_stack()
    return WorkerCapture(
        traced=context.traced, span_baseline=tracer.finished_count()
    )


def finish_worker_capture(capture: WorkerCapture) -> TelemetrySnapshot:
    """The spans finished since ``begin_worker_capture``, picklable."""
    spans: tuple[dict[str, Any], ...] = ()
    if capture.traced:
        spans = tuple(
            span.to_payload()
            for span in get_tracer().spans_since(capture.span_baseline)
        )
    return TelemetrySnapshot(spans=spans, pid=os.getpid())


def merge_snapshot(
    snapshot: TelemetrySnapshot, context: TraceContext
) -> None:
    """Graft one worker snapshot's spans into the parent's tracer."""
    if snapshot.spans:
        get_tracer().adopt(
            snapshot.spans, context.parent_span_id, context.trace_id
        )


def merge_snapshots(
    snapshots: Sequence[TelemetrySnapshot | None], context: TraceContext
) -> None:
    """Merge worker snapshots **in shard order** (never completion
    order), so the adopted spans land in the same order at any worker
    count."""
    for snapshot in snapshots:
        if snapshot is not None and not snapshot.empty:
            merge_snapshot(snapshot, context)

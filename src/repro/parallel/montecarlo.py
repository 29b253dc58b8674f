"""Monte Carlo drivers for the pairing workloads.

This is the layer fig4/fig5 (and the service's ``/montecarlo`` endpoint)
sit on. A sampling request for ``(region, model, n_samples)`` is one
:class:`ShardTask`: it draws every sample of that cell from the root
``np.random.SeedSequence(stable_seed("null-model", region, model,
seed))`` and returns a :class:`~repro.pairing.moments.StreamingMoments`
— never the raw score vector. Those are the same draws as
``PCG64(stable_seed("null-model", region, model, seed))``.

A pool only distributes the cells: a task's stream depends on its cell
and seed alone, so every worker count, and ``config=None`` (in this
process), gives the same moments bit for bit. Only a pooled sweep
(:func:`~repro.parallel.executor.runs_pooled`) publishes shared memory;
tasks that run in the calling process sample the caller's own
:class:`~repro.pairing.views.CuisineView`. This module is the only place
that maps ``(region, model, seed)`` to a generator.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from ..flavordb import stable_seed
from ..obs import get_registry, span
from ..pairing.models import NullModel, sample_model_moments
from ..pairing.moments import StreamingMoments
from ..pairing.views import CuisineView
from .executor import ParallelConfig, run_tasks, runs_pooled
from .sharedmem import AttachedView, SharedViewSpec, SharedViewStore


def _with_view(
    source: SharedViewSpec | CuisineView, fn: Callable[[CuisineView], Any]
) -> Any:
    """``fn(view)`` on a resident view, or on one attached from ``source``."""
    if isinstance(source, CuisineView):
        return fn(source)
    attached = AttachedView(source)
    try:
        return fn(attached.view)
    finally:
        attached.close()


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One Monte Carlo work unit: every sample of one (region, model).

    A pooled task carries only the shared-memory spec, the model name,
    the cell's root seed sequence and its sample count — a test caps its
    pickled size to guarantee no worker ever receives an overlap matrix.
    A task run in the calling process carries the caller's resident
    :class:`CuisineView` as ``spec`` instead; it is never pickled.
    """

    spec: SharedViewSpec | CuisineView
    model_value: str
    seed_seq: np.random.SeedSequence
    n_samples: int


@dataclasses.dataclass(frozen=True)
class ShardResult:
    """A task's moments plus throughput bookkeeping."""

    moments: StreamingMoments
    samples: int
    elapsed: float
    pid: int


def run_shard(task: ShardTask) -> ShardResult:
    """Sample one cell (attaching its view if pooled); return its moments.

    Records ``repro_montecarlo_*`` series *in the worker*; the executor
    harvests them back as deltas, so the merged registry reads the same
    totals (and the same histogram window, merged in task order) at any
    worker count.
    """
    started = time.perf_counter()
    with span(
        "montecarlo.shard",
        region=task.spec.region_code,
        model=task.model_value,
    ) as trace:
        moments = _with_view(
            task.spec,
            lambda view: sample_model_moments(
                view,
                NullModel(task.model_value),
                task.n_samples,
                np.random.Generator(np.random.PCG64(task.seed_seq)),
            ),
        )
        trace.incr("samples", task.n_samples)
    registry = get_registry()
    registry.counter("repro_montecarlo_shards_total").incr()
    registry.counter(
        "repro_montecarlo_samples_total", model=task.model_value
    ).incr(task.n_samples)
    registry.histogram("repro_montecarlo_shard_samples").observe(
        float(task.n_samples)
    )
    return ShardResult(
        moments=moments,
        samples=task.n_samples,
        elapsed=time.perf_counter() - started,
        pid=os.getpid(),
    )


def shard_task(
    spec: SharedViewSpec | CuisineView,
    model: NullModel,
    n_samples: int,
    seed: int | None = None,
) -> ShardTask:
    """The task that draws every sample of one (region, model).

    Its generator is seeded by the cell's root sequence itself, so where
    the task runs never changes what it draws.
    """
    seed_label = "default" if seed is None else str(seed)
    root = np.random.SeedSequence(
        stable_seed(
            "null-model", spec.region_code, model.value, seed_label
        )
    )
    return ShardTask(
        spec=spec, model_value=model.value, seed_seq=root, n_samples=n_samples
    )


def sweep_pairing_moments(
    views: Mapping[str, CuisineView],
    models: Sequence[NullModel],
    n_samples: int,
    config: ParallelConfig | None = None,
    seed: int | None = None,
) -> dict[tuple[str, NullModel], StreamingMoments]:
    """Null-model score moments for every (region, model) pair.

    One task per pair, all through one pool, so slow regions overlap
    with fast ones; ``config=None`` runs them in this process. The views
    go to shared memory only when the tasks leave this process.
    """
    workers = 1 if config is None else config.workers
    with span(
        "parallel.sweep",
        regions=len(views),
        models=len(models),
        n_samples=n_samples,
        workers=workers,
    ) as trace:
        pooled = runs_pooled(workers, len(views) * len(models))
        with SharedViewStore() as store:
            tasks: list[ShardTask] = []
            keys: list[tuple[str, NullModel]] = []
            for region_code, view in views.items():
                source = store.publish(view) if pooled else view
                for model in models:
                    tasks.append(shard_task(source, model, n_samples, seed))
                    keys.append((region_code, model))
            results = run_tasks(
                run_shard,
                tasks,
                workers=workers,
                label="parallel.montecarlo",
            )
        _surface_throughput(trace, results)
        return {key: result.moments for key, result in zip(keys, results)}


def model_moments(
    view: CuisineView,
    model: NullModel,
    n_samples: int,
    seed: int | None = None,
) -> StreamingMoments:
    """Moments for a single (region, model) request, in this process."""
    sweep = sweep_pairing_moments(
        {view.region_code: view}, (model,), n_samples, seed=seed
    )
    return sweep[(view.region_code, model)]


# ---------------------------------------------------------------------------
# fig5: leave-one-out contribution sweep
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ContributionTask:
    """One region's full leave-one-out chi sweep (view as in ShardTask)."""

    spec: SharedViewSpec | CuisineView


def run_contribution_task(task: ContributionTask) -> np.ndarray:
    """Worker entry point: chi_i for every ingredient of one cuisine."""
    from ..pairing.contribution import chi_values

    return _with_view(
        task.spec, lambda view: np.array(chi_values(view), copy=True)
    )


def sweep_contributions(
    views: Mapping[str, CuisineView], config: ParallelConfig | None = None
) -> dict[str, np.ndarray]:
    """Per-region chi vectors, one worker task per region.

    The computation is exact (no sampling), so every worker count, and
    ``config=None`` (in this process), gives the same vectors; workers
    return bare ``float64`` vectors and the parent re-attaches
    ingredient names.
    """
    workers = 1 if config is None else config.workers
    with span("parallel.contributions", regions=len(views), workers=workers):
        pooled = runs_pooled(workers, len(views))
        with SharedViewStore() as store:
            codes = list(views)
            tasks = [
                ContributionTask(
                    spec=store.publish(views[code]) if pooled else views[code]
                )
                for code in codes
            ]
            results = run_tasks(
                run_contribution_task,
                tasks,
                workers=workers,
                label="parallel.chi",
            )
        return dict(zip(codes, results))


def _surface_throughput(trace, results: Sequence[ShardResult]) -> None:
    """Per-worker throughput counters on the parent sweep span."""
    by_pid: dict[int, list[float]] = {}
    total_samples = 0
    for result in results:
        samples, elapsed = by_pid.setdefault(result.pid, [0, 0.0])
        by_pid[result.pid] = [samples + result.samples, elapsed + result.elapsed]
        total_samples += result.samples
    trace.incr("shards", len(results))
    trace.incr("samples", total_samples)
    trace.set("workers_used", len(by_pid))
    for slot, pid in enumerate(sorted(by_pid)):
        samples, elapsed = by_pid[pid]
        rate = round(samples / elapsed) if elapsed > 0 else 0
        trace.set(f"worker{slot}.samples_per_sec", rate)

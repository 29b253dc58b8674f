"""Monte Carlo drivers for the pairing workloads.

This is the layer fig4 (and the service's ``/montecarlo`` endpoint) sit
on. A sampling request for ``(region, model, n_samples)`` is one
:class:`ShardTask`: it draws every sample of that cell from the root
``np.random.SeedSequence(stable_seed("null-model", region, model,
seed))`` and returns a :class:`~repro.pairing.moments.StreamingMoments`
— never the raw score vector. Those are the same draws as
``PCG64(stable_seed("null-model", region, model, seed))``.

A pool only distributes the cells: a task's stream depends on its cell
and seed alone, so every worker count, and ``config=None`` (in this
process), gives the same moments bit for bit. Every task carries its
cell's :class:`~repro.pairing.views.CuisineView`; a pooled task reaches
its worker through the pool's own pickling, and a task run in this
process samples the caller's view itself. This module is the only place
that maps ``(region, model, seed)`` to a generator.

A task records no metric series: :func:`run_shard` opens its span and
returns a :class:`ShardResult`, and :func:`sweep_pairing_moments`
counts ``repro_montecarlo_shards_total`` and
``repro_montecarlo_samples_total{model}`` from those results, in task
order, wherever the tasks ran.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Mapping, Sequence

import numpy as np

from ..flavordb import stable_seed
from ..obs import get_registry, span
from ..pairing.models import NullModel, sample_model_moments
from ..pairing.moments import StreamingMoments
from ..pairing.views import CuisineView
from .executor import ParallelConfig, run_tasks


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One Monte Carlo work unit: every sample of one (region, model).

    It carries the cell's view, the model name, the cell's root seed
    sequence and its sample count. A pooled task pickles the view with
    it: the largest scale-1.0 view (USA) is about 2.5 MB and all 22
    about 8 MB, so the 88 tasks of a four-model sweep ship about 32 MB.
    """

    view: CuisineView
    model_value: str
    seed_seq: np.random.SeedSequence
    n_samples: int


@dataclasses.dataclass(frozen=True)
class ShardResult:
    """A task's moments plus what it counted, for the caller to record."""

    moments: StreamingMoments
    samples: int
    elapsed: float
    pid: int


def run_shard(task: ShardTask) -> ShardResult:
    """Sample one cell; return its moments and what it counted.

    Opens a ``montecarlo.shard`` span and writes no metric series: the
    caller counts the result (see :func:`sweep_pairing_moments`).
    """
    started = time.perf_counter()
    with span(
        "montecarlo.shard",
        region=task.view.region_code,
        model=task.model_value,
    ) as trace:
        moments = sample_model_moments(
            task.view,
            NullModel(task.model_value),
            task.n_samples,
            np.random.Generator(np.random.PCG64(task.seed_seq)),
        )
        trace.incr("samples", task.n_samples)
    return ShardResult(
        moments=moments,
        samples=task.n_samples,
        elapsed=time.perf_counter() - started,
        pid=os.getpid(),
    )


def shard_task(
    view: CuisineView,
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
            "null-model", view.region_code, model.value, seed_label
        )
    )
    return ShardTask(
        view=view, model_value=model.value, seed_seq=root, n_samples=n_samples
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
    with fast ones; ``config=None`` runs them in this process. The
    ``repro_montecarlo_*`` counters are recorded here from each task's
    result, in task order, so they read the same on every path.
    """
    workers = 1 if config is None else config.workers
    with span(
        "parallel.sweep",
        regions=len(views),
        models=len(models),
        n_samples=n_samples,
        workers=workers,
    ) as trace:
        keys = [
            (region_code, model) for region_code in views for model in models
        ]
        results = run_tasks(
            run_shard,
            [
                shard_task(views[region_code], model, n_samples, seed)
                for region_code, model in keys
            ],
            workers=workers,
            label="parallel.montecarlo",
        )
        registry = get_registry()
        for (_region, model), result in zip(keys, results):
            registry.counter("repro_montecarlo_shards_total").incr()
            registry.counter(
                "repro_montecarlo_samples_total", model=model.value
            ).incr(result.samples)
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

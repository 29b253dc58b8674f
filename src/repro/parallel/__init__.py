"""``repro.parallel`` — the process-pool Monte Carlo execution engine.

The pool runs null-model sampling only (``--workers`` on ``run``,
``fig4``, ``fig5`` and ``report``, and a served ``/montecarlo``'s
``workers``). The cold corpus and aliasing stage builds run in one
process, so their artifacts are byte-stable by construction.

Three layers, bottom-up:

* :mod:`repro.parallel.executor` — generic fan-out: map a worker function
  over task payloads across a ``ProcessPoolExecutor`` with a serial
  fallback at ``workers=1`` and serial retry of any shard whose worker
  crashed.
* :mod:`repro.parallel.sharedmem` — zero-copy transport for pooled
  sweeps: each cuisine's overlap matrix, recipe index arrays, frequency
  vector and category ids live in named shared-memory blocks; task
  payloads carry block names + shapes only (a few hundred bytes), never
  the matrices. Unpooled shards sample the caller's own views.
* :mod:`repro.parallel.montecarlo` — the sampling drivers: shard
  decomposition with ``SeedSequence.spawn`` determinism, streaming
  :class:`~repro.pairing.moments.StreamingMoments` reduction, and the
  fig4/fig5 sweeps. They are the only code that draws a null-model
  sample: without a :class:`ParallelConfig` they run the unsharded
  plan, one in-process shard per (region, model) on the root seed
  sequence.

Results are **bit-identical across worker counts** for a fixed
``(seed, n_samples, shard_size)``: shard RNG streams depend only on the
decomposition, and shard moments merge in shard-index order.
"""

from .executor import (
    DEFAULT_SHARD_SIZE,
    ParallelConfig,
    resolve_workers,
    run_tasks,
    shard_sizes,
)
from .montecarlo import (
    ContributionTask,
    ShardResult,
    ShardTask,
    model_moments,
    run_contribution_task,
    run_shard,
    shard_tasks,
    sweep_contributions,
    sweep_pairing_moments,
)
from .sharedmem import (
    AttachedView,
    BlockSpec,
    SharedViewSpec,
    SharedViewStore,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ParallelConfig",
    "resolve_workers",
    "run_tasks",
    "shard_sizes",
    "ContributionTask",
    "ShardResult",
    "ShardTask",
    "model_moments",
    "run_contribution_task",
    "run_shard",
    "shard_tasks",
    "sweep_contributions",
    "sweep_pairing_moments",
    "AttachedView",
    "BlockSpec",
    "SharedViewSpec",
    "SharedViewStore",
]

"""``repro.parallel`` — the process-pool Monte Carlo execution engine.

The pool runs null-model sampling only (``--workers`` on ``run``,
``fig4``, ``fig5`` and ``report``). The cold corpus and aliasing stage
builds run in one process, so their artifacts are byte-stable by
construction, and a served ``/montecarlo`` samples its one cell in the
handler's own thread.

Three layers, bottom-up:

* :mod:`repro.parallel.executor` — generic fan-out: map a worker function
  over task payloads across a ``ProcessPoolExecutor`` with a serial
  fallback at ``workers=1`` and serial retry of any task whose worker
  crashed.
* :mod:`repro.parallel.sharedmem` — zero-copy transport for pooled
  sweeps: each cuisine's overlap matrix, recipe index arrays, frequency
  vector and category ids live in named shared-memory blocks; task
  payloads carry block names + shapes only (a few hundred bytes), never
  the matrices. Unpooled tasks sample the caller's own views.
* :mod:`repro.parallel.montecarlo` — the sampling drivers: one task per
  (region, model) on that cell's root seed sequence, streaming
  :class:`~repro.pairing.moments.StreamingMoments` reduction, and the
  fig4/fig5 sweeps. They are the only code that draws a null-model
  sample.

Results are **bit-identical across worker counts**, and equal to a run
without a :class:`ParallelConfig`: a cell's stream depends only on
``(region, model, seed)``, and the pool only decides where it runs.
"""

from .executor import ParallelConfig, resolve_workers, run_tasks
from .montecarlo import (
    ContributionTask,
    ShardResult,
    ShardTask,
    model_moments,
    run_contribution_task,
    run_shard,
    shard_task,
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
    "ParallelConfig",
    "resolve_workers",
    "run_tasks",
    "ContributionTask",
    "ShardResult",
    "ShardTask",
    "model_moments",
    "run_contribution_task",
    "run_shard",
    "shard_task",
    "sweep_contributions",
    "sweep_pairing_moments",
    "AttachedView",
    "BlockSpec",
    "SharedViewSpec",
    "SharedViewStore",
]

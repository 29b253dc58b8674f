"""``repro.parallel`` — the process-pool Monte Carlo execution engine.

The pool runs null-model sampling only (``--workers`` on ``run``,
``fig4`` and ``report``). The cold corpus and aliasing stage builds run
in one process, so their artifacts are byte-stable by construction; Fig
5's exact leave-one-out sweep runs in the calling process; and a served
``/montecarlo`` samples its one cell in the handler's own thread.

Two layers, bottom-up:

* :mod:`repro.parallel.executor` — generic fan-out: map a worker function
  over task payloads across a ``ProcessPoolExecutor`` with a serial
  fallback at ``workers=1`` and serial retry of any task whose worker
  crashed. The pool's own pickling is the only transport.
* :mod:`repro.parallel.montecarlo` — the sampling drivers: one task per
  (region, model) on that cell's root seed sequence, carrying that
  cell's cuisine view, a streaming
  :class:`~repro.pairing.moments.StreamingMoments` reduction, and the
  fig4 sweep. They are the only code that draws a null-model sample.

Results are **bit-identical across worker counts**, and equal to a run
without a :class:`ParallelConfig`: a cell's stream depends only on
``(region, model, seed)``, and the pool only decides where it runs.
"""

from .executor import ParallelConfig, resolve_workers, run_tasks
from .montecarlo import (
    ShardResult,
    ShardTask,
    model_moments,
    run_shard,
    shard_task,
    sweep_pairing_moments,
)

__all__ = [
    "ParallelConfig",
    "resolve_workers",
    "run_tasks",
    "ShardResult",
    "ShardTask",
    "model_moments",
    "run_shard",
    "shard_task",
    "sweep_pairing_moments",
]

"""Bench the parallel Monte Carlo engine: scaling across worker counts.

Runs the fig4 sampling sweep (all 22 regions, the uniform-random model,
one task per region) through the pool at 1, 2, 4 and 8 workers (clamped
to the machine's core count), verifies the z-scores at every worker
count are bit-identical to the run without a pool, and writes the
scaling table to ``BENCH_parallel.json``::

    {"n_samples": ..., "cores": ...,
     "timings": {"workers_1": {"seconds": ..., "speedup": 1.0}, ...}}

``timings`` is keyed by worker count so that ``repro obs check`` gates
each rung's ``seconds`` and ``speedup`` against the committed baseline
(the watchdog compares mapping leaves, not list items).

On a machine with 4+ cores the 4-worker run must beat the serial run by
at least 1.5x; on smaller machines the speedup assertion is skipped (the
determinism assertions always run).

``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SAMPLES`` scale the workload as for
the other benches.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.fig4 import run_fig4
from repro.pairing import NullModel
from repro.parallel import ParallelConfig

#: Where the scaling table lands (repo root by default).
BENCH_OUT = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_parallel.json"))

#: Worker counts to sweep, clamped to the visible cores below.
WORKER_LADDER = (1, 2, 4, 8)

#: Minimum speedup of 4 workers over 1 on a 4+ core machine.
MIN_SPEEDUP_AT_4 = 1.5


def test_bench_parallel_scaling(workspace, bench_samples):
    cores = os.cpu_count() or 1
    ladder = [count for count in WORKER_LADDER if count <= cores]
    if 1 not in ladder:
        ladder.insert(0, 1)

    def z_rows(parallel):
        result = run_fig4(
            workspace,
            n_samples=bench_samples,
            models=(NullModel.RANDOM,),
            parallel=parallel,
        )
        return [(row.code, row.z_random) for row in result.rows]

    reference_rows = z_rows(None)
    timings: dict[str, dict[str, float]] = {}
    for workers in ladder:
        started = time.perf_counter()
        rows = z_rows(ParallelConfig(workers=workers))
        elapsed = time.perf_counter() - started
        timings[f"workers_{workers}"] = {"seconds": round(elapsed, 3)}
        # Bit-identical z-scores at every worker count, and to the run
        # without a pool.
        assert rows == reference_rows

    serial_seconds = timings["workers_1"]["seconds"]
    for entry in timings.values():
        entry["speedup"] = (
            round(serial_seconds / entry["seconds"], 2)
            if entry["seconds"] > 0
            else 0.0
        )

    payload = {
        "benchmark": "parallel_montecarlo_fig4",
        "n_samples": bench_samples,
        "regions": len(reference_rows),
        "cores": cores,
        "timings": timings,
    }
    BENCH_OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + json.dumps(payload, indent=2))

    if cores >= 4:
        speedup = timings["workers_4"]["speedup"]
        assert speedup >= MIN_SPEEDUP_AT_4, (
            f"4-worker speedup {speedup}x "
            f"< {MIN_SPEEDUP_AT_4}x on a {cores}-core machine"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= 4 cores (have {cores}); "
            "determinism checks passed"
        )


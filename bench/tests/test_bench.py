"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest bench/tests -q

The end-to-end cases run every workload once per mode at ``--scale 0.02``.
"""

from __future__ import annotations

import collections
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import client, stats, workloads
from bench.harness import RUNNERS, STAGES
from repro.service.cache import canonical_key

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SERVE = ("serve_zipf", "serve_unique")


@pytest.fixture(scope="module")
def pools() -> workloads.Pools:
    return workloads.Pools.generate(workloads.Universe.from_program())


def test_every_listed_workload_has_a_runner():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(RUNNERS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_name_is_valid():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_stages_are_the_program_stages():
    from repro.engine import STAGE_ORDER

    assert STAGES == STAGE_ORDER


@pytest.mark.parametrize("workload", SERVE)
def test_sequences_are_deterministic_per_seed(workload, pools):
    first = workloads.sequence(workload, 7, 500, pools)
    assert first == workloads.sequence(workload, 7, 500, pools)
    assert first != workloads.sequence(workload, 8, 500, pools)


@pytest.mark.parametrize("workload", SERVE)
def test_mix_has_the_exact_endpoint_weights(workload, pools):
    requests = workloads.sequence(workload, 1, 1000, pools)
    blocks = (workloads.WARMUP[workload] + 1000) // 100
    kinds = collections.Counter(r.kind for r in requests)
    assert kinds == {kind: share * blocks for kind, share in workloads.MIX.items()}


@pytest.mark.parametrize("workload", SERVE)
def test_the_seed_orders_one_fixed_profile(workload, pools):
    warmup = workloads.WARMUP[workload]
    parts = [workloads.sequence(workload, seed, 1000, pools) for seed in (1, 2)]
    assert parts[0] != parts[1]
    for cut in (slice(None, warmup), slice(warmup, None)):
        first, second = (collections.Counter(r.key for r in part[cut]) for part in parts)
        assert first == second


def test_serve_unique_never_repeats_a_cache_key(pools):
    most = workloads.UNIQUE_POOL - workloads.WARMUP["serve_unique"]
    requests = workloads.unique_sequence(3, most, pools)
    keys = {canonical_key(r.path.lstrip("/"), r.payload) for r in requests}
    assert len(keys) == len(requests) == workloads.UNIQUE_POOL
    assert {r.key for r in requests} == keys
    with pytest.raises(ValueError):
        workloads.unique_sequence(3, most + 1, pools)


def test_serve_zipf_pool_is_four_times_the_cache(pools):
    assert len(pools.zipf) == workloads.ZIPF_POOL == 4 * workloads.CACHE_CAPACITY
    assert len({r.key for r in pools.zipf}) == len(pools.zipf)
    requests = workloads.zipf_sequence(3, 5000, pools)
    assert {r.key for r in requests} <= {r.key for r in pools.zipf}


def test_zipf_counts_follow_the_popularity_rank(pools):
    requests = workloads.zipf_sequence(3, 2800, pools)[workloads.WARMUP["serve_zipf"]:]
    counts = collections.Counter(r.key for r in requests)
    for entries in (e for e in workloads._by_kind(pools.zipf).values()):
        sent = [counts[r.key] for r in entries]
        assert sent == sorted(sent, reverse=True)
        assert sent[0] > sent[len(sent) // 2]


def test_pools_survive_the_cache_file(pools):
    assert workloads.Pools.from_json(json.loads(json.dumps(pools.to_json()))) == pools


@pytest.mark.parametrize(
    ("count", "expected"),
    [(10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    values = list(range(count))
    value, pct = stats.tail(values)
    if expected is None:
        assert value == count - 1
    else:
        assert sum(v > value for v in values) >= 10
        higher = [p for p in stats.TAIL_PERCENTILES if p > expected]
        assert all(count - math.ceil(count * p / 100) < 10 for p in higher)


def test_client_refuses_more_connections_than_cores():
    with pytest.raises(ValueError):
        client.closed_loop(1, [b""], client.MAX_CONNECTIONS + 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "tests"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_zipf", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(RUNNERS))
def test_run_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(math.isfinite(value) for value in values)
    if not trace:
        assert all(value > 0 for value in values)

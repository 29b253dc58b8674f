"""Throughput benches for the substrates: storage engine, aliasing, corpus.

Not paper figures — these track the performance of the infrastructure the
experiments run on (bulk insert, indexed lookup, hash join, SQL group-by,
phrase aliasing, corpus generation), plus the cold-build bench that
writes ``BENCH_aliasing.json`` (see :func:`test_bench_cold_build_scaling`).
"""

import gc
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.aliasing import AliasingPipeline
from repro.corpus import CorpusGenerator
from repro.db import Column, ColumnType, Database, Schema, col, count
from repro.flavordb import default_catalog

ROWS = 20_000

#: Where the cold-build timing lands (repo root by default).
ALIASING_BENCH_OUT = Path(
    os.environ.get("REPRO_BENCH_ALIASING_OUT", "BENCH_aliasing.json")
)

#: Fixed scale for the cold-build bench — independent of
#: ``REPRO_BENCH_SCALE`` so the perf trajectory in BENCH_aliasing.json
#: is comparable across runs and machines.
COLD_BUILD_SCALE = 0.25


@pytest.fixture(scope="module")
def engine_db():
    db = Database("bench")
    db.create_table(
        "events",
        Schema(
            [
                Column("event_id", ColumnType.INT, primary_key=True),
                Column("bucket", ColumnType.INT, indexed=True),
                Column("value", ColumnType.FLOAT),
            ]
        ),
    )
    rng = np.random.default_rng(0)
    buckets = rng.integers(0, 100, ROWS)
    values = rng.random(ROWS)
    db.table("events").bulk_insert(
        {
            "event_id": index,
            "bucket": int(buckets[index]),
            "value": float(values[index]),
        }
        for index in range(ROWS)
    )
    db.create_table(
        "buckets",
        Schema(
            [
                Column("bucket", ColumnType.INT, primary_key=True),
                Column("label", ColumnType.TEXT),
            ]
        ),
    )
    db.table("buckets").bulk_insert(
        {"bucket": b, "label": f"bucket-{b}"} for b in range(100)
    )
    return db


class TestEngine:
    def test_bench_bulk_insert(self, benchmark):
        def run():
            db = Database()
            db.create_table(
                "t",
                Schema(
                    [
                        Column("k", ColumnType.INT, primary_key=True),
                        Column("v", ColumnType.INT, indexed=True),
                    ]
                ),
            )
            db.table("t").bulk_insert(
                {"k": i, "v": i % 50} for i in range(5000)
            )
            return len(db.table("t"))

        assert benchmark(run) == 5000

    def test_bench_indexed_lookup(self, benchmark, engine_db):
        table = engine_db.table("events")

        def run():
            return sum(len(table.lookup("bucket", b)) for b in range(100))

        assert benchmark(run) == ROWS

    def test_bench_full_scan_filter(self, benchmark, engine_db):
        def run():
            return (
                engine_db.query("events").where(col("value") > 0.5).count()
            )

        assert 0 < benchmark(run) < ROWS

    def test_bench_hash_join_group_by(self, benchmark, engine_db):
        def run():
            return (
                engine_db.query("events")
                .join("buckets", on=("bucket", "bucket"))
                .group_by("label", n=count())
                .count()
            )

        assert benchmark(run) == 100

    def test_bench_sql_aggregate(self, benchmark, engine_db):
        def run():
            return engine_db.sql(
                "SELECT bucket, COUNT(*) AS n FROM events "
                "GROUP BY bucket ORDER BY n DESC LIMIT 10"
            )

        assert len(benchmark(run)) == 10


class TestAliasingThroughput:
    def test_bench_phrase_aliasing(self, benchmark, workspace):
        pipeline = AliasingPipeline(workspace.catalog)
        phrases = [
            phrase
            for raw in workspace.corpus.raw_recipes[:400]
            for phrase in raw.ingredient_phrases
        ]

        def run():
            return sum(
                len(pipeline.resolve_phrase(phrase).ingredients)
                for phrase in phrases
            )

        assert benchmark(run) > 0


class TestCorpusGeneration:
    def test_bench_small_corpus_generation(self, benchmark):
        def run():
            generator = CorpusGenerator(
                recipe_scale=0.02, include_world_only=False
            )
            return len(generator.generate().raw_recipes)

        assert benchmark.pedantic(run, rounds=2, iterations=1) > 1000


def _timed_cold_build():
    """One full cold corpus+aliasing build; returns (result, seconds).

    A full cold build allocates millions of small objects; with earlier
    results still alive, collector passes and allocator pressure
    dominate the later runs and skew the timings. Collect before and
    disable the collector during the timed region — and callers must
    reduce each result to digests (:func:`_result_digests`) rather than
    retain it across the next timed run.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        corpus = CorpusGenerator(recipe_scale=COLD_BUILD_SCALE).generate()
        result = AliasingPipeline(default_catalog()).resolve_corpus(
            corpus.raw_recipes
        )
        return result, time.perf_counter() - started
    finally:
        gc.enable()


def _result_digests(result) -> tuple[str, str, tuple]:
    """Value digests of an aliasing result for cross-run comparison.

    Returns ``(recipes_sha, phrase_counts_sha, top_unmatched)``. Digests
    are computed from sorted primitive fields (frozensets are sorted
    first) so equal values always digest equally, letting the bench
    assert bit-identity without keeping full result graphs alive.
    """
    recipes_sha = hashlib.sha256()
    for recipe in result.recipes:
        recipes_sha.update(
            repr(
                (
                    recipe.recipe_id,
                    recipe.region_code,
                    sorted(recipe.ingredient_ids),
                    recipe.title,
                    recipe.source,
                )
            ).encode()
        )
    counts = result.report.phrase_counts
    counts_sha = hashlib.sha256(
        repr(sorted(counts.items(), key=lambda item: str(item[0]))).encode()
    )
    return (
        recipes_sha.hexdigest(),
        counts_sha.hexdigest(),
        tuple(result.report.top_unmatched(1000)),
    )


def test_bench_cold_build_scaling():
    """Two timed cold corpus+aliasing builds, which must agree.

    Writes ``BENCH_aliasing.json``::

        {"benchmark": "cold_build_aliasing", "scale": ..., "recipes": ...,
         "cores": ..., "timings": {"cold_build": {"seconds": ...}}}

    ``seconds`` is the faster of the two builds after a small warm-up
    build, which ``repro obs check`` gates against the committed
    baseline: on a shared host one build alone moves by a third from
    run to run, and the faster of two repeats much better. The second
    build must give identical values: identical recipes and an
    identical curation report. No speed floor is asserted here;
    ``paper_cold`` in ``bench/`` gates the cold build end to end.
    """
    # Warm process-global caches (singularize lru, interned regexes,
    # imports) with a tiny build so the measured run does not pay them.
    AliasingPipeline(default_catalog(), phrase_cache_size=0).resolve_corpus(
        CorpusGenerator(recipe_scale=0.01).generate().raw_recipes
    )

    result, elapsed = _timed_cold_build()
    digests = _result_digests(result)
    recipe_count = len(result.recipes)
    del result
    again, elapsed_again = _timed_cold_build()
    assert _result_digests(again) == digests
    elapsed = min(elapsed, elapsed_again)

    payload = {
        "benchmark": "cold_build_aliasing",
        "scale": COLD_BUILD_SCALE,
        "recipes": recipe_count,
        "cores": os.cpu_count() or 1,
        "timings": {"cold_build": {"seconds": round(elapsed, 3)}},
    }
    ALIASING_BENCH_OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + json.dumps(payload, indent=2))


class TestDmlAndTransactions:
    def test_bench_sql_insert(self, benchmark):
        def run():
            db = Database()
            db.create_table(
                "t",
                Schema(
                    [
                        Column("k", ColumnType.INT, primary_key=True),
                        Column("v", ColumnType.TEXT),
                    ]
                ),
            )
            values = ", ".join(f"({i}, 'v{i}')" for i in range(500))
            db.sql(f"INSERT INTO t (k, v) VALUES {values}")
            return len(db.table("t"))

        assert benchmark(run) == 500

    def test_bench_transaction_snapshot_overhead(self, benchmark, engine_db):
        from repro.db import transaction

        def run():
            with transaction(engine_db):
                engine_db.table("events").update(
                    {"value": 0.0}, col("event_id") == 0
                )
            return True

        assert benchmark(run)

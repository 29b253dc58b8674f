"""Bench the retrieval index: build/load cost and indexed-vs-scan top-k.

Sweeps the *full* pairable ingredient universe twice — once through the
brute-force scan ``tests.oracles.scan_similar``, once through
``similar_ingredients`` on the precomputed neighbor lists — plus a
``complete_recipe`` sample against ``scan_complete``, and writes the
numbers to ``BENCH_retrieval.json`` (the ``reference_*`` keys time the
scans)::

    {"ingredients": ..., "build_seconds": ..., "load_seconds": ...,
     "similar": {"reference_seconds": ..., "indexed_seconds": ...,
                 "speedup": ...},
     "complete": {"reference_seconds": ..., "indexed_seconds": ...,
                  "speedup": ...}}

The indexed similar sweep must beat the scan by at least 10x
(``MIN_SIMILAR_SPEEDUP``); set ``REPRO_BENCH_SMOKE=1`` to keep the
measurement but skip the speedup assertion (CI smoke mode on small
runners).

``REPRO_BENCH_SCALE`` scales the workload as for the other benches. Run
it from the repo root (``python -m pytest benchmarks/...``) so that the
``tests`` package imports.
"""

import json
import os
import pickle
import time
from pathlib import Path

from repro.retrieval import (
    DEFAULT_TOPK,
    build_retrieval_index,
    complete_recipe,
    similar_ingredients,
)
from tests.oracles import scan_complete, scan_similar

#: Where the timing table lands (repo root by default).
BENCH_OUT = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_retrieval.json"))

#: Required advantage of the indexed similar sweep over the full scan.
MIN_SIMILAR_SPEEDUP = 10.0

#: Partial recipes sampled for the completion comparison.
COMPLETE_SAMPLES = 50

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _sweep(query, inputs):
    started = time.perf_counter()
    for item in inputs:
        query(item)
    return time.perf_counter() - started


def test_bench_retrieval(workspace):
    catalog = workspace.catalog
    cuisines = workspace.regional_cuisines()

    started = time.perf_counter()
    index = build_retrieval_index(catalog, cuisines)
    build_seconds = time.perf_counter() - started

    blob = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    started = time.perf_counter()
    pickle.loads(blob)
    load_seconds = time.perf_counter() - started

    universe = catalog.pairable_ingredients()
    reference_similar = _sweep(
        lambda item: scan_similar(catalog, item, DEFAULT_TOPK), universe
    )
    indexed_similar = _sweep(
        lambda item: similar_ingredients(index, catalog, item, DEFAULT_TOPK),
        universe,
    )

    partials = []
    for recipe in workspace.recipes:
        members = [
            catalog.by_id(ingredient_id)
            for ingredient_id in sorted(recipe.ingredient_ids)
        ]
        if sum(m.has_flavor_profile for m in members) >= 2:
            partials.append(members)
        if len(partials) >= COMPLETE_SAMPLES:
            break
    reference_complete = _sweep(
        lambda item: scan_complete(catalog, item, DEFAULT_TOPK), partials
    )
    indexed_complete = _sweep(
        lambda item: complete_recipe(index, item, DEFAULT_TOPK), partials
    )

    def ratio(reference, indexed):
        return round(reference / indexed, 2) if indexed > 0 else 0.0

    payload = {
        "benchmark": "retrieval_topk",
        "ingredients": len(universe),
        "partials": len(partials),
        "k": DEFAULT_TOPK,
        "artifact_bytes": len(blob),
        "build_seconds": round(build_seconds, 4),
        "load_seconds": round(load_seconds, 4),
        "similar": {
            "reference_seconds": round(reference_similar, 4),
            "indexed_seconds": round(indexed_similar, 4),
            "speedup": ratio(reference_similar, indexed_similar),
        },
        "complete": {
            "reference_seconds": round(reference_complete, 4),
            "indexed_seconds": round(indexed_complete, 4),
            "speedup": ratio(reference_complete, indexed_complete),
        },
        "smoke": SMOKE,
    }
    BENCH_OUT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    assert indexed_similar < reference_similar
    if not SMOKE:
        assert payload["similar"]["speedup"] >= MIN_SIMILAR_SPEEDUP, (
            f"indexed similar sweep only "
            f"{payload['similar']['speedup']}x faster than the scan"
        )

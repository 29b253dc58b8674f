"""Tests for workspace assembly: build dedup and the memory tier's bound.

The serving layer (``repro.service``) hits ``build_workspace`` from many
threads at once; these tests pin down the guarantees it relies on. A
workspace is assembled from the engine's stage artifacts on every call,
so the guarantees come from the engine's memory tier. Each test gets a
private tier, so its evictions never force other modules to rebuild.
"""

import threading

import pytest

from repro.engine import STAGE_ORDER, clear_memory_tier
from repro.engine import engine as engine_module
from repro.experiments import build_workspace
from repro.lru import ResultCache
from repro.obs import get_registry

#: Tiny corpus so cache-behaviour tests build in well under a second.
TINY = dict(recipe_scale=0.01, include_world_only=False)


@pytest.fixture()
def tier(monkeypatch):
    """A private memory tier that holds the stage sets of two configs."""
    private = ResultCache(capacity=2 * len(STAGE_ORDER))
    monkeypatch.setattr(engine_module, "_MEMORY", private)
    return private


def _builds() -> float:
    return sum(
        series.metric.value
        for series in get_registry().collect()
        if series.name == "engine_stage_build_total"
    )


def _run_threads(target, args):
    threads = [threading.Thread(target=target, args=(arg,)) for arg in args]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()


class TestCacheBasics:
    def test_same_key_returns_cached_object(self, tier):
        first = build_workspace(**TINY)
        again = build_workspace(**TINY)
        assert again.corpus is first.corpus
        assert again.recipes is first.recipes

    def test_clear_forgets_entries(self, tier):
        first = build_workspace(**TINY)
        clear_memory_tier()
        assert build_workspace(**TINY).recipes is not first.recipes


class TestLRUBound:
    def test_capacity_is_enforced(self, tier):
        first = build_workspace(seed=1, **TINY)
        build_workspace(seed=2, **TINY)
        build_workspace(seed=3, **TINY)  # evicts seed=1 (the LRU stages)
        assert len(tier) <= tier.capacity
        assert build_workspace(seed=1, **TINY).recipes is not first.recipes

    def test_get_refreshes_recency(self, tier):
        first = build_workspace(seed=1, **TINY)
        build_workspace(seed=2, **TINY)
        build_workspace(seed=1, **TINY)  # touch: seed=2 becomes the LRU
        build_workspace(seed=3, **TINY)  # evicts seed=2
        assert build_workspace(seed=1, **TINY).recipes is first.recipes


class TestConcurrency:
    def test_concurrent_same_key_builds_once(self, tier):
        builds = _builds()
        results = [None] * 8

        def worker(slot):
            results[slot] = build_workspace(**TINY)

        _run_threads(worker, range(8))
        # Each stage built once, not once per thread.
        assert _builds() == builds + len(STAGE_ORDER)
        assert all(result.recipes is results[0].recipes for result in results)

    def test_build_lock_table_does_not_grow(self, tier):
        """Regression: per-key build locks used to leak one entry per
        distinct workspace key; finished flights must leave nothing."""
        for seed in (21, 22, 23, 24):
            build_workspace(seed=seed, **TINY)
        assert not tier._flights

    def test_concurrent_distinct_keys(self, tier):
        errors = []

        def worker(seed):
            try:
                workspace = build_workspace(seed=seed, **TINY)
                assert workspace.seed == seed
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        _run_threads(worker, (11, 12, 13, 14))
        assert not errors
        assert len(tier) <= tier.capacity

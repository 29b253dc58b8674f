"""Tests for the artifact engine: two-tier resolution, warm restarts
that build nothing, corruption recovery, and single-flight hygiene."""

import pytest

from repro.engine import (
    Engine,
    RunConfig,
    STAGE_ORDER,
    clear_memory_tier,
    engine_cache_summary,
    memory_tier_len,
)
from repro.engine.engine import _MEMORY
from repro.obs import get_registry

#: Tiny corpus: fast to build, and a scale no other test suite uses, so
#: these tests always start from a cold memory tier for their configs.
SCALE = 0.02


def _counter_total(name: str, **labels: str) -> float:
    total = 0.0
    for series in get_registry().collect():
        if series.name != name or series.kind != "counter":
            continue
        if any(
            series.labels.get(key) != value
            for key, value in labels.items()
        ):
            continue
        total += series.metric.value
    return total


def _resolve_all(engine: Engine) -> dict:
    return {name: engine.artifact(name) for name in STAGE_ORDER}


@pytest.fixture()
def config(tmp_path):
    return RunConfig(
        recipe_scale=SCALE,
        include_world_only=False,
        cache_dir=str(tmp_path / "artifacts"),
    )


class TestResolution:
    def test_all_stages_resolve(self, config):
        artifacts = _resolve_all(Engine(config))
        assert set(artifacts) == set(STAGE_ORDER)
        assert len(artifacts["aliasing"].recipes) > 0
        assert set(artifacts["pairing_views"]) <= set(artifacts["cuisines"])
        clear_memory_tier()

    def test_memory_tier_serves_second_engine(self, config):
        no_disk = config.replace(no_disk_cache=True)
        _resolve_all(Engine(no_disk))
        builds = _counter_total("engine_stage_build_total")
        hits = _counter_total("engine_stage_hit_total", tier="memory")
        second = _resolve_all(Engine(no_disk))
        assert _counter_total("engine_stage_build_total") == builds
        assert (
            _counter_total("engine_stage_hit_total", tier="memory")
            == hits + len(STAGE_ORDER)
        )
        # Same fingerprints -> the very same objects, no copies.
        first = _resolve_all(Engine(no_disk))
        for name in STAGE_ORDER:
            assert first[name] is second[name]
        clear_memory_tier()

    def test_build_locks_leak_free(self, config):
        _resolve_all(Engine(config.replace(no_disk_cache=True)))
        assert not _MEMORY._flights
        clear_memory_tier()

    def test_memory_tier_stays_bounded(self, config):
        from repro.engine import MAX_MEMORY_ARTIFACTS

        assert MAX_MEMORY_ARTIFACTS == 4 * len(STAGE_ORDER)
        for index in range(MAX_MEMORY_ARTIFACTS * 2):
            _MEMORY.put(("corpus", f"{index:064d}"), index)
        assert memory_tier_len() <= MAX_MEMORY_ARTIFACTS
        clear_memory_tier()


class TestWarmRestart:
    def test_warm_load_builds_nothing(self, config):
        cold = _resolve_all(Engine(config))
        clear_memory_tier()  # simulate a process restart
        builds = _counter_total("engine_stage_build_total")
        warm_engine = Engine(config)
        warm = _resolve_all(warm_engine)
        assert _counter_total("engine_stage_build_total") == builds, (
            "a warm restart must load every stage from disk"
        )
        disk_hits = _counter_total("engine_stage_hit_total", tier="disk")
        assert disk_hits >= len(STAGE_ORDER)
        # Warm artifacts are value-identical to the cold build.
        assert warm["aliasing"].recipes == cold["aliasing"].recipes
        assert set(warm["cuisines"]) == set(cold["cuisines"])
        clear_memory_tier()

    def test_warm_views_give_bit_identical_zscores(self, config):
        from repro.pairing import NullModel, analyze_cuisine
        from repro.flavordb import default_catalog

        engine = Engine(config)
        cuisines = engine.artifact("cuisines")
        cold_views = engine.artifact("pairing_views")
        code = sorted(cold_views)[0]
        catalog = default_catalog()

        def z(views):
            result = analyze_cuisine(
                cuisines[code],
                catalog,
                models=(NullModel.RANDOM,),
                n_samples=500,
                view=views[code],
            )
            return result.z(NullModel.RANDOM)

        cold_z = z(cold_views)
        clear_memory_tier()
        warm_views = Engine(config).artifact("pairing_views")
        assert z(warm_views) == cold_z  # exact float equality
        clear_memory_tier()

    def test_corrupt_artifact_rebuilt_transparently(self, config):
        engine = Engine(config)
        _resolve_all(engine)
        store = engine.store
        assert store is not None
        # Damage exactly one stage's file on disk.
        corpus_fp = engine.fingerprint("corpus")
        path = store.root / f"corpus--{corpus_fp}.art"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        clear_memory_tier()

        corrupt = _counter_total("engine_store_corrupt_total")
        builds = _counter_total("engine_stage_build_total")
        warm = _resolve_all(Engine(config))
        assert _counter_total("engine_store_corrupt_total") == corrupt + 1
        # Only the damaged stage rebuilt; the other three disk-loaded.
        assert _counter_total("engine_stage_build_total") == builds + 1
        assert len(warm["aliasing"].recipes) > 0
        # The rebuild re-persisted a valid artifact.
        assert path.exists()
        clear_memory_tier()


class TestSummary:
    def test_summary_format(self, config):
        summary = engine_cache_summary()
        assert summary.startswith("engine cache: hits=")
        assert "builds=" in summary

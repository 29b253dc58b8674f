"""Tests for the sharded Monte Carlo engine: determinism and payloads."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.datamodel import Cuisine, PairingKind, Recipe, region_codes
from repro.pairing import (
    NullModel,
    analyze_cuisine,
    build_cuisine_view,
    chi_values,
    compare_to_model,
)
from repro.parallel import (
    ParallelConfig,
    ShardTask,
    model_moments,
    run_shard,
    shard_tasks,
    sweep_contributions,
    sweep_pairing_moments,
)
from repro.parallel.sharedmem import SharedViewStore
from tests.oracles import loop_chi_values

#: SHA-256 of every (region, model) cell's moments on the scale-0.25
#: `workspace` fixture, 2,000 samples per cell, per sampling plan.
SAMPLER_DIGESTS = {
    "unsharded": (
        "a9690727e3551ba4d89605c1231609eca113993d9efa86c743ddba80fbdbadab"
    ),
    "shards_of_1000": (
        "ebe15cd874cbd5044f574eb128ff8e039aec37b2b20e717e25f38d530c12fed4"
    ),
}


@pytest.fixture(scope="module")
def cuisine(catalog):
    names_per_recipe = [
        ("tomato", "basil", "garlic", "olive oil"),
        ("tomato", "basil", "oregano"),
        ("tomato", "garlic", "onion", "olive oil", "oregano"),
        ("milk", "butter", "flour"),
        ("tomato", "basil", "milk"),
        ("garlic", "onion", "butter", "thyme"),
        ("tomato", "oregano", "thyme", "basil", "garlic"),
        ("butter", "flour", "sugar"),
    ]
    recipes = [
        Recipe(
            index,
            "ITA",
            frozenset(catalog.get(name).ingredient_id for name in names),
        )
        for index, names in enumerate(names_per_recipe, start=1)
    ]
    return Cuisine("ITA", recipes)


@pytest.fixture(scope="module")
def view(cuisine, catalog):
    return build_cuisine_view(cuisine, catalog)


class TestWorkerCountInvariance:
    """The acceptance criterion: z-scores bit-identical for workers 1/2/4."""

    @pytest.mark.parametrize("model", list(NullModel))
    def test_moments_identical_across_worker_counts(self, view, model):
        baseline = model_moments(
            view,
            model,
            n_samples=1200,
            config=ParallelConfig(workers=1, shard_size=300),
        )
        for workers in (2, 4):
            other = model_moments(
                view,
                model,
                n_samples=1200,
                config=ParallelConfig(workers=workers, shard_size=300),
            )
            assert other.count == baseline.count
            assert other.total == baseline.total
            assert other.sum_squares == baseline.sum_squares
            assert other.minimum == baseline.minimum
            assert other.maximum == baseline.maximum

    def test_z_scores_identical_across_worker_counts(self, view):
        comparisons = [
            compare_to_model(
                view,
                NullModel.FREQUENCY,
                n_samples=1000,
                parallel=ParallelConfig(workers=workers, shard_size=250),
            )
            for workers in (1, 2, 4)
        ]
        assert len({item.z_score for item in comparisons}) == 1
        assert len({item.random_mean for item in comparisons}) == 1
        assert len({item.random_std for item in comparisons}) == 1

    def test_seed_changes_the_stream(self, view):
        config = ParallelConfig(workers=1, shard_size=250)
        default = compare_to_model(
            view, NullModel.RANDOM, 1000, parallel=config
        )
        seeded = compare_to_model(
            view, NullModel.RANDOM, 1000, parallel=config, seed=99
        )
        assert default.z_score != seeded.z_score

    def test_shard_size_is_part_of_the_contract(self, view):
        # Changing shard_size changes the spawned RNG streams: documented
        # behaviour, asserted so it cannot silently change.
        fine = model_moments(
            view,
            NullModel.RANDOM,
            1000,
            ParallelConfig(workers=1, shard_size=100),
        )
        coarse = model_moments(
            view,
            NullModel.RANDOM,
            1000,
            ParallelConfig(workers=1, shard_size=500),
        )
        assert fine.count == coarse.count == 1000
        assert fine.total != coarse.total


class TestUnshardedPlan:
    """``config=None``: one in-process shard drawn from the root stream."""

    @pytest.mark.parametrize("model", list(NullModel))
    def test_one_shard_on_the_root_stream(self, view, model):
        from repro.flavordb import stable_seed
        from repro.pairing import sample_model_moments

        seed = stable_seed(
            "null-model", view.region_code, model.value, "default"
        )
        rng = np.random.Generator(np.random.PCG64(seed))
        expected = sample_model_moments(view, model, 700, rng)
        assert model_moments(view, model, 700, None) == expected

    def test_one_task_per_region_and_model(self, view):
        [task] = shard_tasks(view, NullModel.RANDOM, 30_000)
        assert task.n_samples == 30_000
        assert task.spec is view


class TestShardDecomposition:
    def test_shard_sample_counts(self, view):
        with SharedViewStore() as store:
            spec = store.publish(view)
            tasks = shard_tasks(
                spec,
                NullModel.RANDOM,
                1100,
                ParallelConfig(workers=2, shard_size=500),
            )
        assert [task.n_samples for task in tasks] == [500, 500, 100]
        assert all(task.model_value == "random" for task in tasks)

    def test_task_payload_never_carries_the_matrix(self, view):
        # The acceptance cap: a pickled task must stay a few hundred
        # bytes however large the overlap matrix is.
        with SharedViewStore() as store:
            spec = store.publish(view)
            tasks = shard_tasks(
                spec,
                NullModel.FREQUENCY_CATEGORY,
                50_000,
                ParallelConfig(workers=4),
            )
            for task in tasks:
                assert len(pickle.dumps(task)) < 8192

    def test_run_shard_matches_in_process_sampling(self, view):
        with SharedViewStore() as store:
            spec = store.publish(view)
            [task] = shard_tasks(
                spec,
                NullModel.RANDOM,
                400,
                ParallelConfig(workers=1, shard_size=400),
            )
            result = run_shard(task)
        assert result.samples == 400
        assert result.moments.count == 400
        assert result.elapsed >= 0.0


class TestSweeps:
    def test_sweep_covers_every_region_model_pair(self, view):
        views = {"ITA": view}
        moments = sweep_pairing_moments(
            views,
            tuple(NullModel),
            600,
            ParallelConfig(workers=2, shard_size=200),
        )
        assert set(moments) == {
            ("ITA", model) for model in NullModel
        }
        assert all(item.count == 600 for item in moments.values())

    def test_contribution_sweep_matches_serial_chi(self, view):
        sweep = sweep_contributions(
            {"ITA": view}, ParallelConfig(workers=2)
        )
        assert np.array_equal(sweep["ITA"], chi_values(view))
        assert np.array_equal(sweep["ITA"], loop_chi_values(view))

    def test_analyze_cuisine_parallel_path(self, cuisine, catalog):
        result = analyze_cuisine(
            cuisine,
            catalog,
            n_samples=800,
            parallel=ParallelConfig(workers=2, shard_size=200),
        )
        assert set(result.comparisons) == set(NullModel)
        serial = analyze_cuisine(
            cuisine,
            catalog,
            n_samples=800,
            parallel=ParallelConfig(workers=1, shard_size=200),
        )
        for model in NullModel:
            assert (
                result.comparisons[model].z_score
                == serial.comparisons[model].z_score
            )


class TestSamplerPinned:
    """The null-model samplers' draws, pinned across commits.

    Any change to which Gumbel blocks are drawn, or in which order,
    moves these digests: groups in order of first appearance, rows in
    sample order.
    """

    @pytest.mark.parametrize(
        ("plan", "config"),
        [
            ("unsharded", None),
            ("shards_of_1000", ParallelConfig(workers=1, shard_size=1000)),
        ],
    )
    def test_sweep_moments_pinned_across_commits(
        self, workspace, plan, config
    ):
        views = workspace.views()
        moments = sweep_pairing_moments(
            views, tuple(NullModel), 2000, config
        )
        digest = hashlib.sha256()
        for code in region_codes():
            for model in NullModel:
                cell = moments[(code, model)]
                digest.update(
                    np.asarray(
                        [
                            cell.count,
                            cell.total,
                            cell.sum_squares,
                            cell.minimum,
                            cell.maximum,
                        ],
                        dtype="<f8",
                    ).tobytes()
                )
        assert digest.hexdigest() == SAMPLER_DIGESTS[plan]


class TestExperimentIntegration:
    """fig4/fig5 produce identical outputs through any worker count."""

    def test_fig4_parallel_matches_workers_one(self, workspace):
        from repro.experiments.fig4 import run_fig4

        kwargs = dict(
            n_samples=400,
            models=(NullModel.RANDOM,),
        )
        serial = run_fig4(
            workspace,
            parallel=ParallelConfig(workers=1, shard_size=200),
            **kwargs,
        )
        fanned = run_fig4(
            workspace,
            parallel=ParallelConfig(workers=2, shard_size=200),
            **kwargs,
        )
        for mine, theirs in zip(serial.rows, fanned.rows):
            assert mine.code == theirs.code
            assert mine.z_random == theirs.z_random

    def test_fig4_serial_path_honours_seed(self, workspace):
        """Without ``parallel`` each seed samples its own streams."""
        from repro.experiments.fig4 import run_fig4

        kwargs = dict(n_samples=200, models=(NullModel.RANDOM,))
        first = run_fig4(workspace, seed=1, **kwargs)
        second = run_fig4(workspace, seed=2, **kwargs)
        for mine, theirs in zip(first.rows, second.rows):
            assert mine.code == theirs.code
            assert mine.z_random != theirs.z_random, mine.code

    def test_fig5_parallel_matches_serial(self, workspace):
        from repro.experiments.fig5 import run_fig5

        serial = run_fig5(workspace)
        fanned = run_fig5(
            workspace, parallel=ParallelConfig(workers=2)
        )
        for mine, theirs in zip(serial.rows, fanned.rows):
            assert mine.code == theirs.code
            assert [item.ingredient_name for item in mine.top] == [
                item.ingredient_name for item in theirs.top
            ]
            assert [item.chi_percent for item in mine.top] == [
                item.chi_percent for item in theirs.top
            ]

    def test_fig4_row_directions_still_populated(self, workspace):
        from repro.experiments.fig4 import run_fig4

        result = run_fig4(
            workspace,
            n_samples=300,
            models=(NullModel.RANDOM,),
            parallel=ParallelConfig(workers=2, shard_size=150),
        )
        assert len(result.rows) == 22
        assert result.uniform_count + result.contrasting_count == 22
        for row in result.rows:
            assert row.direction in (
                PairingKind.UNIFORM,
                PairingKind.CONTRASTING,
            )
        # details carry full comparisons for downstream exporters
        detail = result.details["ITA"]
        assert detail.recipe_count > 0
        assert detail.ingredient_count > 0


class TestTaskHygiene:
    def test_shard_task_is_frozen(self, view):
        with SharedViewStore() as store:
            spec = store.publish(view)
            [task] = shard_tasks(
                spec,
                NullModel.RANDOM,
                100,
                ParallelConfig(workers=1, shard_size=100),
            )
        with pytest.raises(AttributeError):
            task.n_samples = 5

    def test_shard_task_round_trips_through_pickle(self, view):
        with SharedViewStore() as store:
            spec = store.publish(view)
            [task] = shard_tasks(
                spec,
                NullModel.CATEGORY,
                100,
                ParallelConfig(workers=1, shard_size=100),
            )
            clone = pickle.loads(pickle.dumps(task))
            assert isinstance(clone, ShardTask)
            assert clone.model_value == task.model_value
            assert clone.n_samples == task.n_samples
            assert clone.spec.blocks.keys() == task.spec.blocks.keys()


def _refuse_segments(monkeypatch):
    from multiprocessing import shared_memory

    def refuse(*args, **kwargs):
        raise AssertionError("an in-process sweep created a segment")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)


class TestInProcessPath:
    """Shards that stay in this process sample its own views: no segments."""

    @pytest.mark.parametrize(
        "workers, shard_size, models",
        [
            (1, 100, tuple(NullModel)),  # serial, four shards per model
            (2, 400, (NullModel.CATEGORY,)),  # one task only
        ],
    )
    def test_moments_sweep_creates_no_segment(
        self, view, monkeypatch, workers, shard_size, models
    ):
        # Pooled baseline: both regions and every model, several shards.
        pooled = sweep_pairing_moments(
            {"ITA": view, "ALT": view},
            tuple(NullModel),
            400,
            ParallelConfig(workers=2, shard_size=shard_size),
        )
        _refuse_segments(monkeypatch)
        resident = sweep_pairing_moments(
            {"ITA": view},
            models,
            400,
            ParallelConfig(workers=workers, shard_size=shard_size),
        )
        for model in models:
            assert resident[("ITA", model)] == pooled[("ITA", model)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_contribution_sweep_creates_no_segment(
        self, view, monkeypatch, workers
    ):
        pooled = sweep_contributions(
            {"ITA": view, "ALT": view}, ParallelConfig(workers=2)
        )
        _refuse_segments(monkeypatch)
        resident = sweep_contributions(
            {"ITA": view}, ParallelConfig(workers=workers)
        )
        assert np.array_equal(resident["ITA"], pooled["ITA"])

    def test_concurrent_callers_share_one_view(
        self, cuisine, catalog, monkeypatch
    ):
        # Server threads sample one resident view at once; its sampler
        # caches fill lazily under them. Every answer must stay exact.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        config = ParallelConfig(workers=1, shard_size=200)
        models = list(NullModel) * 4
        expected = {
            model: model_moments(
                build_cuisine_view(cuisine, catalog), model, 400, config
            )
            for model in NullModel
        }
        shared = build_cuisine_view(cuisine, catalog)
        _refuse_segments(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(model_moments, shared, model, 400, config)
                    for model in models
                ]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for model, result in zip(models, results):
            assert result == expected[model]

    def test_in_process_shard_keeps_telemetry(self, view, monkeypatch):
        from repro.obs import get_registry

        registry = get_registry()
        shards = registry.counter("repro_montecarlo_shards_total")
        before = shards.value
        _refuse_segments(monkeypatch)
        sweep_pairing_moments(
            {"ITA": view},
            (NullModel.RANDOM,),
            300,
            ParallelConfig(workers=1, shard_size=100),
        )
        assert shards.value == before + 3

    def test_unsharded_sweep_keeps_telemetry(self, view, monkeypatch):
        # Without a ParallelConfig: one shard per (region, model).
        from repro.obs import get_registry

        shards = get_registry().counter("repro_montecarlo_shards_total")
        before = shards.value
        _refuse_segments(monkeypatch)
        sweep_pairing_moments({"ITA": view}, tuple(NullModel), 300)
        assert shards.value == before + len(NullModel)

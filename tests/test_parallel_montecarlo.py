"""Tests for the Monte Carlo engine: one stream per cell, and payloads."""

import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.datamodel import Cuisine, PairingKind, Recipe, region_codes
from repro.pairing import (
    NullModel,
    analyze_cuisine,
    build_cuisine_view,
    compare_to_model,
)
from repro.parallel import (
    ParallelConfig,
    ShardTask,
    model_moments,
    run_shard,
    shard_task,
    sweep_pairing_moments,
)

#: SHA-256 of every (region, model) cell's moments on the scale-0.25
#: `workspace` fixture, 2,000 samples per cell, each cell drawn from its
#: root seed stream (the plan a sweep without a ParallelConfig runs).
SAMPLER_DIGESTS = {
    "unsharded": (
        "a9690727e3551ba4d89605c1231609eca113993d9efa86c743ddba80fbdbadab"
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
    """One stream per cell: every worker count, and no ParallelConfig,
    gives the same moments bit for bit."""

    @pytest.mark.parametrize("model", list(NullModel))
    def test_every_worker_count_draws_the_root_stream(self, workspace, model):
        views = {
            code: workspace.views()[code] for code in ("ITA", "KOR", "SAM")
        }
        unsharded = sweep_pairing_moments(views, (model,), 500)
        for workers in (1, 2):
            pooled = sweep_pairing_moments(
                views, (model,), 500, ParallelConfig(workers=workers)
            )
            assert list(pooled) == list(unsharded)
            for key, moments in unsharded.items():
                assert pooled[key] == moments, (workers, key)

    @pytest.mark.parametrize("model", list(NullModel))
    def test_moments_identical_across_worker_counts(self, view, model):
        # Two cells, so workers > 1 really goes through the pool.
        views = {"ITA": view, "ALT": view}
        baseline = sweep_pairing_moments(
            views, (model,), 1200, ParallelConfig(workers=1)
        )
        for workers in (2, 4):
            other = sweep_pairing_moments(
                views, (model,), 1200, ParallelConfig(workers=workers)
            )
            assert other == baseline

    def test_z_scores_identical_across_worker_counts(self, cuisine, catalog):
        comparisons = [
            analyze_cuisine(
                cuisine,
                catalog,
                n_samples=1000,
                parallel=parallel,
            ).comparisons[NullModel.FREQUENCY]
            for parallel in (
                None,
                ParallelConfig(workers=1),
                ParallelConfig(workers=2),
                ParallelConfig(workers=4),
            )
        ]
        assert len({item.z_score for item in comparisons}) == 1
        assert len({item.random_mean for item in comparisons}) == 1
        assert len({item.random_std for item in comparisons}) == 1

    def test_seed_changes_the_stream(self, view):
        default = compare_to_model(view, NullModel.RANDOM, 1000)
        seeded = compare_to_model(view, NullModel.RANDOM, 1000, seed=99)
        assert default.z_score != seeded.z_score


class TestUnshardedPlan:
    """One task per (region, model), drawn from the cell's root stream."""

    @pytest.mark.parametrize("model", list(NullModel))
    def test_one_shard_on_the_root_stream(self, view, model):
        from repro.flavordb import stable_seed
        from repro.pairing import sample_model_moments

        seed = stable_seed(
            "null-model", view.region_code, model.value, "default"
        )
        rng = np.random.Generator(np.random.PCG64(seed))
        expected = sample_model_moments(view, model, 700, rng)
        assert model_moments(view, model, 700) == expected

    def test_one_task_per_region_and_model(self, view):
        from repro.flavordb import stable_seed

        task = shard_task(view, NullModel.RANDOM, 30_000)
        assert task.n_samples == 30_000
        assert task.view is view
        assert task.seed_seq.entropy == stable_seed(
            "null-model", "ITA", "random", "default"
        )
        assert task.seed_seq.spawn_key == ()


class TestShardDecomposition:
    def test_run_shard_matches_in_process_sampling(self, view):
        # A pooled task reaches its worker pickled, view and all.
        for model in (NullModel.CATEGORY, NullModel.FREQUENCY):
            task = shard_task(view, model, 400)
            result = run_shard(pickle.loads(pickle.dumps(task)))
            assert result.samples == 400
            assert result.moments == model_moments(view, model, 400), model
            assert result.elapsed >= 0.0


class TestSweeps:
    def test_sweep_covers_every_region_model_pair(self, view):
        views = {"ITA": view}
        moments = sweep_pairing_moments(
            views,
            tuple(NullModel),
            600,
            ParallelConfig(workers=2),
        )
        assert set(moments) == {
            ("ITA", model) for model in NullModel
        }
        assert all(item.count == 600 for item in moments.values())

    def test_analyze_cuisine_parallel_path(self, cuisine, catalog):
        result = analyze_cuisine(
            cuisine,
            catalog,
            n_samples=800,
            parallel=ParallelConfig(workers=2),
        )
        assert set(result.comparisons) == set(NullModel)
        serial = analyze_cuisine(
            cuisine,
            catalog,
            n_samples=800,
            parallel=ParallelConfig(workers=1),
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

    @pytest.mark.parametrize(("plan", "config"), [("unsharded", None)])
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
            workspace, parallel=ParallelConfig(workers=1), **kwargs
        )
        fanned = run_fig4(
            workspace, parallel=ParallelConfig(workers=2), **kwargs
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
            parallel=ParallelConfig(workers=2),
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
        task = shard_task(view, NullModel.RANDOM, 100)
        with pytest.raises(AttributeError):
            task.n_samples = 5

    def test_shard_task_round_trips_through_pickle(self, view):
        task = shard_task(view, NullModel.CATEGORY, 100)
        clone = pickle.loads(pickle.dumps(task))
        assert isinstance(clone, ShardTask)
        assert clone.model_value == task.model_value
        assert clone.n_samples == task.n_samples
        assert clone.view.region_code == view.region_code
        assert np.array_equal(clone.view.overlap, view.overlap)
        assert np.array_equal(clone.view.spec_counts, view.spec_counts)
        assert run_shard(clone).moments == model_moments(
            view, NullModel.CATEGORY, 100
        )

    def test_pooled_sweep_leaves_no_resource_tracker(self):
        # Pooled tasks carry their views pickled, so nothing registers
        # with multiprocessing's resource tracker and no tracker process
        # outlives the sweep. Fresh interpreter: the test process may
        # have started a tracker for reasons of its own.
        script = textwrap.dedent(
            """
            from multiprocessing import resource_tracker

            from repro.datamodel import Cuisine, Recipe
            from repro.flavordb import default_catalog
            from repro.pairing import NullModel, build_cuisine_view
            from repro.parallel import ParallelConfig, sweep_pairing_moments

            catalog = default_catalog()
            names = [
                ("tomato", "basil", "garlic", "olive oil"),
                ("tomato", "garlic", "onion", "oregano"),
                ("milk", "butter", "flour"),
            ]
            recipes = [
                Recipe(index, "ITA", frozenset(
                    catalog.get(name).ingredient_id for name in row
                ))
                for index, row in enumerate(names, start=1)
            ]
            view = build_cuisine_view(Cuisine("ITA", recipes), catalog)
            sweep = sweep_pairing_moments(
                {"ITA": view, "ALT": view},
                (NullModel.RANDOM,),
                200,
                ParallelConfig(workers=2),
            )
            assert len(sweep) == 2, sweep
            print(resource_tracker._resource_tracker._pid)
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "None"


class TestInProcessPath:
    """Tasks that stay in this process sample its own views."""

    def test_concurrent_callers_share_one_view(self, cuisine, catalog):
        # Server threads sample one resident view at once; its sampler
        # caches fill lazily under them. Every answer must stay exact.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        models = list(NullModel) * 4
        expected = {
            model: model_moments(
                build_cuisine_view(cuisine, catalog), model, 400
            )
            for model in NullModel
        }
        shared = build_cuisine_view(cuisine, catalog)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(model_moments, shared, model, 400)
                    for model in models
                ]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for model, result in zip(models, results):
            assert result == expected[model]

    def test_in_process_shard_keeps_telemetry(self, view):
        from repro.obs import get_registry

        registry = get_registry()
        shards = registry.counter("repro_montecarlo_shards_total")
        samples = registry.counter(
            "repro_montecarlo_samples_total", model="random"
        )
        before, samples_before = shards.value, samples.value
        sweep_pairing_moments(
            {"ITA": view},
            (NullModel.RANDOM,),
            300,
            ParallelConfig(workers=1),
        )
        assert shards.value == before + 1
        assert samples.value == samples_before + 300

    def test_unsharded_sweep_keeps_telemetry(self, view):
        # Without a ParallelConfig: one task per (region, model).
        from repro.obs import get_registry

        shards = get_registry().counter("repro_montecarlo_shards_total")
        before = shards.value
        sweep_pairing_moments({"ITA": view}, tuple(NullModel), 300)
        assert shards.value == before + len(NullModel)

"""Tests for the four null models."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.datamodel import ConfigurationError, Cuisine, Recipe
from repro.pairing import (
    NullModel,
    assemble_view,
    build_cuisine_view,
    sample_model_moments,
    sample_model_recipes,
    scores_for_recipes,
)
from repro.pairing.models import (
    DRAW_BLOCK_ELEMENTS,
    _gumbel_top_m,
    _log_weights,
    sample_model_batches,
)
from tests.oracles import naive_sample_model_scores, one_shot_gumbel_top_m


def sampled_scores(view, model, n_samples, rng):
    """N_s of ``n_samples`` recipes drawn in one vectorised batch."""
    return scores_for_recipes(
        view.overlap, sample_model_recipes(view, model, n_samples, rng)
    )


@pytest.fixture(scope="module")
def catalog_module():
    from repro.flavordb import default_catalog

    return default_catalog()


@pytest.fixture(scope="module")
def view(catalog_module):
    """A small but structured cuisine: herbs+tomato core, dairy side."""
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
    recipes = []
    for index, names in enumerate(names_per_recipe, start=1):
        ids = frozenset(
            catalog_module.get(name).ingredient_id for name in names
        )
        recipes.append(Recipe(index, "ITA", ids))
    return build_cuisine_view(Cuisine("ITA", recipes), catalog_module)


class TestModelInvariants:
    @pytest.mark.parametrize("model", list(NullModel))
    def test_recipes_use_only_cuisine_ingredients(self, view, model, rng):
        recipes = sample_model_recipes(view, model, 200, rng)
        for recipe in recipes:
            assert all(0 <= index < view.ingredient_count for index in recipe)

    @pytest.mark.parametrize("model", list(NullModel))
    def test_no_duplicate_ingredients_within_recipe(self, view, model, rng):
        recipes = sample_model_recipes(view, model, 200, rng)
        for recipe in recipes:
            assert len(set(recipe.tolist())) == len(recipe)

    @pytest.mark.parametrize("model", list(NullModel))
    def test_size_distribution_preserved(self, view, model, rng):
        recipes = sample_model_recipes(view, model, 4000, rng)
        sampled_sizes = Counter(len(recipe) for recipe in recipes)
        real_sizes = Counter(len(recipe) for recipe in view.recipes)
        total = sum(sampled_sizes.values())
        real_total = sum(real_sizes.values())
        for size, count in real_sizes.items():
            assert abs(
                sampled_sizes[size] / total - count / real_total
            ) < 0.05

    @pytest.mark.parametrize(
        "model", [NullModel.CATEGORY, NullModel.FREQUENCY_CATEGORY]
    )
    def test_category_composition_preserved(self, view, model, rng):
        real_signatures = {
            tuple(
                sorted(
                    Counter(
                        view.categories[int(index)] for index in recipe
                    ).items()
                )
            )
            for recipe in view.recipes
        }
        recipes = sample_model_recipes(view, model, 500, rng)
        for recipe in recipes:
            signature = tuple(
                sorted(
                    Counter(
                        view.categories[int(index)] for index in recipe
                    ).items()
                )
            )
            assert signature in real_signatures

    def test_frequency_model_tracks_usage(self, view, rng):
        recipes = sample_model_recipes(
            view, NullModel.FREQUENCY, 6000, rng
        )
        usage = Counter()
        for recipe in recipes:
            usage.update(int(index) for index in recipe)
        # The most frequent real ingredient should be drawn much more
        # often than the least frequent one.
        most_used = int(np.argmax(view.frequencies))
        least_used = int(np.argmin(view.frequencies))
        assert usage[most_used] > usage[least_used] * 1.5


class TestScores:
    @pytest.mark.parametrize("model", list(NullModel))
    def test_score_count_and_range(self, view, model, rng):
        scores = sampled_scores(view, model, 300, rng)
        assert scores.shape == (300,)
        assert np.all(scores >= 0)

    def test_chunking_equivalent(self, view):
        big = sample_model_moments(
            view, NullModel.RANDOM, 500,
            np.random.default_rng(4), chunk=500,
        )
        small = sample_model_moments(
            view, NullModel.RANDOM, 500,
            np.random.default_rng(4), chunk=64,
        )
        # Same generator sequence split differently: the means agree.
        assert abs(big.mean - small.mean) < 0.3

    def test_positive_sample_count_required(self, view, rng):
        with pytest.raises(ConfigurationError):
            sample_model_moments(view, NullModel.RANDOM, 0, rng)

    @pytest.mark.parametrize("model", list(NullModel))
    def test_vectorised_matches_naive_distribution(self, view, model):
        """Gumbel top-k sampler and the rng.choice loop draw from the same
        distribution (means within noise)."""
        fast = sampled_scores(
            view, model, 4000, np.random.default_rng(1)
        )
        slow = naive_sample_model_scores(
            view, model, 4000, np.random.default_rng(2)
        )
        pooled_std = np.sqrt(
            fast.var() / len(fast) + slow.var() / len(slow)
        )
        assert abs(fast.mean() - slow.mean()) < 5 * pooled_std + 1e-9

    def test_frequency_model_differs_from_random(self, catalog_module):
        """A cuisine whose *popular* ingredients are one flavor family but
        whose rare ingredients are scattered: frequency-preserving samples
        must out-pair uniform samples."""
        herbs = ("basil", "oregano", "thyme", "rosemary")
        rare = ("milk", "salmon", "lemon", "cocoa", "walnut")
        recipes = []
        for index in range(1, 13):
            names = list(herbs[:3]) + [rare[index % len(rare)]]
            ids = frozenset(
                catalog_module.get(name).ingredient_id for name in names
            )
            recipes.append(Recipe(index, "TST", ids))
        cohesive_view = build_cuisine_view(
            Cuisine("TST", recipes), catalog_module
        )
        rng = np.random.default_rng(0)
        random_scores = sampled_scores(
            cohesive_view, NullModel.RANDOM, 4000, rng
        )
        frequency_scores = sampled_scores(
            cohesive_view, NullModel.FREQUENCY, 4000, rng
        )
        assert frequency_scores.mean() > random_scores.mean()


#: Pantry of the synthetic views below; 109 rows of keys per block.
POOL = 600
BLOCK_ROWS = DRAW_BLOCK_ELEMENTS // POOL


def synthetic_view(count=POOL, recipes=3000, seed=0):
    """A view over ``count`` ingredients in six categories, recipes of
    2 to 20, and uint8 counts."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, 120, size=(count, count)), 1)
    sizes = rng.integers(2, 21, size=recipes)
    flat = np.concatenate(
        [
            np.sort(rng.choice(count, size=size, replace=False))
            for size in sizes
        ]
    )
    names = ("dairy", "fruit", "herb", "meat", "spice", "vegetable")
    return assemble_view(
        region_code="TST",
        ingredient_ids=np.arange(count),
        overlap=(upper + upper.T).astype(np.uint8),
        frequencies=np.bincount(flat, minlength=count) + 1.0,
        categories=tuple(names[index % 6] for index in range(count)),
        recipe_offsets=np.concatenate([[0], np.cumsum(sizes)]),
        flat_recipes=flat,
    )


class TestBlockedDraw:
    """The row-blocked Gumbel draw against the one-shot oracle."""

    @pytest.mark.parametrize(
        "k", [3 * BLOCK_ROWS + 5, BLOCK_ROWS // 2],
        ids=["several-blocks", "one-block"],
    )
    @pytest.mark.parametrize("m", [1, 7, POOL], ids=["m1", "m7", "m-pool"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_same_picks_and_generator_state(self, k, m, weighted):
        weights = (
            np.random.default_rng(3).integers(1, 50, POOL).astype(float)
            if weighted
            else None
        )
        log_weights = _log_weights(weights, POOL)[None, :]
        blocked, one_shot = np.random.default_rng(7), np.random.default_rng(7)
        picks = _gumbel_top_m(log_weights, k, m, blocked)
        expected = one_shot_gumbel_top_m(log_weights, k, m, one_shot)
        assert picks.shape == (k, m)
        assert np.array_equal(picks, expected)
        assert blocked.bit_generator.state == one_shot.bit_generator.state

    @pytest.mark.parametrize("model", [NullModel.RANDOM, NullModel.FREQUENCY])
    def test_draw_memory_is_bounded(self, model):
        """10,000 recipes over 600 ingredients hold one block of keys at
        a time, not 10,000 x 600 floats (46 MiB)."""
        view = synthetic_view()
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            batches = sample_model_batches(view, model, 10_000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(rows) for rows, _ in batches) == 10_000
        assert peak < 4 << 20

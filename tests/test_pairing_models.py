"""Tests for the four null models."""

from collections import Counter

import numpy as np
import pytest

from repro.datamodel import ConfigurationError, Cuisine, Recipe
from repro.pairing import (
    NullModel,
    build_cuisine_view,
    sample_model_moments,
    sample_model_recipes,
    scores_for_recipes,
)
from tests.oracles import naive_sample_model_scores


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

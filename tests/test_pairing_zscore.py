"""Tests for Z-score analysis."""

import math

import numpy as np
import pytest

from repro.datamodel import Cuisine, Recipe
from repro.pairing import (
    NullModel,
    analyze_cuisine,
    build_cuisine_view,
    compare_to_model,
    cuisine_mean_score,
)


@pytest.fixture(scope="module")
def catalog_module():
    from repro.flavordb import default_catalog

    return default_catalog()


def cohesive_cuisine(catalog):
    """All recipes draw from one flavor family: strongly uniform pairing."""
    herb_names = [
        "basil", "oregano", "thyme", "rosemary", "marjoram", "sage",
        "parsley", "dill", "mint", "tarragon",
    ]
    rng = np.random.default_rng(0)
    recipes = []
    for index in range(1, 41):
        picks = rng.choice(herb_names[:6], size=4, replace=False)
        extra = rng.choice(herb_names[6:], size=1)
        names = list(picks) + list(extra)
        ids = frozenset(catalog.get(name).ingredient_id for name in names)
        recipes.append(Recipe(index, "TST", ids))
    return Cuisine("TST", recipes)


class TestCompareToModel:
    def test_cohesive_cuisine_positive_z(self, catalog_module):
        view = build_cuisine_view(
            cohesive_cuisine(catalog_module), catalog_module
        )
        comparison = compare_to_model(
            view, NullModel.RANDOM, n_samples=2000
        )
        # All-herb recipes out-pair a random shuffle of the same herbs only
        # weakly; but the frequency head (first six herbs) pairs strongly.
        assert comparison.n_samples == 2000
        assert comparison.cuisine_mean == pytest.approx(
            cuisine_mean_score(view)
        )

    def test_z_formula(self, catalog_module):
        view = build_cuisine_view(
            cohesive_cuisine(catalog_module), catalog_module
        )
        comparison = compare_to_model(view, NullModel.RANDOM, n_samples=1500)
        expected = (
            comparison.cuisine_mean - comparison.random_mean
        ) / (comparison.random_std / math.sqrt(1500))
        assert comparison.z_score == pytest.approx(expected)

    def test_effect_size_consistent_with_z(self, catalog_module):
        view = build_cuisine_view(
            cohesive_cuisine(catalog_module), catalog_module
        )
        comparison = compare_to_model(view, NullModel.RANDOM, n_samples=900)
        assert comparison.z_score == pytest.approx(
            comparison.effect_size * math.sqrt(900)
        )

    def test_direction_labels(self, catalog_module):
        view = build_cuisine_view(
            cohesive_cuisine(catalog_module), catalog_module
        )
        comparison = compare_to_model(view, NullModel.RANDOM, n_samples=500)
        assert comparison.direction in ("uniform", "contrasting")

    def test_deterministic_default_rng(self, catalog_module):
        view = build_cuisine_view(
            cohesive_cuisine(catalog_module), catalog_module
        )
        first = compare_to_model(view, NullModel.RANDOM, n_samples=400)
        second = compare_to_model(view, NullModel.RANDOM, n_samples=400)
        assert first.z_score == second.z_score

    def test_seed_selects_the_unsharded_stream(self, catalog_module):
        view = build_cuisine_view(
            cohesive_cuisine(catalog_module), catalog_module
        )
        default = compare_to_model(view, NullModel.RANDOM, n_samples=400)
        seeded = compare_to_model(
            view, NullModel.RANDOM, n_samples=400, seed=5
        )
        assert seeded.random_mean != default.random_mean

    @pytest.mark.parametrize("model", list(NullModel))
    def test_same_stream_as_analyze_cuisine(self, catalog_module, model):
        cuisine = cohesive_cuisine(catalog_module)
        view = build_cuisine_view(cuisine, catalog_module)
        single = compare_to_model(view, model, n_samples=500)
        analysed = analyze_cuisine(
            cuisine,
            catalog_module,
            models=(model,),
            n_samples=500,
            view=view,
        )
        assert analysed.comparisons[model] == single

    def test_single_sample_has_zero_spread(self, catalog_module):
        view = build_cuisine_view(
            cohesive_cuisine(catalog_module), catalog_module
        )
        comparison = compare_to_model(view, NullModel.RANDOM, n_samples=1)
        assert comparison.random_std == 0.0
        assert comparison.z_score == 0.0
        assert comparison.effect_size == 0.0


class TestAnalyzeCuisine:
    def test_all_models_present(self, catalog_module):
        result = analyze_cuisine(
            cohesive_cuisine(catalog_module),
            catalog_module,
            n_samples=300,
        )
        assert set(result.comparisons) == set(NullModel)
        assert result.region_code == "TST"
        assert result.recipe_count == 40

    def test_subset_of_models(self, catalog_module):
        result = analyze_cuisine(
            cohesive_cuisine(catalog_module),
            catalog_module,
            models=(NullModel.RANDOM,),
            n_samples=300,
        )
        assert set(result.comparisons) == {NullModel.RANDOM}
        assert result.z() == result.comparisons[NullModel.RANDOM].z_score

    def test_seed_changes_samples(self, catalog_module):
        base = analyze_cuisine(
            cohesive_cuisine(catalog_module),
            catalog_module,
            models=(NullModel.RANDOM,),
            n_samples=300,
        )
        seeded = analyze_cuisine(
            cohesive_cuisine(catalog_module),
            catalog_module,
            models=(NullModel.RANDOM,),
            n_samples=300,
            seed=99,
        )
        assert base.comparisons[NullModel.RANDOM].random_mean != (
            seeded.comparisons[NullModel.RANDOM].random_mean
        )

    def test_direction_property(self, catalog_module):
        result = analyze_cuisine(
            cohesive_cuisine(catalog_module),
            catalog_module,
            models=(NullModel.RANDOM,),
            n_samples=300,
        )
        comparison = result.comparisons[NullModel.RANDOM]
        if comparison.z_score > 0:
            assert result.direction == "uniform"
        else:
            assert result.direction == "contrasting"

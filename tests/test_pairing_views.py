"""Tests for cuisine views."""

import numpy as np
import pytest

from repro.datamodel import Cuisine, Recipe, ValidationError
from repro.pairing import build_cuisine_view


@pytest.fixture(scope="module")
def catalog_module():
    from repro.flavordb import default_catalog

    return default_catalog()


def make_cuisine(catalog, names_per_recipe, region="ITA"):
    recipes = []
    for index, names in enumerate(names_per_recipe, start=1):
        ids = frozenset(catalog.get(name).ingredient_id for name in names)
        recipes.append(Recipe(index, region, ids))
    return Cuisine(region, recipes)


class TestBuildCuisineView:
    def test_basic_structure(self, catalog_module):
        cuisine = make_cuisine(
            catalog_module,
            [
                ("tomato", "basil", "garlic"),
                ("tomato", "olive oil"),
            ],
        )
        view = build_cuisine_view(cuisine, catalog_module)
        assert view.region_code == "ITA"
        assert view.ingredient_count == 4
        assert view.recipe_count == 2
        assert view.overlap.shape == (4, 4)

    def test_overlap_symmetric_zero_diagonal(self, catalog_module):
        cuisine = make_cuisine(
            catalog_module, [("tomato", "basil", "garlic", "onion")]
        )
        view = build_cuisine_view(cuisine, catalog_module)
        assert np.array_equal(view.overlap, view.overlap.T)
        assert np.all(np.diag(view.overlap) == 0)

    def test_overlap_values_match_profiles(self, catalog_module):
        cuisine = make_cuisine(catalog_module, [("garlic", "onion")])
        view = build_cuisine_view(cuisine, catalog_module)
        garlic = catalog_module.get("garlic")
        onion = catalog_module.get("onion")
        expected = garlic.shared_molecules(onion)
        assert view.overlap[0, 1] == expected

    def test_profile_free_ingredients_excluded(self, catalog_module):
        cuisine = make_cuisine(
            catalog_module, [("tomato", "basil", "gelatin")]
        )
        view = build_cuisine_view(cuisine, catalog_module)
        names = {ingredient.name for ingredient in view.ingredients}
        assert "gelatin" not in names
        assert view.recipes[0].tolist() == sorted(view.recipes[0].tolist())
        assert len(view.recipes[0]) == 2

    def test_recipes_below_two_pairable_dropped(self, catalog_module):
        cuisine = make_cuisine(
            catalog_module,
            [
                ("tomato", "gelatin"),  # one pairable -> dropped
                ("tomato", "basil"),
            ],
        )
        view = build_cuisine_view(cuisine, catalog_module)
        assert view.recipe_count == 1

    def test_no_pairable_recipes_raises(self, catalog_module):
        cuisine = make_cuisine(catalog_module, [("tomato", "gelatin")])
        with pytest.raises(ValidationError):
            build_cuisine_view(cuisine, catalog_module)

    def test_frequencies_match_usage(self, catalog_module):
        cuisine = make_cuisine(
            catalog_module,
            [
                ("tomato", "basil"),
                ("tomato", "garlic"),
                ("tomato", "basil", "garlic"),
            ],
        )
        view = build_cuisine_view(cuisine, catalog_module)
        by_name = {
            ingredient.name: index
            for index, ingredient in enumerate(view.ingredients)
        }
        assert view.frequencies[by_name["tomato"]] == 3
        assert view.frequencies[by_name["basil"]] == 2
        assert view.frequencies[by_name["garlic"]] == 2

    def test_category_pools_partition_ingredients(self, catalog_module):
        cuisine = make_cuisine(
            catalog_module,
            [("tomato", "basil", "garlic", "milk", "cumin")],
        )
        view = build_cuisine_view(cuisine, catalog_module)
        pools = view.category_pools()
        pooled = sorted(
            int(index) for pool in pools.values() for index in pool
        )
        assert pooled == list(range(view.ingredient_count))

    def test_recipe_sizes(self, catalog_module):
        cuisine = make_cuisine(
            catalog_module,
            [("tomato", "basil"), ("tomato", "basil", "garlic")],
        )
        view = build_cuisine_view(cuisine, catalog_module)
        assert view.recipe_sizes().tolist() == [2, 3]

    def test_session_views_hold_narrow_unsigned_counts(self, workspace):
        for code, view in workspace.views().items():
            assert view.overlap.dtype.kind == "u", code
            assert view.overlap.dtype == np.min_scalar_type(
                int(view.overlap.max())
            ), code

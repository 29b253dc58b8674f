"""Tests for ingredient contributions (leave-one-out chi)."""

import numpy as np
import pytest

from repro.datamodel import Cuisine, Recipe
from repro.pairing import (
    build_cuisine_view,
    ingredient_contributions,
    recipe_score_from_matrix,
    top_contributors,
)


def verify_contribution(view, local_index: int) -> float:
    """``chi`` by leave-one-out: rescore every recipe without the ingredient.

    Recipes left with fewer than two ingredients drop out of the mean.
    """
    base_mean = float(
        np.mean(
            [
                recipe_score_from_matrix(view.overlap, recipe)
                for recipe in view.recipes
            ]
        )
    )
    new_scores = [
        recipe_score_from_matrix(view.overlap, reduced)
        for reduced in (
            recipe[recipe != local_index] for recipe in view.recipes
        )
        if len(reduced) >= 2
    ]
    if not new_scores or base_mean == 0.0:
        return 0.0
    return 100.0 * (float(np.mean(new_scores)) - base_mean) / base_mean


@pytest.fixture(scope="module")
def catalog_module():
    from repro.flavordb import default_catalog

    return default_catalog()


@pytest.fixture(scope="module")
def view(catalog_module):
    names_per_recipe = [
        ("basil", "oregano", "thyme", "milk"),
        ("basil", "oregano", "rosemary"),
        ("basil", "thyme", "milk", "flour"),
        ("oregano", "rosemary", "thyme", "basil"),
        ("milk", "flour", "sugar"),
        ("basil", "oregano", "milk"),
    ]
    recipes = []
    for index, names in enumerate(names_per_recipe, start=1):
        ids = frozenset(
            catalog_module.get(name).ingredient_id for name in names
        )
        recipes.append(Recipe(index, "TST", ids))
    return build_cuisine_view(Cuisine("TST", recipes), catalog_module)


class TestIngredientContributions:
    def test_every_ingredient_reported(self, view):
        contributions = ingredient_contributions(view)
        assert len(contributions) == view.ingredient_count

    def test_sorted_by_usage(self, view):
        contributions = ingredient_contributions(view)
        usages = [item.usage for item in contributions]
        assert usages == sorted(usages, reverse=True)

    def test_fast_matches_reference(self, view):
        contributions = {
            item.local_index: item.chi_percent
            for item in ingredient_contributions(view)
        }
        for local_index in range(view.ingredient_count):
            reference = verify_contribution(view, local_index)
            assert contributions[local_index] == pytest.approx(
                reference, abs=1e-9
            ), view.ingredients[local_index].name

    def test_removing_cohesive_herb_lowers_score(self, view):
        by_name = {
            item.ingredient_name: item
            for item in ingredient_contributions(view)
        }
        # Oregano has a rich profile and pairs strongly with the other
        # herbs in every recipe it joins: removing it must lower the
        # cuisine mean (negative chi).
        assert by_name["oregano"].chi_percent < 0

    def test_usage_counts_correct(self, view):
        by_name = {
            item.ingredient_name: item
            for item in ingredient_contributions(view)
        }
        assert by_name["basil"].usage == 5
        assert by_name["sugar"].usage == 1


class TestTopContributors:
    def test_positive_pairing_returns_most_negative_chi(self, view):
        top = top_contributors(view, count=3, positive_pairing=True)
        chis = [item.chi_percent for item in top]
        assert chis == sorted(chis)
        all_chis = sorted(
            item.chi_percent for item in ingredient_contributions(view)
        )
        assert chis == all_chis[:3]

    def test_negative_pairing_returns_most_positive_chi(self, view):
        top = top_contributors(view, count=2, positive_pairing=False)
        chis = [item.chi_percent for item in top]
        assert chis == sorted(chis, reverse=True)

    def test_count_respected(self, view):
        assert len(top_contributors(view, count=1)) == 1


class TestEdgeCases:
    def test_pair_recipes_drop_when_member_removed(self, catalog_module):
        recipes = [
            Recipe(
                1,
                "TST",
                frozenset(
                    catalog_module.get(name).ingredient_id
                    for name in ("basil", "oregano")
                ),
            ),
            Recipe(
                2,
                "TST",
                frozenset(
                    catalog_module.get(name).ingredient_id
                    for name in ("milk", "flour", "butter")
                ),
            ),
        ]
        view = build_cuisine_view(Cuisine("TST", recipes), catalog_module)
        contributions = {
            item.ingredient_name: item.chi_percent
            for item in ingredient_contributions(view)
        }
        # Removing basil kills recipe 1 entirely; chi must match the slow
        # reference that also drops the recipe.
        by_index = {
            ingredient.name: index
            for index, ingredient in enumerate(view.ingredients)
        }
        reference = verify_contribution(view, by_index["basil"])
        assert contributions["basil"] == pytest.approx(reference)

"""Tests for ingredient contributions (leave-one-out chi)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Cuisine, Recipe, region_codes
from repro.pairing import (
    CuisineView,
    assemble_view,
    build_cuisine_view,
    chi_values,
    ingredient_contributions,
    recipe_score_from_matrix,
    top_contributors,
)
from tests.oracles import loop_chi_values

#: SHA-256 of the 22 chi vectors of the session workspace (scale 0.25),
#: float64 little-endian bytes in Table 1 region order. Recorded when
#: ``chi_values`` was the per-pair loop now kept as
#: ``tests.oracles.loop_chi_values``.
CHI_DIGEST = (
    "605a107cbfc548da912f529173517b4e87060a1c1bc90b1dc67583e4c7401e21"
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


def kernel_view(overlap, recipes) -> CuisineView:
    """A view from bare arrays, the way a worker process sees one."""
    count = len(overlap)
    frequencies = np.zeros(count, dtype=np.float64)
    for recipe in recipes:
        frequencies[recipe] += 1
    offsets = np.cumsum([0] + [len(row) for row in recipes])
    return assemble_view(
        region_code="TST",
        ingredient_ids=np.arange(count),
        overlap=np.asarray(overlap, dtype=np.float64),
        frequencies=frequencies,
        categories=("herb",) * count,
        recipe_offsets=offsets,
        flat_recipes=np.concatenate(recipes),
    )


@st.composite
def small_cuisines(draw):
    """Integer overlaps with a zero diagonal (sometimes all zero), and
    recipes of two and up (sometimes all sharing one ingredient)."""
    count = draw(st.integers(2, 7))
    cells = draw(
        st.lists(
            st.integers(0, 9), min_size=count * count, max_size=count * count
        )
    )
    square = np.asarray(cells, dtype=np.float64).reshape(count, count)
    upper = np.triu(square, 1)
    if draw(st.booleans()):  # base mean 0
        upper[:] = 0.0
    recipes = draw(
        st.lists(
            st.lists(
                st.integers(0, count - 1),
                min_size=2,
                max_size=count,
                unique=True,
            ).map(sorted),
            min_size=1,
            max_size=10,
        )
    )
    if draw(st.booleans()):  # one ingredient in every recipe
        recipes = [sorted(set(recipe) | {0}) for recipe in recipes]
    return kernel_view(upper + upper.T, recipes)


class TestArrayChiMatchesLoop:
    def test_every_workspace_view(self, workspace):
        views = workspace.views()
        assert sorted(views) == sorted(region_codes())
        for code, view in views.items():
            chi = chi_values(view)
            assert np.array_equal(chi, loop_chi_values(view)), code

    def test_chi_vectors_pinned_across_commits(self, workspace):
        views = workspace.views()
        digest = hashlib.sha256()
        for code in region_codes():
            digest.update(chi_values(views[code]).astype("<f8").tobytes())
        assert digest.hexdigest() == CHI_DIGEST

    @settings(max_examples=200, deadline=None)
    @given(view=small_cuisines())
    def test_small_cuisines(self, view):
        assert np.array_equal(chi_values(view), loop_chi_values(view))

    def test_zero_overlap_gives_zero_chi(self):
        view = kernel_view(np.zeros((4, 4)), [[0, 1], [1, 2, 3], [0, 2, 3]])
        assert view.mean_score() == 0.0
        assert np.array_equal(chi_values(view), np.zeros(4))
        assert np.array_equal(chi_values(view), loop_chi_values(view))

    def test_every_recipe_drops_out(self):
        # Ingredient 0 is in every recipe and every recipe has two
        # members, so removing it leaves no recipe to average.
        overlap = np.array([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
        view = kernel_view(overlap, [[0, 1], [0, 2]])
        chi = chi_values(view)
        assert chi[0] == 0.0
        assert np.array_equal(chi, loop_chi_values(view))

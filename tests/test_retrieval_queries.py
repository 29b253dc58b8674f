"""Equivalence and validation tests for the top-k retrieval kernels.

The load-bearing guarantee: the indexed kernels return *identical*
rankings to the brute-force scans in ``tests/oracles.py`` — checked
across the full ingredient universe and every cuisine, not a sample.
"""

import pytest

from repro.datamodel import (
    ConfigurationError,
    LookupFailure,
    ValidationError,
)
from repro.pairing import food_pairing_score
from repro.retrieval import (
    MAX_TOPK,
    NEIGHBOR_LIST_LIMIT,
    complete_recipe,
    nearest_cuisines,
    similar_ingredients,
)
from tests.oracles import scan_complete, scan_nearest_cuisines, scan_similar


@pytest.fixture(scope="module")
def index(workspace):
    return workspace.retrieval()


def _rows(matches):
    return [(m.name, m.shared_molecules) for m in matches]


class TestSimilarEquivalence:
    def test_full_universe(self, index, workspace):
        """Indexed == scan for every pairable catalog ingredient, at the
        serving cap and at the default k (prefix consistency)."""
        catalog = workspace.catalog
        for ingredient in catalog.pairable_ingredients():
            reference = scan_similar(catalog, ingredient, MAX_TOPK)
            indexed = similar_ingredients(
                index, catalog, ingredient, MAX_TOPK
            )
            assert _rows(indexed) == _rows(reference), ingredient.name
            top = similar_ingredients(index, catalog, ingredient, 10)
            assert _rows(top) == _rows(indexed)[:10]

    def test_accepts_name_string(self, index, workspace):
        by_name = similar_ingredients(index, workspace.catalog, "garlic", 5)
        by_object = similar_ingredients(
            index, workspace.catalog, workspace.catalog.get("garlic"), 5
        )
        assert _rows(by_name) == _rows(by_object)

    def test_oversized_k_falls_back_to_reference(self, index, workspace):
        catalog = workspace.catalog
        ingredient = catalog.get("garlic")
        k = NEIGHBOR_LIST_LIMIT + 50
        fallback = similar_ingredients(index, catalog, ingredient, k)
        reference = scan_similar(catalog, ingredient, k)
        assert _rows(fallback) == _rows(reference)
        assert len(fallback) > NEIGHBOR_LIST_LIMIT

    def test_rejects_bad_k(self, index, workspace):
        with pytest.raises(ConfigurationError):
            similar_ingredients(index, workspace.catalog, "garlic", 0)
        with pytest.raises(ConfigurationError):
            similar_ingredients(index, workspace.catalog, "garlic", True)

    def test_rejects_profileless_ingredient(self, index, workspace):
        catalog = workspace.catalog
        unpairable = next(
            i for i in catalog if not i.has_flavor_profile
        )
        with pytest.raises(ValidationError):
            similar_ingredients(index, catalog, unpairable, 5)


class TestCompleteEquivalence:
    def test_workspace_recipes(self, index, workspace):
        """Indexed == scan for real partial recipes, full ranking."""
        catalog = workspace.catalog
        checked = 0
        for recipe in workspace.recipes:
            members = [
                catalog.by_id(ingredient_id)
                for ingredient_id in sorted(recipe.ingredient_ids)
            ]
            if sum(m.has_flavor_profile for m in members) < 2:
                continue
            partial = members[:-1]  # drop one: a genuine completion task
            if not any(m.has_flavor_profile for m in partial):
                continue
            k = index.size  # the full ranking, not just a prefix
            indexed = complete_recipe(index, partial, k)
            reference = scan_complete(catalog, partial, k)
            assert [
                (c.name, c.shared_total, c.score, c.delta) for c in indexed
            ] == [
                (c.name, c.shared_total, c.score, c.delta)
                for c in reference
            ]
            checked += 1
            if checked >= 10:
                break
        assert checked == 10

    def test_score_matches_food_pairing_score(self, index, workspace):
        catalog = workspace.catalog
        partial = [
            catalog.get("garlic"),
            catalog.get("onion"),
            catalog.get("tomato"),
        ]
        for completion in complete_recipe(index, partial, 5):
            candidate = catalog.by_id(completion.ingredient_id)
            assert completion.score == pytest.approx(
                food_pairing_score(partial + [candidate])
            )

    def test_excludes_partial_members(self, index, workspace):
        catalog = workspace.catalog
        partial = [catalog.get("garlic"), catalog.get("onion")]
        names = {c.name for c in complete_recipe(index, partial, 50)}
        assert "garlic" not in names and "onion" not in names

    def test_rejects_profileless_partial(self, index, workspace):
        catalog = workspace.catalog
        unpairable = [i for i in catalog if not i.has_flavor_profile]
        with pytest.raises(ValidationError):
            complete_recipe(index, unpairable[:2], 5)


class TestNearestEquivalence:
    def test_all_codes_against_scan(self, index, workspace):
        """Indexed == per-pair scan for every code, full ranking."""
        cuisines = {
            code: workspace.regional_cuisines()[code]
            for code in index.cuisine_codes
        }
        k = len(index.cuisine_codes)
        for code in index.cuisine_codes:
            assert nearest_cuisines(index, code, k) == scan_nearest_cuisines(
                cuisines, code, k
            ), code

    def test_never_returns_target(self, index):
        for code in index.cuisine_codes:
            matches = nearest_cuisines(index, code, len(index.cuisine_codes))
            assert code not in {m.region_code for m in matches}

    def test_unknown_code(self, index):
        with pytest.raises(LookupFailure):
            nearest_cuisines(index, "NOPE", 5)

"""Tests for persisting analysis results into CulinaryDB."""

import pytest

from repro.culinarydb import (
    build_culinarydb,
    ensure_analysis_tables,
    store_contributions,
    store_pairing_results,
)
from repro.pairing import (
    NullModel,
    analyze_cuisine,
    build_cuisine_view,
    ingredient_contributions,
)


@pytest.fixture(scope="module")
def db_with_results(request):
    workspace = request.getfixturevalue("workspace")
    db = build_culinarydb(workspace.recipes, workspace.catalog)
    cuisines = workspace.regional_cuisines()
    results = {
        code: analyze_cuisine(
            cuisines[code],
            workspace.catalog,
            models=(NullModel.RANDOM, NullModel.FREQUENCY),
            n_samples=800,
        )
        for code in ("ITA", "SCND")
    }
    store_pairing_results(db, results)
    view = build_cuisine_view(cuisines["KOR"], workspace.catalog)
    name_to_id = {
        ingredient.name: ingredient.ingredient_id
        for ingredient in workspace.catalog.ingredients
    }
    store_contributions(
        db, "KOR", ingredient_contributions(view), name_to_id
    )
    return db


class TestEnsureTables:
    def test_idempotent(self, db_with_results):
        ensure_analysis_tables(db_with_results)
        ensure_analysis_tables(db_with_results)
        assert "pairing_results" in db_with_results
        assert "ingredient_contributions" in db_with_results


class TestPairingResults:
    def test_rows_per_region_model(self, db_with_results):
        rows = db_with_results.sql(
            "SELECT region_code, COUNT(*) AS n FROM pairing_results "
            "GROUP BY region_code ORDER BY region_code"
        )
        assert rows == [
            {"region_code": "ITA", "n": 2},
            {"region_code": "SCND", "n": 2},
        ]

    def test_directions_queryable(self, db_with_results):
        rows = db_with_results.sql(
            "SELECT region_code, direction FROM pairing_results "
            "WHERE model = 'random' ORDER BY region_code"
        )
        assert rows == [
            {"region_code": "ITA", "direction": "uniform"},
            {"region_code": "SCND", "direction": "contrasting"},
        ]

    def test_store_replaces_previous(self, db_with_results, workspace):
        cuisines = workspace.regional_cuisines()
        results = {
            "KOR": analyze_cuisine(
                cuisines["KOR"],
                workspace.catalog,
                models=(NullModel.RANDOM,),
                n_samples=500,
            )
        }
        written = store_pairing_results(db_with_results, results)
        assert written == 1
        assert len(db_with_results.table("pairing_results")) == 1


class TestContributions:
    def test_rows_joinable_to_ingredients(self, db_with_results):
        rows = db_with_results.sql(
            "SELECT name, chi_percent FROM ingredient_contributions "
            "JOIN ingredients ON ingredient_id = ingredients.ingredient_id "
            "WHERE region_code = 'KOR' ORDER BY chi_percent DESC LIMIT 3"
        )
        assert len(rows) == 3
        assert all(isinstance(row["name"], str) for row in rows)

    def test_region_refresh_is_idempotent(self, db_with_results, workspace):
        cuisines = workspace.regional_cuisines()
        view = build_cuisine_view(cuisines["KOR"], workspace.catalog)
        name_to_id = {
            ingredient.name: ingredient.ingredient_id
            for ingredient in workspace.catalog.ingredients
        }
        contributions = ingredient_contributions(view)
        first = store_contributions(
            db_with_results, "KOR", contributions, name_to_id
        )
        second = store_contributions(
            db_with_results, "KOR", contributions, name_to_id
        )
        assert first == second
        count = db_with_results.sql(
            "SELECT COUNT(*) AS n FROM ingredient_contributions "
            "WHERE region_code = 'KOR'"
        )[0]["n"]
        assert count == first


class TestContributionIds:
    def test_refresh_after_another_region_keeps_ids_unique(self, workspace):
        db = build_culinarydb(workspace.recipes, workspace.catalog)
        cuisines = workspace.regional_cuisines()
        name_to_id = {
            ingredient.name: ingredient.ingredient_id
            for ingredient in workspace.catalog.ingredients
        }
        contributions = {
            code: ingredient_contributions(
                build_cuisine_view(cuisines[code], workspace.catalog)
            )[:2]
            for code in ("ITA", "KOR")
        }
        store_contributions(db, "ITA", contributions["ITA"], name_to_id)
        store_contributions(db, "KOR", contributions["KOR"], name_to_id)
        # Used to restart ids at len(table) + 1 = 3, which KOR holds.
        store_contributions(db, "ITA", contributions["ITA"], name_to_id)
        table = db.table("ingredient_contributions")
        rows = list(table.rows())
        ids = [row["contribution_id"] for row in rows]
        assert len(set(ids)) == len(ids) == 4
        assert sorted(row["region_code"] for row in rows) == [
            "ITA", "ITA", "KOR", "KOR",
        ]
        store_contributions(db, "ITA", contributions["ITA"], name_to_id)
        assert list(table.rows()) == rows

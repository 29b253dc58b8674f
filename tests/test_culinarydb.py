"""Tests for the CulinaryDB relational layer."""

import pytest

from repro.culinarydb import CulinaryDB, build_culinarydb, create_culinarydb_schema
from repro.datamodel import RECIPE_SOURCES
from tests.oracles import per_row_build_culinarydb, table_state


@pytest.fixture(scope="module")
def culinary(request):
    workspace = request.getfixturevalue("workspace")
    database = build_culinarydb(
        workspace.recipes,
        workspace.catalog,
        instructions=workspace.corpus.raw_recipes.instructions,
    )
    return CulinaryDB(database)


class TestSchema:
    def test_all_tables_created(self):
        db = create_culinarydb_schema()
        assert set(db.table_names()) == {
            "regions", "sources", "categories", "molecules", "ingredients",
            "ingredient_molecules", "ingredient_synonyms", "recipes",
            "recipe_ingredients",
        }

    def test_region_codes_seeded_on_build(self, culinary):
        regions = list(culinary.db.table("regions").rows())
        assert len(regions) == 26  # 22 + 4 WORLD-only
        aggregate_only = [r for r in regions if r["is_aggregate_only"]]
        assert len(aggregate_only) == 4


class TestBuild:
    def test_catalog_tables_full(self, culinary, workspace):
        assert len(culinary.db.table("ingredients")) == 943
        assert len(culinary.db.table("molecules")) == len(
            workspace.catalog.molecules
        )

    def test_recipe_counts(self, culinary, workspace):
        assert len(culinary.db.table("recipes")) == len(workspace.recipes)

    def test_recipe_links_match_recipe_sizes(self, culinary, workspace):
        total_links = len(culinary.db.table("recipe_ingredients"))
        assert total_links == sum(recipe.size for recipe in workspace.recipes)

    def test_molecule_links_match_profiles(self, culinary, workspace):
        total = len(culinary.db.table("ingredient_molecules"))
        assert total == sum(
            len(ingredient.flavor_profile)
            for ingredient in workspace.catalog.ingredients
        )

    def test_synonyms_stored(self, culinary):
        rows = culinary.db.table("ingredient_synonyms").lookup(
            "synonym", "whisky"
        )
        assert len(rows) == 1

    def test_column_loads_equal_per_row_inserts(self, culinary, workspace):
        oracle = per_row_build_culinarydb(
            workspace.recipes,
            workspace.catalog,
            instructions=workspace.corpus.raw_recipes.instructions,
        )
        assert culinary.db.table_names() == oracle.table_names()
        for table in oracle:
            assert table_state(culinary.db.table(table.name)) == table_state(
                table
            ), table.name


class TestQueries:
    def test_table1_statistics_match_cuisines(self, culinary, workspace):
        stats = {
            row["region_code"]: row for row in culinary.table1_statistics()
        }
        for code, cuisine in workspace.regional_cuisines().items():
            assert stats[code]["recipes"] == len(cuisine)
            assert stats[code]["ingredients"] == len(cuisine.ingredient_ids)

    def test_recipes_in_region(self, culinary, workspace):
        rows = culinary.recipes_in_region("KOR")
        expected = len(workspace.cuisines["KOR"])
        assert len(rows) == expected
        assert all(row["region_code"] == "KOR" for row in rows)

    def test_recipe_ingredients_roundtrip(self, culinary, workspace):
        recipe = workspace.recipes[0]
        names = culinary.recipe_ingredients(recipe.recipe_id)
        expected = sorted(
            workspace.catalog.by_id(ingredient_id).name
            for ingredient_id in recipe.ingredient_ids
        )
        assert names == expected

    def test_most_popular_ingredients(self, culinary):
        rows = culinary.most_popular_ingredients("ITA", limit=5)
        assert len(rows) == 5
        uses = [row["uses"] for row in rows]
        assert uses == sorted(uses, reverse=True)
        assert rows[0]["name"] == "tomato"

    def test_category_composition(self, culinary):
        composition = culinary.category_composition("INSC")
        assert composition["Spice"] == max(composition.values())

    def test_source_totals_proportional(self, culinary):
        totals = culinary.source_totals()
        assert set(totals) <= set(RECIPE_SOURCES)
        assert totals["AllRecipes"] > totals["TarlaDalal"]

    def test_ingredients_sharing_molecules(self, culinary):
        ranked = culinary.ingredients_sharing_molecules("garlic", limit=40)
        assert len(ranked) == 40
        shared = [row["shared_molecules"] for row in ranked]
        assert shared == sorted(shared, reverse=True)
        names = [row["name"] for row in ranked]
        # Compound sauces containing garlic inherit its whole profile and
        # top the list; fellow alliums must appear right behind them.
        assert any(
            name in ("onion", "shallot", "leek", "scallion", "chive",
                     "red onion", "white onion", "sweet onion")
            for name in names
        )

    def test_ingredients_sharing_molecules_unknown(self, culinary):
        assert culinary.ingredients_sharing_molecules("unobtainium") == []

    def test_region_summary(self, culinary):
        summary = culinary.region_summary()
        assert summary[0]["recipes"] >= summary[-1]["recipes"]
        assert all(row["mean_size"] > 2 for row in summary)


class TestPersistence:
    def test_save_and_load_roundtrip(self, culinary, tmp_path):
        culinary.save(tmp_path / "db")
        loaded = CulinaryDB.load(tmp_path / "db")
        assert len(loaded.db.table("recipes")) == len(
            culinary.db.table("recipes")
        )
        original = culinary.most_popular_ingredients("ITA", limit=3)
        restored = loaded.most_popular_ingredients("ITA", limit=3)
        assert original == restored

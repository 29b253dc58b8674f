"""Tests for recipes as arrays: the table, the cuisines built on it, and
a warm restart that loads them without building recipe objects."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from repro.datamodel import Cuisine, Recipe, RecipeTable, build_cuisines

ROOT = Path(__file__).resolve().parent.parent

RECIPES = [
    Recipe(7, "ITA", frozenset({3, 9, 40}), "pasta", "AllRecipes"),
    Recipe(2, "FRA", frozenset({1, 9}), "soup", "Epicurious"),
    Recipe(5, "ITA", frozenset({9, 17}), "pasta", "Epicurious"),
]


class TestRecipeTable:
    def test_round_trips_recipe_objects(self):
        table = RecipeTable.from_recipes(RECIPES)
        assert len(table) == 3
        assert list(table) == RECIPES
        assert table[1] == RECIPES[1]
        assert table[-1] == RECIPES[-1]
        assert table.sizes().tolist() == [3, 2, 2]

    def test_string_tables_are_sorted_and_shared(self):
        table = RecipeTable.from_recipes(RECIPES)
        assert table.regions == ("FRA", "ITA")
        assert table.titles == ("pasta", "soup")
        assert table.title_idx.tolist() == [0, 1, 0]

    def test_rows_keep_the_frozenset_order(self):
        table = RecipeTable.from_recipes(RECIPES)
        for recipe, row in zip(RECIPES, range(len(table))):
            start, stop = table.offsets[row], table.offsets[row + 1]
            assert table.ingredient_ids[start:stop].tolist() == list(
                recipe.ingredient_ids
            )

    def test_take_compacts_string_tables(self):
        table = RecipeTable.from_recipes(RECIPES)
        taken = table.take(np.asarray([2, 0]))
        assert list(taken) == [RECIPES[2], RECIPES[0]]
        assert taken.regions == ("ITA",)
        assert taken.sources == ("AllRecipes", "Epicurious")

    def test_equality_compares_values(self):
        assert RecipeTable.from_recipes(RECIPES) == RecipeTable.from_recipes(
            list(RECIPES)
        )
        assert RecipeTable.from_recipes(RECIPES) != RecipeTable.from_recipes(
            RECIPES[:2]
        )

    def test_build_cuisines_splits_in_table_order(self):
        cuisines = build_cuisines(RecipeTable.from_recipes(RECIPES))
        assert list(cuisines) == ["FRA", "ITA"]
        assert [recipe.recipe_id for recipe in cuisines["ITA"]] == [7, 5]


class TestUsageOrder:
    def test_usage_counts_in_first_seen_order(self, workspace, pipeline):
        """The arrays give the Counter that updating one with each
        resolved recipe's frozenset, in corpus order, gives."""
        expected: dict[str, Counter[int]] = {}
        for raw in workspace.corpus.raw_recipes:
            recipe = pipeline.resolve_recipe(raw)
            if recipe is not None:
                expected.setdefault(recipe.region_code, Counter()).update(
                    recipe.ingredient_ids
                )
        assert sorted(expected) == sorted(workspace.cuisines)
        for code, cuisine in workspace.cuisines.items():
            assert list(cuisine.ingredient_usage.items()) == list(
                expected[code].items()
            ), code

    def test_cuisine_from_objects_matches_cuisine_from_rows(self, workspace):
        cuisine = workspace.cuisines["ITA"]
        rebuilt = Cuisine("ITA", list(cuisine.recipes))
        assert list(rebuilt) == list(cuisine)
        assert rebuilt.ingredient_usage == cuisine.ingredient_usage
        assert rebuilt.recipe_sizes == cuisine.recipe_sizes


_WARM_CHILD = """
import gc, json, sys
import numpy as np
from repro.datamodel import Recipe
from repro.engine import RunConfig, engine_cache_summary
from repro.experiments import workspace_for
from repro.service import QueryService

built = []
original = Recipe.__post_init__
def counting(self):
    built.append(self.recipe_id)
    original(self)
Recipe.__post_init__ = counting

config = RunConfig(recipe_scale=0.02, cache_dir=sys.argv[1])
workspace = workspace_for(config)
QueryService(workspace, config).preload()
gc.collect()
live = sum(isinstance(item, Recipe) for item in gc.get_objects())
tuples_of_arrays = [
    (code, name)
    for code, view in workspace.views().items()
    for name, value in vars(view).items()
    if isinstance(value, (tuple, list))
    and any(isinstance(item, np.ndarray) for item in value)
]
print(json.dumps({
    "cache": engine_cache_summary(),
    "built": len(built),
    "live": live,
    "tuples_of_arrays": tuples_of_arrays,
    "views": len(workspace.views()),
}))
"""


def _run(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_warm_preload_builds_no_recipe_objects(tmp_path):
    """A warm restart loads recipes, cuisines and views as arrays.

    One process fills the store; a fresh one warm-loads every stage,
    preloads the service (classifier, CulinaryDB) and then holds no
    :class:`Recipe` object, built or unpickled, and no view holds a
    tuple of per-recipe arrays.
    """
    cache = str(tmp_path / "store")
    _run(
        "import sys\n"
        "from repro.engine import RunConfig\n"
        "from repro.experiments import workspace_for\n"
        "workspace_for(RunConfig(recipe_scale=0.02, cache_dir=sys.argv[1]))\n",
        cache,
    )
    found = json.loads(_run(_WARM_CHILD, cache).splitlines()[-1])
    assert found["cache"].endswith("(memory 0, disk 5) builds=0")
    assert found["views"] == 22
    assert found["built"] == 0
    assert found["live"] == 0
    assert found["tuples_of_arrays"] == []

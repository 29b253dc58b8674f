"""Tests for recipes as arrays: the raw and resolved tables, the cuisines
built on them, and a warm restart that loads them without building
recipe objects."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.corpus import CorpusGenerator, PhraseRenderer
from repro.datamodel import (
    ConfigurationError,
    Cuisine,
    RawRecipe,
    RawRecipeTable,
    Recipe,
    RecipeTable,
    ValidationError,
    build_cuisines,
)

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


RAW_RECIPES = [
    RawRecipe(
        7,
        "Crème Brûlée",
        "Epicurious",
        "FRA",
        ("¾ cup crème fraîche", "2 vanilla beans", "½ tsp sel de Guérande"),
        "Chauffer la crème, puis cuire au bain-marie.",
    ),
    RawRecipe(2, "Ramen", "AllRecipes", "JPN", ("1 tbsp 醤油",), ""),
    RawRecipe(5, "Pesto", "AllRecipes", "ITA", ("basil", "pine nuts")),
]


class TestRawRecipeTable:
    def test_round_trips_non_ascii_recipe_objects(self):
        table = RawRecipeTable.from_recipes(RAW_RECIPES)
        assert not table.phrase_utf8.isascii()
        assert list(table) == RAW_RECIPES
        assert table.phrases() == [
            phrase for raw in RAW_RECIPES for phrase in raw.ingredient_phrases
        ]
        assert table.phrase_offsets.tolist() == [0, 3, 4, 6]
        assert table.regions == ("FRA", "ITA", "JPN")

    def test_indexes_and_slices_like_a_tuple(self):
        table = RawRecipeTable.from_recipes(RAW_RECIPES)
        assert len(table) == 3
        assert table[0] == RAW_RECIPES[0]
        assert table[-1] == RAW_RECIPES[-1]
        assert table[-3] == RAW_RECIPES[0]
        assert table[:2] == tuple(RAW_RECIPES[:2])
        assert table[:10] == tuple(RAW_RECIPES)
        assert table[::-2] == tuple(RAW_RECIPES[::-2])
        assert table[3:] == ()
        with pytest.raises(IndexError):
            table[3]
        with pytest.raises(IndexError):
            table[-4]

    def test_equality_compares_values(self):
        table = RawRecipeTable.from_recipes(RAW_RECIPES)
        assert table == RawRecipeTable.from_recipes(list(RAW_RECIPES))
        assert table != RawRecipeTable.from_recipes(RAW_RECIPES[:2])
        changed = dataclasses.replace(RAW_RECIPES[1], instructions="boil")
        assert table != RawRecipeTable.from_recipes(
            [RAW_RECIPES[0], changed, RAW_RECIPES[2]]
        )

    def test_recipe_without_phrases_rejected(self):
        with pytest.raises(ValidationError, match="raw recipe 4"):
            RawRecipeTable.from_columns(
                recipe_ids=[3, 4],
                phrase_rows=[("basil",), ()],
                regions=["ITA", "ITA"],
                titles=["a", "b"],
                sources=["AllRecipes", "AllRecipes"],
                instructions=["", ""],
            )

    def test_instructions_map_recipe_ids_in_any_row_order(self):
        instructions = RawRecipeTable.from_recipes(RAW_RECIPES).instructions
        assert list(instructions) == [7, 2, 5]
        assert instructions[2] == ""
        assert instructions[7] == RAW_RECIPES[0].instructions
        assert dict(instructions.items()) == {
            raw.recipe_id: raw.instructions for raw in RAW_RECIPES
        }
        assert 3 not in instructions
        with pytest.raises(KeyError):
            instructions[3]
        with pytest.raises(KeyError):
            instructions["7"]


@pytest.fixture(scope="module")
def rendered(request):
    """A small corpus, and the ingredient ids the renderer was handed, in
    render order."""
    monkeypatch = pytest.MonkeyPatch()
    request.addfinalizer(monkeypatch.undo)
    handed: list[int] = []
    render_lines = PhraseRenderer.render_lines

    def recording(self, ingredients, recipes, *args):
        handed.extend(
            ingredients[index].ingredient_id
            for indices in recipes
            for index in indices.tolist()
        )
        return render_lines(self, ingredients, recipes, *args)

    monkeypatch.setattr(PhraseRenderer, "render_lines", recording)
    corpus = CorpusGenerator(recipe_scale=0.02).generate()
    return corpus, handed


class TestGeneratedColumns:
    def test_intended_ids_are_the_rendered_ingredients(self, rendered):
        """Phrase ``p`` was rendered from ingredient ``intended_ids[p]``:
        the phrase and intended-id axes stay aligned."""
        corpus, handed = rendered
        table = corpus.raw_recipes
        assert corpus.intended_ids.dtype == np.int32
        assert corpus.intended_ids.tolist() == handed
        assert len(table.phrases()) == len(handed) == table.phrase_offsets[-1]

    def test_intended_ingredients_are_the_stored_frozensets(self, rendered):
        """Each recipe's entry is the frozenset of the ingredients its
        phrases were rendered from, what the generator used to store."""
        corpus, handed = rendered
        offsets = corpus.raw_recipes.phrase_offsets.tolist()
        intended = corpus.intended_ingredients
        assert list(intended) == corpus.raw_recipes.recipe_ids.tolist()
        for row, raw in enumerate(corpus.raw_recipes):
            expected = frozenset(handed[offsets[row] : offsets[row + 1]])
            assert intended[raw.recipe_id] == expected
            assert len(expected) == len(raw.ingredient_phrases)

    def test_misaligned_intended_ids_rejected(self, rendered):
        corpus, _handed = rendered
        with pytest.raises(ConfigurationError):
            dataclasses.replace(corpus, intended_ids=corpus.intended_ids[1:])


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
from repro.datamodel import RawRecipe, Recipe
from repro.engine import RunConfig, engine_cache_summary
from repro.experiments import workspace_for
from repro.service import QueryService

built = {Recipe: [], RawRecipe: []}
for cls in built:
    def counting(self, original=cls.__post_init__, cls=cls):
        built[cls].append(self.recipe_id)
        original(self)
    cls.__post_init__ = counting

def reachable(root, skip):
    \"\"\"Every object reachable from ``root`` through containers and
    instance dicts, except ``skip`` and classes.\"\"\"
    seen, stack, found = {id(root)}, [root], []
    while stack:
        item = stack.pop()
        found.append(item)
        for ref in gc.get_referents(item):
            if id(ref) not in seen and ref is not skip:
                if not isinstance(ref, type):
                    seen.add(id(ref))
                    stack.append(ref)
    return found

config = RunConfig(recipe_scale=0.02, cache_dir=sys.argv[1])
workspace = workspace_for(config)
QueryService(workspace, config).preload()
gc.collect()
live = {
    cls.__name__: sum(isinstance(item, cls) for item in gc.get_objects())
    for cls in built
}
tuples_of_arrays = [
    (code, name)
    for code, view in workspace.views().items()
    for name, value in vars(view).items()
    if isinstance(value, (tuple, list))
    and any(isinstance(item, np.ndarray) for item in value)
]
corpus = workspace.corpus
phrases = set(corpus.raw_recipes.phrases())
held = reachable(corpus, skip=corpus.pantries)
print(json.dumps({
    "cache": engine_cache_summary(),
    "built": {cls.__name__: len(ids) for cls, ids in built.items()},
    "live": live,
    "tuples_of_arrays": tuples_of_arrays,
    "views": len(workspace.views()),
    "phrases": len(phrases),
    "phrase_tuples": sum(
        isinstance(item, tuple) and any(value in phrases for value in item)
        for item in held
    ),
    "frozensets": sum(isinstance(item, frozenset) for item in held),
    "corpus_types": sorted({type(item).__name__ for item in held}),
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
    """A warm restart loads raw recipes, recipes, cuisines and views as
    arrays.

    One process fills the store; a fresh one warm-loads every stage,
    preloads the service (classifier, CulinaryDB) and then holds no
    :class:`RawRecipe` or :class:`Recipe` object, built or unpickled; no
    view holds a tuple of per-recipe arrays, and the corpus artifact
    (its pantries aside) holds no tuple of phrase strings and no
    frozenset.
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
    assert found["built"] == {"Recipe": 0, "RawRecipe": 0}
    assert found["live"] == {"Recipe": 0, "RawRecipe": 0}
    assert found["tuples_of_arrays"] == []
    assert found["phrases"] > 1000
    assert found["phrase_tuples"] == 0
    assert found["frozensets"] == 0
    assert "ndarray" in found["corpus_types"]

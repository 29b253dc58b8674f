"""Populate CulinaryDB from a catalog and a resolved recipe collection.

One pass over the catalog and array operations over the recipe table
build every table's columns; each table is then filled by one
:meth:`~repro.db.table.Table.load_columns` call, parents before children,
so foreign keys resolve. The load makes the checks per-row inserts make,
and the database equals the one per-row inserts build, index for index.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from ..datamodel import (
    RECIPE_SOURCES,
    REGIONS,
    WORLD_ONLY_REGION_NAMES,
    Recipe,
    RecipeTable,
    recipe_table,
)
from ..db import Database
from ..flavordb import IngredientCatalog, default_catalog
from .schema import create_culinarydb_schema


def build_culinarydb(
    recipes: RecipeTable | Iterable[Recipe],
    catalog: IngredientCatalog | None = None,
    instructions: Mapping[int, str] | None = None,
    name: str = "culinarydb",
) -> Database:
    """Build a fully-populated CulinaryDB database.

    Args:
        recipes: resolved recipes (any regions, including WORLD-only
            ones), as the aliasing stage's table or as objects. Titles
            and sources come from them.
        catalog: ingredient catalog; defaults to the shared instance.
        instructions: the instructions column, recipe id -> text, such
            as a corpus's ``raw_recipes.instructions``; recipes it lacks,
            or all when it is ``None``, get NULL instructions.
        name: database name.
    """
    catalog = catalog if catalog is not None else default_catalog()
    db = create_culinarydb_schema(name)
    world_only = list(WORLD_ONLY_REGION_NAMES)
    db.table("regions").load_columns(
        {
            "code": [region.code for region in REGIONS] + world_only,
            "name": [region.name for region in REGIONS] + world_only,
            "pairing": [region.pairing.value for region in REGIONS]
            + [None] * len(world_only),
            "is_aggregate_only": [False] * len(REGIONS)
            + [True] * len(world_only),
        }
    )
    db.table("sources").load_columns(
        {
            "name": list(RECIPE_SOURCES),
            "published_total": list(RECIPE_SOURCES.values()),
        }
    )
    db.table("categories").load_columns(
        {
            "name": sorted(
                {ingredient.category.value for ingredient in catalog.ingredients}
            )
        }
    )
    molecules = catalog.molecules
    db.table("molecules").load_columns(
        {
            "molecule_id": [molecule.molecule_id for molecule in molecules],
            "name": [molecule.name for molecule in molecules],
            "flavor_family": [molecule.flavor_family for molecule in molecules],
        }
    )

    ingredients = catalog.ingredients
    link_ingredients: list[int] = []
    link_molecules: list[int] = []
    synonyms: list[str] = []
    synonym_ingredients: list[int] = []
    for ingredient in ingredients:
        profile = sorted(ingredient.flavor_profile)
        link_molecules.extend(profile)
        link_ingredients.extend([ingredient.ingredient_id] * len(profile))
        synonyms.extend(ingredient.synonyms)
        synonym_ingredients.extend(
            [ingredient.ingredient_id] * len(ingredient.synonyms)
        )
    db.table("ingredients").load_columns(
        {
            "ingredient_id": [item.ingredient_id for item in ingredients],
            "name": [item.name for item in ingredients],
            "category": [item.category.value for item in ingredients],
            "is_compound": [item.is_compound for item in ingredients],
            "profile_size": [len(item.flavor_profile) for item in ingredients],
        }
    )
    db.table("ingredient_molecules").load_columns(
        {
            "link_id": range(1, len(link_molecules) + 1),
            "ingredient_id": link_ingredients,
            "molecule_id": link_molecules,
        }
    )
    db.table("ingredient_synonyms").load_columns(
        {"synonym": synonyms, "ingredient_id": synonym_ingredients}
    )

    table = recipe_table(recipes)
    recipe_ids = table.recipe_ids.tolist()
    sizes = table.sizes()
    texts = dict(instructions.items()) if instructions is not None else {}
    known_sources = [
        source if source in RECIPE_SOURCES else None
        for source in table.sources
    ]
    columns = {
        "recipe_id": recipe_ids,
        "title": [table.titles[code] for code in table.title_idx.tolist()],
        "source": [known_sources[code] for code in table.source_idx.tolist()],
        "region_code": [
            table.regions[code] for code in table.region_idx.tolist()
        ],
        "n_ingredients": sizes.tolist(),
        "instructions": [texts.get(recipe_id) for recipe_id in recipe_ids],
    }
    # Each recipe's ingredient links in ascending id order. The tables
    # keep every cell, so each cell refers to the one int object of its
    # recipe id or catalog ingredient id, not to a new one per link.
    owners = np.repeat(np.arange(len(table)), sizes)
    shared_id = {
        ingredient.ingredient_id: ingredient.ingredient_id
        for ingredient in ingredients
    }
    recipe_ingredients = [
        shared_id[ingredient_id]
        for ingredient_id in table.ingredient_ids[
            np.lexsort((table.ingredient_ids, owners))
        ].tolist()
    ]
    link_recipes = [
        recipe_id
        for recipe_id, size in zip(recipe_ids, sizes.tolist())
        for _ in range(size)
    ]
    db.table("recipes").load_columns(columns)
    db.table("recipe_ingredients").load_columns(
        {
            "link_id": range(1, len(recipe_ingredients) + 1),
            "recipe_id": link_recipes,
            "ingredient_id": recipe_ingredients,
        }
    )
    return db

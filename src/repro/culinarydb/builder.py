"""Populate CulinaryDB from a catalog and a resolved recipe collection.

One pass over the catalog and one over the recipes build every table's
columns; each table is then filled by one
:meth:`~repro.db.table.Table.load_columns` call, parents before children,
so foreign keys resolve. The load makes the checks per-row inserts make,
and the database equals the one per-row inserts build, index for index.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..datamodel import (
    RECIPE_SOURCES,
    REGIONS,
    WORLD_ONLY_REGION_NAMES,
    Recipe,
)
from ..db import Database
from ..flavordb import IngredientCatalog, default_catalog
from .schema import create_culinarydb_schema


def build_culinarydb(
    recipes: Sequence[Recipe],
    catalog: IngredientCatalog | None = None,
    raw_recipes: Iterable | None = None,
    name: str = "culinarydb",
) -> Database:
    """Build a fully-populated CulinaryDB database.

    Args:
        recipes: resolved recipes (any regions, including WORLD-only ones).
        catalog: ingredient catalog; defaults to the shared instance.
        raw_recipes: optional matching :class:`~repro.datamodel.RawRecipe`
            records; when given, titles/sources/instructions come from them.
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

    raw_by_id = {}
    if raw_recipes is not None:
        raw_by_id = {raw.recipe_id: raw for raw in raw_recipes}
    columns: dict[str, list] = {
        "recipe_id": [],
        "title": [],
        "source": [],
        "region_code": [],
        "n_ingredients": [],
        "instructions": [],
    }
    link_recipes: list[int] = []
    recipe_ingredients: list[int] = []
    for recipe in recipes:
        raw = raw_by_id.get(recipe.recipe_id)
        source = raw.source if raw is not None else recipe.source
        columns["recipe_id"].append(recipe.recipe_id)
        columns["title"].append(raw.title if raw is not None else recipe.title)
        columns["source"].append(source if source in RECIPE_SOURCES else None)
        columns["region_code"].append(recipe.region_code)
        columns["n_ingredients"].append(recipe.size)
        columns["instructions"].append(
            raw.instructions if raw is not None else None
        )
        ids = sorted(recipe.ingredient_ids)
        recipe_ingredients.extend(ids)
        link_recipes.extend([recipe.recipe_id] * len(ids))
    db.table("recipes").load_columns(columns)
    db.table("recipe_ingredients").load_columns(
        {
            "link_id": range(1, len(recipe_ingredients) + 1),
            "recipe_id": link_recipes,
            "ingredient_id": recipe_ingredients,
        }
    )
    return db

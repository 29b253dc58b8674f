"""Domain data model: categories, regions, molecules, ingredients, recipes.

This package holds the paper's published facts (Table 1 region statistics,
Figure 4 pairing directions, the 21 ingredient categories) and the immutable
entity types the rest of the library is built on.
"""

from .categories import MOST_USED_WORLD_CATEGORIES, Category
from .entities import (
    MIN_PAIRABLE_RECIPE_SIZE,
    Cuisine,
    FlavorMolecule,
    Ingredient,
    RawRecipe,
    RawRecipeTable,
    Recipe,
    RecipeTable,
    RowMapping,
    build_cuisines,
    recipe_table,
)
from .errors import ConfigurationError, LookupFailure, ReproError, ValidationError
from .regions import (
    DAIRY_FORWARD_CODES,
    RECIPE_SOURCES,
    REGIONS,
    SPICE_FORWARD_CODES,
    TOTAL_RECIPES,
    TOTAL_REGIONAL_RECIPES,
    WORLD_CODE,
    WORLD_ONLY_RECIPES,
    WORLD_ONLY_REGION_NAMES,
    PairingKind,
    Region,
    contrasting_regions,
    get_region,
    region_codes,
    uniform_regions,
)

__all__ = [
    "Category",
    "MOST_USED_WORLD_CATEGORIES",
    "MIN_PAIRABLE_RECIPE_SIZE",
    "Cuisine",
    "FlavorMolecule",
    "Ingredient",
    "RawRecipe",
    "RawRecipeTable",
    "Recipe",
    "RecipeTable",
    "RowMapping",
    "build_cuisines",
    "recipe_table",
    "ConfigurationError",
    "LookupFailure",
    "ReproError",
    "ValidationError",
    "DAIRY_FORWARD_CODES",
    "RECIPE_SOURCES",
    "REGIONS",
    "SPICE_FORWARD_CODES",
    "TOTAL_RECIPES",
    "TOTAL_REGIONAL_RECIPES",
    "WORLD_CODE",
    "WORLD_ONLY_RECIPES",
    "WORLD_ONLY_REGION_NAMES",
    "PairingKind",
    "Region",
    "contrasting_regions",
    "get_region",
    "region_codes",
    "uniform_regions",
]

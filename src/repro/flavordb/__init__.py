"""Synthetic FlavorDB substrate.

Recreates the paper's data layer: a community-structured flavor-molecule
universe, a curated catalog of 840 basic + 103 compound ingredients across
21 categories, the curation protocol of Section III.B, and deterministic
flavor-profile synthesis.
"""

from .descriptors import (
    FAMILY_DESCRIPTORS,
    describe_ingredient,
    descriptor_weights,
    shared_descriptors,
)
from .catalog import (
    IngredientCatalog,
    curate_names,
    default_catalog,
    raw_flavordb_names,
)
from .catalog_data import (
    AHN_ADDED_INGREDIENTS,
    BASIC_INGREDIENTS,
    COMPOUND_INGREDIENTS,
    MANUAL_ADDITIVES,
    PAPER_ADDED_INGREDIENTS,
    PROFILE_FREE_ADDITIVES,
    REMOVED_GENERIC_ENTITIES,
    SYNONYMS,
)
from .overlap import membership_matrix, shared_molecule_counts
from .profiles import (
    CATEGORY_FAMILIES,
    primary_family,
    profile_size,
    secondary_family,
    stable_seed,
    synthesize_profile,
)
from .universe import (
    COMMONS_FAMILY,
    FLAVOR_FAMILIES,
    build_universe,
    family_blocks,
    total_molecules,
)

__all__ = [
    "FAMILY_DESCRIPTORS",
    "describe_ingredient",
    "descriptor_weights",
    "shared_descriptors",
    "IngredientCatalog",
    "curate_names",
    "default_catalog",
    "raw_flavordb_names",
    "AHN_ADDED_INGREDIENTS",
    "BASIC_INGREDIENTS",
    "COMPOUND_INGREDIENTS",
    "MANUAL_ADDITIVES",
    "PAPER_ADDED_INGREDIENTS",
    "PROFILE_FREE_ADDITIVES",
    "REMOVED_GENERIC_ENTITIES",
    "SYNONYMS",
    "membership_matrix",
    "shared_molecule_counts",
    "CATEGORY_FAMILIES",
    "primary_family",
    "profile_size",
    "secondary_family",
    "stable_seed",
    "synthesize_profile",
    "COMMONS_FAMILY",
    "FLAVOR_FAMILIES",
    "build_universe",
    "family_blocks",
    "total_molecules",
]

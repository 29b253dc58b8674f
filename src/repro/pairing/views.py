"""Numeric cuisine views: recipes as index arrays over a pantry.

The pairing analyses are all built on the same numeric representation of a
cuisine, prepared once by :class:`CuisineView`:

* the cuisine's *pairable* ingredients (non-empty flavor profiles; the
  paper's four profile-free additives are excluded from scoring),
* a dense pairwise overlap matrix |F_i ∩ F_j| over those ingredients,
* each recipe as an ``int`` array of local indices,
* ingredient usage frequencies and category labels, which the null models
  preserve.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import numpy as np

from ..datamodel import Cuisine, Ingredient, ValidationError
from ..flavordb import (
    IngredientCatalog,
    membership_matrix,
    shared_molecule_counts,
)


@dataclasses.dataclass(frozen=True)
class CuisineView:
    """Numeric representation of one cuisine, ready for analysis.

    Attributes:
        region_code: the cuisine's region.
        ingredients: pairable ingredients used by the cuisine (local index
            order).
        overlap: dense symmetric |F_i ∩ F_j| matrix, diagonal zero.
        recipes: local-index arrays, one per recipe with >= 2 pairable
            ingredients (others cannot contribute a pair).
        frequencies: recipe-usage count per local ingredient.
        categories: category name per local ingredient.

    Derived structures the null models need on every sampling call
    (recipe sizes, category pools, per-template category specs) and the
    cuisine's own mean score are computed once per view and cached.

    A *kernel* view — one reconstructed in a worker process from shared
    memory (see :mod:`repro.parallel.sharedmem`) — carries an empty
    ``ingredients`` tuple because ingredient objects never cross the
    process boundary; ``ingredient_count`` therefore derives from
    ``categories`` (one label per local ingredient), which both full and
    kernel views populate.
    """

    region_code: str
    ingredients: tuple[Ingredient, ...]
    overlap: np.ndarray
    recipes: tuple[np.ndarray, ...]
    frequencies: np.ndarray
    categories: tuple[str, ...]

    @property
    def ingredient_count(self) -> int:
        return len(self.categories)

    @property
    def recipe_count(self) -> int:
        return len(self.recipes)

    def recipe_sizes(self) -> np.ndarray:
        return self._recipe_sizes

    @functools.cached_property
    def _recipe_sizes(self) -> np.ndarray:
        return np.asarray([len(recipe) for recipe in self.recipes], np.int64)

    def mean_score(self) -> float:
        """The cuisine's average flavor sharing <N_s> over its recipes."""
        return self._mean_score

    @functools.cached_property
    def _mean_score(self) -> float:
        from .score import scores_from_view  # score imports this module

        return float(scores_from_view(self).mean())

    @functools.cached_property
    def category_order(self) -> tuple[str, ...]:
        """The cuisine's categories, sorted — the canonical pool order."""
        return tuple(sorted(set(self.categories)))

    def category_pools(self) -> dict[str, np.ndarray]:
        """Local indices per category (for the category-preserving models)."""
        return self._category_pools

    @functools.cached_property
    def _category_pools(self) -> dict[str, np.ndarray]:
        pools: dict[str, list[int]] = {}
        for index, category in enumerate(self.categories):
            pools.setdefault(category, []).append(index)
        return {
            category: np.asarray(indices, dtype=np.int64)
            for category, indices in pools.items()
        }

    def template_specs(self) -> list[list[tuple[int, int, int]]]:
        """Per recipe: (category id, count, output offset), canonical order.

        Category ids index into :attr:`category_order`. The category-
        preserving samplers group recipes by these specs; computing them
        is O(total ingredients), so the result is cached on the view
        rather than rebuilt per sampling chunk.
        """
        return self._template_specs

    @functools.cached_property
    def _template_specs(self) -> list[list[tuple[int, int, int]]]:
        category_index = {
            name: i for i, name in enumerate(self.category_order)
        }
        specs: list[list[tuple[int, int, int]]] = []
        for recipe in self.recipes:
            counts: dict[int, int] = {}
            for local in recipe:
                cat_id = category_index[self.categories[int(local)]]
                counts[cat_id] = counts.get(cat_id, 0) + 1
            offset = 0
            spec: list[tuple[int, int, int]] = []
            for cat_id in sorted(counts):
                spec.append((cat_id, counts[cat_id], offset))
                offset += counts[cat_id]
            specs.append(spec)
        return specs


def build_cuisine_view(
    cuisine: Cuisine, catalog: IngredientCatalog
) -> CuisineView:
    """Prepare the numeric view of a cuisine.

    Raises:
        ValidationError: if no recipe has two or more pairable ingredients.
    """
    pairable_ids = sorted(
        ingredient_id
        for ingredient_id in cuisine.ingredient_ids
        if catalog.by_id(ingredient_id).has_flavor_profile
    )
    local_index = {
        ingredient_id: index for index, ingredient_id in enumerate(pairable_ids)
    }
    ingredients = tuple(
        catalog.by_id(ingredient_id) for ingredient_id in pairable_ids
    )

    overlap = shared_molecule_counts(membership_matrix(ingredients)).astype(
        np.float64
    )

    recipes: list[np.ndarray] = []
    usage = Counter[int]()
    for recipe in cuisine:
        local = sorted(
            local_index[ingredient_id]
            for ingredient_id in recipe.ingredient_ids
            if ingredient_id in local_index
        )
        usage.update(local)
        if len(local) >= 2:
            recipes.append(np.asarray(local, dtype=np.int64))
    if not recipes:
        raise ValidationError(
            f"cuisine {cuisine.region_code!r} has no pairable recipes"
        )

    frequencies = np.zeros(len(ingredients), dtype=np.float64)
    for index, count in usage.items():
        frequencies[index] = count

    return CuisineView(
        region_code=cuisine.region_code,
        ingredients=ingredients,
        overlap=overlap,
        recipes=tuple(recipes),
        frequencies=frequencies,
        categories=tuple(
            ingredient.category.value for ingredient in ingredients
        ),
    )

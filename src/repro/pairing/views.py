"""Numeric cuisine views: recipes as index arrays over a pantry.

The pairing analyses are all built on the same numeric representation of a
cuisine, prepared once by :class:`CuisineView`:

* the cuisine's *pairable* ingredients (non-empty flavor profiles; the
  paper's four profile-free additives are excluded from scoring), as
  catalog ids,
* a dense pairwise overlap matrix |F_i ∩ F_j| over those ingredients,
  as narrow unsigned integer counts,
* the recipes as compressed sparse rows of local indices,
* ingredient usage frequencies and category labels, which the null models
  preserve, and each recipe's category composition (its *template spec*).

Every field is an array, a string or a tuple of category names, so a view
pickles and loads as a handful of buffers: the engine stores views that
way, and a pooled Monte Carlo task ships its view to a worker that way.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

import numpy as np

from ..datamodel import Cuisine, Ingredient, ValidationError
from ..flavordb import IngredientCatalog, default_catalog


@dataclasses.dataclass(frozen=True)
class CuisineView:
    """Numeric representation of one cuisine, ready for analysis.

    Attributes:
        region_code: the cuisine's region.
        ingredient_ids: catalog ids of the pairable ingredients used by
            the cuisine, ascending; position ``i`` is local index ``i``.
        overlap: dense symmetric |F_i ∩ F_j| matrix, diagonal zero, in
            the narrowest unsigned integer dtype that holds its largest
            count (uint8 for every view at scale 1.0). Every consumer
            sums the counts, and an exact integer sum turned into a
            float64 equals the float64 sum of the same integers, so no
            score depends on the dtype. Never subtract in it: unsigned
            arithmetic wraps.
        frequencies: recipe-usage count per local ingredient.
        category_order: the cuisine's category names, sorted.
        category_ids: per local ingredient, its category's position in
            ``category_order``.
        recipe_offsets, flat_recipes: the recipes with >= 2 pairable
            ingredients (others cannot contribute a pair) as compressed
            sparse rows: recipe ``r`` is
            ``flat_recipes[recipe_offsets[r]:recipe_offsets[r + 1]]``,
            local indices ascending.
        spec_offsets, spec_categories, spec_counts, spec_starts: each
            recipe's template spec as compressed sparse rows: per
            category the recipe uses, in ``category_order`` order, the
            category id, how many of the recipe's ingredients it holds,
            and where those start in a sampled recipe. The category-
            preserving null models copy these.

    The cuisine's mean score is computed once per view and cached.
    """

    region_code: str
    ingredient_ids: np.ndarray
    overlap: np.ndarray
    frequencies: np.ndarray
    category_order: tuple[str, ...]
    category_ids: np.ndarray
    recipe_offsets: np.ndarray
    flat_recipes: np.ndarray
    spec_offsets: np.ndarray
    spec_categories: np.ndarray
    spec_counts: np.ndarray
    spec_starts: np.ndarray

    @property
    def ingredient_count(self) -> int:
        return len(self.category_ids)

    @property
    def recipe_count(self) -> int:
        return len(self.recipe_offsets) - 1

    def recipe_sizes(self) -> np.ndarray:
        return np.diff(self.recipe_offsets)

    def recipe_batch(self, rows: np.ndarray, size: int) -> np.ndarray:
        """``(len(rows), size)`` local indices of recipes all of ``size``."""
        return self.flat_recipes[
            self.recipe_offsets[rows][:, None] + np.arange(size)
        ]

    @property
    def recipes(self) -> "RecipeRows":
        """The recipes as a sequence of local-index arrays (row views)."""
        return RecipeRows(self.recipe_offsets, self.flat_recipes)

    @property
    def categories(self) -> tuple[str, ...]:
        """Category name per local ingredient."""
        order = self.category_order
        return tuple(order[index] for index in self.category_ids.tolist())

    @property
    def ingredients(self) -> tuple[Ingredient, ...]:
        """The pairable ingredients, resolved from their ids in the
        catalog (views hold ids, never ingredient objects)."""
        catalog = default_catalog()
        return tuple(
            catalog.by_id(ingredient_id)
            for ingredient_id in self.ingredient_ids.tolist()
        )

    def mean_score(self) -> float:
        """The cuisine's average flavor sharing <N_s> over its recipes."""
        return self._mean_score

    @functools.cached_property
    def _mean_score(self) -> float:
        from .score import scores_from_view  # score imports this module

        return float(scores_from_view(self).mean())

    def category_pools(self) -> dict[str, np.ndarray]:
        """Local indices per category (for the category-preserving models)."""
        return {
            name: np.flatnonzero(self.category_ids == index)
            for index, name in enumerate(self.category_order)
        }


class RecipeRows(Sequence[np.ndarray]):
    """Read-only sequence over compressed sparse rows; rows are views."""

    __slots__ = ("_offsets", "_flat")

    def __init__(self, offsets: np.ndarray, flat: np.ndarray) -> None:
        self._offsets = offsets
        self._flat = flat

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, row: int) -> np.ndarray:  # type: ignore[override]
        row = range(len(self))[row]  # negative rows; IndexError past the end
        return self._flat[self._offsets[row] : self._offsets[row + 1]]


def assemble_view(
    region_code: str,
    ingredient_ids: np.ndarray,
    overlap: np.ndarray,
    frequencies: np.ndarray,
    categories: Sequence[str],
    recipe_offsets: np.ndarray,
    flat_recipes: np.ndarray,
) -> CuisineView:
    """A view from its recipes as compressed sparse rows.

    Derives the category codes and every recipe's template spec; rows
    must list their local indices ascending.
    """
    category_order = tuple(sorted(set(categories)))
    position = {name: index for index, name in enumerate(category_order)}
    category_ids = np.asarray(
        [position[name] for name in categories], dtype=np.int32
    )
    recipe_offsets = np.asarray(recipe_offsets, dtype=np.int64)
    flat_recipes = np.asarray(flat_recipes, dtype=np.int32)
    sizes = np.diff(recipe_offsets)
    owners = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    width = max(1, len(category_order))
    keys, counts = np.unique(
        owners * width + category_ids[flat_recipes], return_counts=True
    )
    spec_owners = keys // width
    spec_offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(spec_owners, minlength=len(sizes)), out=spec_offsets[1:]
    )
    # A category's first slot: the counts before it in its own recipe.
    before = np.cumsum(counts) - counts
    spec_starts = before - before[spec_offsets[:-1][spec_owners]]
    return CuisineView(
        region_code=region_code,
        ingredient_ids=np.asarray(ingredient_ids, dtype=np.int64),
        overlap=overlap,
        frequencies=frequencies,
        category_order=category_order,
        category_ids=category_ids,
        recipe_offsets=recipe_offsets,
        flat_recipes=flat_recipes,
        spec_offsets=spec_offsets,
        spec_categories=(keys % width).astype(np.int32),
        spec_counts=counts.astype(np.int32),
        spec_starts=spec_starts.astype(np.int32),
    )


def build_cuisine_view(
    cuisine: Cuisine, catalog: IngredientCatalog
) -> CuisineView:
    """Prepare the numeric view of a cuisine from its recipe arrays.

    Raises:
        ValidationError: if no recipe has two or more pairable ingredients.
    """
    pairable_ids = sorted(
        ingredient_id
        for ingredient_id in cuisine.usage_arrays()[0].tolist()
        if catalog.by_id(ingredient_id).has_flavor_profile
    )
    ingredients = [
        catalog.by_id(ingredient_id) for ingredient_id in pairable_ids
    ]
    counts = catalog.shared_molecule_counts(pairable_ids)
    overlap = counts.astype(
        np.min_scalar_type(int(counts.max(initial=0))), copy=False
    )

    table = cuisine.table
    local_of = np.full(max(pairable_ids, default=-1) + 1, -1, np.int64)
    local_of[pairable_ids] = np.arange(len(pairable_ids))
    ids = table.ingredient_ids
    pairable = ids < len(local_of)
    pairable[pairable] = local_of[ids[pairable]] >= 0
    owners = np.repeat(np.arange(len(table), dtype=np.int64), table.sizes())
    owners, local = owners[pairable], local_of[ids[pairable]]
    order = np.lexsort((local, owners))
    owners, local = owners[order], local[order]

    frequencies = np.bincount(local, minlength=len(pairable_ids)).astype(
        np.float64
    )
    counts = np.bincount(owners, minlength=len(table))
    kept = counts >= 2
    if not kept.any():
        raise ValidationError(
            f"cuisine {cuisine.region_code!r} has no pairable recipes"
        )
    offsets = np.zeros(int(kept.sum()) + 1, dtype=np.int64)
    np.cumsum(counts[kept], out=offsets[1:])
    return assemble_view(
        region_code=cuisine.region_code,
        ingredient_ids=np.asarray(pairable_ids, dtype=np.int64),
        overlap=overlap,
        frequencies=frequencies,
        categories=[ingredient.category.value for ingredient in ingredients],
        recipe_offsets=offsets,
        flat_recipes=local[kept[owners]],
    )

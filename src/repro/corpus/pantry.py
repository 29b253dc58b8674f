"""Regional pantry construction: which ingredients a cuisine uses, and how
much.

A :class:`RegionPantry` is the ranked ingredient inventory of one cuisine:
exactly ``profile.ingredient_count`` ingredients (so Table 1 is matched),
with Zipf popularity weights over the ranks (Fig 3b). Rank assignment
implements the pairing calibration described in
:mod:`repro.corpus.profiles`:

* ranks 0..k: the profile's pinned ``signature_ingredients``;
* ranks up to :data:`HEAD_SIZE`: for *uniform* cuisines, ingredients from
  the signature flavor families (popular ingredients share molecules); for
  *contrasting* cuisines, ingredients chosen to maximise family diversity
  (popular ingredients share few molecules);
* remaining ranks: category-weighted sample of the rest of the catalog.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..datamodel import ConfigurationError, Ingredient
from ..datamodel.entities import same_fields
from ..flavordb import IngredientCatalog, stable_seed
from .profiles import RegionGeneratorProfile

#: Number of top popularity ranks treated as the cuisine's "head".
HEAD_SIZE = 40

#: Zipf shift: keeps the very first ranks from dwarfing everything.
ZIPF_SHIFT = 3.0

#: Tail-selection boost for a contrasting cuisine's baseline families.
BASELINE_TAIL_BOOST = 4.0


@dataclasses.dataclass(frozen=True, eq=False)
class RegionPantry:
    """Ranked ingredient inventory of one cuisine; ``==`` compares values.

    Attributes:
        profile: the generator profile this pantry realises.
        ingredients: pantry ingredients, most popular first.
        popularity: normalised popularity weights aligned with
            ``ingredients`` (sums to 1, strictly decreasing).
    """

    profile: RegionGeneratorProfile
    ingredients: tuple[Ingredient, ...]
    popularity: np.ndarray

    def __post_init__(self) -> None:
        if len(self.ingredients) != len(self.popularity):
            raise ConfigurationError("popularity misaligned with ingredients")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionPantry):
            return NotImplemented
        return same_fields(self, other)

    @property
    def size(self) -> int:
        return len(self.ingredients)

    def ingredient_ids(self) -> np.ndarray:
        return np.asarray(
            [ingredient.ingredient_id for ingredient in self.ingredients],
            dtype=np.int64,
        )


def zipf_weights(count: int, exponent: float) -> np.ndarray:
    """Normalised Zipf popularity over ``count`` ranks."""
    ranks = np.arange(count, dtype=np.float64)
    weights = (ranks + ZIPF_SHIFT) ** (-exponent)
    return weights / weights.sum()


class _PantryBuilder:
    """Accumulates the ranked pantry while tracking what is taken."""

    def __init__(
        self, profile: RegionGeneratorProfile, catalog: IngredientCatalog
    ) -> None:
        self.profile = profile
        self.catalog = catalog
        self.chosen: list[Ingredient] = []
        self._chosen_ids: set[int] = set()

    def take(self, ingredient: Ingredient) -> None:
        if ingredient.ingredient_id not in self._chosen_ids:
            self.chosen.append(ingredient)
            self._chosen_ids.add(ingredient.ingredient_id)

    def available(self, pool) -> list[Ingredient]:
        return [
            ingredient
            for ingredient in pool
            if ingredient.ingredient_id not in self._chosen_ids
        ]

    def category_weights(self, pool: list[Ingredient]) -> np.ndarray:
        weights = np.asarray(
            [
                self.profile.category_weight(ingredient.category)
                for ingredient in pool
            ],
            dtype=np.float64,
        )
        return weights / weights.sum()


def build_pantry(
    profile: RegionGeneratorProfile, catalog: IngredientCatalog
) -> RegionPantry:
    """Construct the deterministic pantry for one region profile.

    Raises:
        ConfigurationError: if a signature ingredient is unknown or the
            catalog is too small for the requested pantry.
    """
    rng = np.random.Generator(
        np.random.PCG64(stable_seed("pantry", profile.code))
    )
    builder = _PantryBuilder(profile, catalog)
    if len(profile.signature_ingredients) > profile.ingredient_count:
        raise ConfigurationError(
            f"region {profile.code}: {len(profile.signature_ingredients)} "
            f"signature ingredients exceed the pantry size "
            f"{profile.ingredient_count}"
        )

    # 1. Pinned signature ingredients, in profile order.
    for name in profile.signature_ingredients:
        ingredient = catalog.resolve(name)
        if ingredient is None:
            raise ConfigurationError(
                f"region {profile.code}: unknown signature ingredient {name!r}"
            )
        builder.take(ingredient)

    # 2. Head top-up.
    head_target = min(HEAD_SIZE, profile.ingredient_count)
    if profile.spread_head:
        _fill_head_spread(builder, head_target, rng)
    else:
        _fill_head_cohesive(builder, head_target, rng)

    # 3. Category-weighted tail over the whole catalog. For contrasting
    # cuisines, ingredients of the baseline families are boosted: they form
    # cohesive clusters in the rarely-used tail, raising the uniform-random
    # pairing baseline that the cross-family head undercuts.
    tail_candidates = builder.available(catalog.ingredients)
    remaining = profile.ingredient_count - len(builder.chosen)
    if remaining > len(tail_candidates):
        raise ConfigurationError(
            f"region {profile.code}: catalog too small for "
            f"{profile.ingredient_count} pantry ingredients"
        )
    if remaining > 0:
        weights = builder.category_weights(tail_candidates)
        if profile.baseline_families:
            baseline = set(profile.baseline_families)
            boost = np.asarray(
                [
                    BASELINE_TAIL_BOOST
                    if catalog.family_of(ingredient) in baseline
                    else 1.0
                    for ingredient in tail_candidates
                ],
                dtype=np.float64,
            )
            weights = weights * boost
            weights /= weights.sum()
        picks = rng.choice(
            len(tail_candidates), size=remaining, replace=False, p=weights
        )
        for pick in picks:
            builder.take(tail_candidates[int(pick)])

    popularity = zipf_weights(len(builder.chosen), profile.zipf_exponent)
    return RegionPantry(profile, tuple(builder.chosen), popularity)


def _fill_head_cohesive(
    builder: _PantryBuilder, head_target: int, rng: np.random.Generator
) -> None:
    """Uniform cuisines: draw the head from the signature flavor families."""
    profile, catalog = builder.profile, builder.catalog
    family_pool = [
        ingredient
        for ingredient in builder.available(catalog.pairable_ingredients())
        if not ingredient.is_compound
        and catalog.family_of(ingredient) in profile.signature_families
    ]
    needed = head_target - len(builder.chosen)
    if needed <= 0 or not family_pool:
        return
    weights = builder.category_weights(family_pool)
    count = min(needed, len(family_pool))
    picks = rng.choice(len(family_pool), size=count, replace=False, p=weights)
    for pick in picks:
        builder.take(family_pool[int(pick)])


def _fill_head_spread(
    builder: _PantryBuilder, head_target: int, rng: np.random.Generator
) -> None:
    """Contrasting cuisines: maximise family diversity across the head."""
    catalog = builder.catalog
    family_counts: dict[str, int] = {}
    for ingredient in builder.chosen:
        family = catalog.family_of(ingredient)
        family_counts[family] = family_counts.get(family, 0) + 1
    by_family: dict[str, list[Ingredient]] = {}
    for ingredient in builder.available(catalog.pairable_ingredients()):
        if ingredient.is_compound:
            continue  # compounds' pooled profiles blur the head structure
        by_family.setdefault(catalog.family_of(ingredient), []).append(
            ingredient
        )
    profile = builder.profile
    for pool in by_family.values():
        rng.shuffle(pool)  # type: ignore[arg-type]
        # Popped last-first: prefer the region's emphasised categories
        # (keeps dairy-forward cuisines dairy-forward) and, within those,
        # small flavor profiles — popular ingredients of a contrasting
        # cuisine share few molecules even through the commons family.
        pool.sort(
            key=lambda item: (
                profile.category_weight(item.category),
                -len(item.flavor_profile),
            )
        )
    while len(builder.chosen) < head_target and by_family:
        # Pick the least-represented family that still has candidates.
        family = min(
            by_family, key=lambda name: (family_counts.get(name, 0), name)
        )
        pool = by_family[family]
        builder.take(pool.pop())
        if not pool:
            del by_family[family]
        family_counts[family] = family_counts.get(family, 0) + 1

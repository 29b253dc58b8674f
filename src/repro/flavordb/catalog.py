"""The ingredient catalog: curation protocol + assembled ingredient objects.

:class:`IngredientCatalog` is the reproduction's stand-in for the paper's
curated FlavorDB-derived ingredient list. Building it executes the paper's
curation protocol (Section III.B) step by step:

1. start from the raw entity list (:func:`raw_flavordb_names` — the curated
   basics *minus* the later manual additions, *plus* the 29 generic/noisy
   entities),
2. remove the 29 generic entities,
3. add the 13 paper-specific ingredients, the 4 Ahn et al. imports and the
   7 manual additives (4 of which carry no flavor profile),
4. attach synonyms and spelling variants,
5. compile the 103 compound ingredients, pooling their constituents'
   flavor profiles (union of molecule sets).

The result: 840 basic + 103 compound ingredients, each with a category and
a deterministic synthetic flavor profile.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..datamodel import (
    Category,
    FlavorMolecule,
    Ingredient,
    LookupFailure,
    ValidationError,
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
from .profiles import primary_family, synthesize_profile
from .universe import build_universe


def raw_flavordb_names() -> tuple[str, ...]:
    """The pre-curation entity list, as sourced from 'FlavorDB'.

    Contains the generic/noisy entities the paper removed, and lacks the
    ingredients the paper added manually afterwards.
    """
    manual_additions = (
        set(PAPER_ADDED_INGREDIENTS)
        | set(AHN_ADDED_INGREDIENTS)
        | set(MANUAL_ADDITIVES)
    )
    names = [
        name
        for category_names in BASIC_INGREDIENTS.values()
        for name in category_names
        if name not in manual_additions
    ]
    names.extend(REMOVED_GENERIC_ENTITIES)
    return tuple(sorted(names))


def curate_names(raw_names: tuple[str, ...]) -> tuple[str, ...]:
    """Apply the removal + addition steps of the curation protocol."""
    removed = set(REMOVED_GENERIC_ENTITIES)
    kept = [name for name in raw_names if name not in removed]
    kept.extend(PAPER_ADDED_INGREDIENTS)
    kept.extend(AHN_ADDED_INGREDIENTS)
    kept.extend(MANUAL_ADDITIVES)
    return tuple(sorted(set(kept)))


class IngredientCatalog:
    """All ingredients (basic + compound) with ids, profiles and synonyms."""

    def __init__(self) -> None:
        self._molecules = build_universe()
        self._name_to_category = {
            name: category
            for category, names in BASIC_INGREDIENTS.items()
            for name in names
        }
        curated = curate_names(raw_flavordb_names())
        missing = set(curated) - set(self._name_to_category)
        if missing:
            raise ValidationError(
                f"curated names lack category assignments: {sorted(missing)}"
            )

        ingredients: list[Ingredient] = []
        synonyms_by_canonical: dict[str, list[str]] = {}
        for synonym, canonical in SYNONYMS.items():
            synonyms_by_canonical.setdefault(canonical, []).append(synonym)

        for ingredient_id, name in enumerate(curated):
            category = self._name_to_category[name]
            if name in PROFILE_FREE_ADDITIVES:
                profile: frozenset[int] = frozenset()
            else:
                profile = synthesize_profile(name, category)
            ingredients.append(
                Ingredient(
                    ingredient_id=ingredient_id,
                    name=name,
                    category=category,
                    flavor_profile=profile,
                    synonyms=tuple(sorted(synonyms_by_canonical.get(name, ()))),
                )
            )

        basic_by_name = {
            ingredient.name: ingredient for ingredient in ingredients
        }
        compound_profiles = _pool_compound_profiles(basic_by_name)
        next_id = len(ingredients)
        for name in sorted(COMPOUND_INGREDIENTS):
            category, constituents = COMPOUND_INGREDIENTS[name]
            ingredients.append(
                Ingredient(
                    ingredient_id=next_id,
                    name=name,
                    category=category,
                    flavor_profile=compound_profiles[name],
                    synonyms=tuple(sorted(synonyms_by_canonical.get(name, ()))),
                    is_compound=True,
                    constituents=constituents,
                )
            )
            next_id += 1

        self._ingredients = tuple(ingredients)
        self._by_name: dict[str, Ingredient] = {}
        for ingredient in self._ingredients:
            self._by_name[ingredient.name] = ingredient
        for synonym, canonical in SYNONYMS.items():
            target = self._by_name.get(canonical)
            if target is not None and synonym not in self._by_name:
                self._by_name[synonym] = target
        self._by_id = {
            ingredient.ingredient_id: ingredient
            for ingredient in self._ingredients
        }
        self._families: dict[int, str] = {}
        self._shared: np.ndarray | None = None

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ingredients)

    def __iter__(self) -> Iterator[Ingredient]:
        return iter(self._ingredients)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __repr__(self) -> str:
        basics = sum(1 for i in self._ingredients if not i.is_compound)
        return (
            f"IngredientCatalog({basics} basic + "
            f"{len(self._ingredients) - basics} compound ingredients, "
            f"{len(self._molecules)} molecules)"
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def molecules(self) -> tuple[FlavorMolecule, ...]:
        return self._molecules

    @property
    def ingredients(self) -> tuple[Ingredient, ...]:
        return self._ingredients

    def get(self, name: str) -> Ingredient:
        """Resolve a canonical name or synonym to its ingredient.

        Raises:
            LookupFailure: when the name is unknown.
        """
        ingredient = self._by_name.get(name)
        if ingredient is None:
            raise LookupFailure(f"unknown ingredient: {name!r}")
        return ingredient

    def resolve(self, name: str) -> Ingredient | None:
        """Like :meth:`get` but returns ``None`` on a miss."""
        return self._by_name.get(name)

    def by_id(self, ingredient_id: int) -> Ingredient:
        ingredient = self._by_id.get(ingredient_id)
        if ingredient is None:
            raise LookupFailure(f"unknown ingredient id: {ingredient_id}")
        return ingredient

    def by_category(self, category: Category) -> tuple[Ingredient, ...]:
        """All ingredients of one category, in id order."""
        return tuple(
            ingredient
            for ingredient in self._ingredients
            if ingredient.category is category
        )

    def basic_ingredients(self) -> tuple[Ingredient, ...]:
        return tuple(i for i in self._ingredients if not i.is_compound)

    def compound_ingredients(self) -> tuple[Ingredient, ...]:
        return tuple(i for i in self._ingredients if i.is_compound)

    def pairable_ingredients(self) -> tuple[Ingredient, ...]:
        """Ingredients with non-empty flavor profiles."""
        return tuple(i for i in self._ingredients if i.has_flavor_profile)

    def known_names(self) -> frozenset[str]:
        """Every resolvable surface form (canonical names + synonyms)."""
        return frozenset(self._by_name)

    def family_of(self, ingredient: Ingredient) -> str:
        """Primary flavor family of one of this catalog's ingredients
        (compounds inherit the family of their first constituent).

        Computed once per ingredient id: every region's pantry build asks
        again for the same ingredients.
        """
        family = self._families.get(ingredient.ingredient_id)
        if family is None:
            family = self._primary_family(ingredient)
            self._families[ingredient.ingredient_id] = family
        return family

    def shared_molecule_counts(
        self, ingredient_ids: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """|F_i ∩ F_j| between these ingredients, diagonal zeroed: a
        slice of one catalog-wide matrix, computed on first use.

        The corpus assembler, the cuisine views and the retrieval index
        each ask for a subset; one matmul serves them all. The matrix is
        kept in the narrowest unsigned dtype that holds its largest count
        (uint8 for the default catalog, whose largest is 157), and the
        slice keeps that dtype.
        """
        if self._shared is None:
            # Ingredient ids run 0..n-1 in catalog order.
            counts = shared_molecule_counts(
                membership_matrix(self._ingredients)
            )
            self._shared = counts.astype(
                np.min_scalar_type(int(counts.max(initial=0)))
            )
        ids = np.asarray(ingredient_ids, dtype=np.intp)
        return self._shared[np.ix_(ids, ids)]

    def _primary_family(self, ingredient: Ingredient) -> str:
        if ingredient.is_compound and ingredient.constituents:
            constituent = self.resolve(ingredient.constituents[0])
            if constituent is not None and not constituent.is_compound:
                return primary_family(constituent.name, constituent.category)
        return primary_family(ingredient.name, ingredient.category)


def _pool_compound_profiles(
    basic_by_name: dict[str, Ingredient],
) -> dict[str, frozenset[int]]:
    """Union constituent profiles for each compound, following nested
    compound references (mayonnaise inside tartar sauce) with cycle checks.
    """
    resolved: dict[str, frozenset[int]] = {}
    in_progress: set[str] = set()

    def resolve(name: str) -> frozenset[int]:
        if name in resolved:
            return resolved[name]
        basic = basic_by_name.get(name)
        if basic is not None:
            return basic.flavor_profile
        if name not in COMPOUND_INGREDIENTS:
            raise ValidationError(
                f"compound constituent {name!r} is neither basic nor compound"
            )
        if name in in_progress:
            raise ValidationError(
                f"cycle in compound ingredient definitions at {name!r}"
            )
        in_progress.add(name)
        pooled: set[int] = set()
        for constituent in COMPOUND_INGREDIENTS[name][1]:
            pooled.update(resolve(constituent))
        in_progress.discard(name)
        profile = frozenset(pooled)
        resolved[name] = profile
        return profile

    for name in COMPOUND_INGREDIENTS:
        resolve(name)
    return resolved


_CACHED_CATALOG: IngredientCatalog | None = None


def default_catalog() -> IngredientCatalog:
    """The shared catalog instance (construction is deterministic, so one
    instance serves the whole process)."""
    global _CACHED_CATALOG
    if _CACHED_CATALOG is None:
        _CACHED_CATALOG = IngredientCatalog()
    return _CACHED_CATALOG

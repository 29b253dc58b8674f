"""Core domain entities: molecules, ingredients, recipes and cuisines.

The paper works on three levels — flavor molecules, ingredients and recipes
(Section II.A compares them to letters, words and sentences). The entities
here mirror those levels:

* :class:`FlavorMolecule` — one flavor compound, as catalogued by FlavorDB.
* :class:`Ingredient` — a natural ingredient with a *flavor profile* (the set
  of molecule ids empirically reported for it) and exactly one
  :class:`~repro.datamodel.categories.Category`.
* :class:`RawRecipe` — a recipe as scraped from a source: free-text
  ingredient phrases that still need aliasing.
* :class:`RawRecipeTable` — many raw recipes as arrays and UTF-8 buffers,
  the form the ``corpus`` stage stores.
* :class:`Recipe` — a resolved recipe: an unordered set of canonical
  ingredient ids (the paper treats recipes as unordered ingredient lists for
  pairing analysis).
* :class:`RecipeTable` — many resolved recipes as arrays, the form every
  stage from aliasing onward stores.
* :class:`Cuisine` — the resolved recipes attributed to one region.

All entities are immutable; the objects hold tuples or frozensets so
instances are hashable and safe to share, and the table holds arrays
nobody writes to.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from collections.abc import (
    Callable,
    ItemsView,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)
from typing import Any

import numpy as np

from .categories import Category
from .errors import ValidationError

#: Minimum number of ingredients for a recipe to have at least one pair.
MIN_PAIRABLE_RECIPE_SIZE = 2


@dataclasses.dataclass(frozen=True, slots=True)
class FlavorMolecule:
    """A flavor compound.

    Attributes:
        molecule_id: stable integer id within the molecule universe.
        name: human-readable compound name (e.g. ``"limonene"``).
        flavor_family: the flavor family (community) the molecule belongs to;
            molecules of a family co-occur in the profiles of related
            ingredients (see :mod:`repro.flavordb.universe`).
    """

    molecule_id: int
    name: str
    flavor_family: str

    def __post_init__(self) -> None:
        if self.molecule_id < 0:
            raise ValidationError(
                f"molecule_id must be non-negative, got {self.molecule_id}"
            )
        if not self.name:
            raise ValidationError("molecule name must be non-empty")


@dataclasses.dataclass(frozen=True, slots=True)
class Ingredient:
    """A natural (or compound) ingredient with its flavor profile.

    Attributes:
        ingredient_id: stable integer id within the catalog.
        name: canonical lower-case name (e.g. ``"jalapeno pepper"``).
        category: the ingredient's single category.
        flavor_profile: frozenset of molecule ids reported for the
            ingredient. May be empty — the paper keeps four additives with no
            flavor profile (cooking spray, gelatin, food coloring, liquid
            smoke); such ingredients are excluded from pairing computations.
        synonyms: alternative surface forms that alias to this ingredient
            (``"bun"`` for bread, ``"whisky"`` for whiskey, ...).
        is_compound: True for the paper's 103 'compound ingredients'
            (mayonnaise, garam masala, ...) whose profile is the pooled union
            of their constituents' profiles.
        constituents: canonical names of constituent ingredients for compound
            ingredients; empty for basic ingredients.
    """

    ingredient_id: int
    name: str
    category: Category
    flavor_profile: frozenset[int] = frozenset()
    synonyms: tuple[str, ...] = ()
    is_compound: bool = False
    constituents: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.ingredient_id < 0:
            raise ValidationError(
                f"ingredient_id must be non-negative, got {self.ingredient_id}"
            )
        if not self.name:
            raise ValidationError("ingredient name must be non-empty")
        if self.name != self.name.strip().lower():
            raise ValidationError(
                f"ingredient name must be normalised lower-case: {self.name!r}"
            )
        if self.constituents and not self.is_compound:
            raise ValidationError(
                f"{self.name!r} has constituents but is not marked compound"
            )

    @property
    def has_flavor_profile(self) -> bool:
        """Whether the ingredient can participate in pairing analysis."""
        return bool(self.flavor_profile)

    def shared_molecules(self, other: "Ingredient") -> int:
        """Number of flavor molecules shared with ``other`` (|F_i ∩ F_j|)."""
        return len(self.flavor_profile & other.flavor_profile)


@dataclasses.dataclass(frozen=True, slots=True)
class RawRecipe:
    """A recipe as obtained from a source, before ingredient aliasing.

    The corpus stores raw recipes as a :class:`RawRecipeTable`; these
    objects are built on access, for tests, curation and examples.

    Attributes:
        recipe_id: stable id within the corpus.
        title: recipe name as published.
        source: source site name (``"AllRecipes"``, ...).
        region_code: geo-cultural region code, or a WORLD-only region name
            for the 207 recipes without an independent region.
        ingredient_phrases: the raw ingredient lines, one per ingredient
            (e.g. ``"2 jalapeno peppers, roasted and slit"``).
        instructions: free-text cooking procedure (not used by the pairing
            analysis; kept because the paper extracts it).
    """

    recipe_id: int
    title: str
    source: str
    region_code: str
    ingredient_phrases: tuple[str, ...]
    instructions: str = ""

    def __post_init__(self) -> None:
        if not self.ingredient_phrases:
            raise ValidationError(
                f"raw recipe {self.recipe_id} has no ingredient phrases"
            )


@dataclasses.dataclass(frozen=True, eq=False)
class RawRecipeTable:
    """Raw recipes as columns: the ``corpus`` stage's artifact.

    Row ``r`` is recipe ``recipe_ids[r]``; region, title and source are
    codes into sorted string tables, as in :class:`RecipeTable`. The
    ingredient phrases lie on an axis of their own: row ``r`` owns
    phrases ``phrase_offsets[r]:phrase_offsets[r + 1]``, and phrase ``p``
    is ``phrase_utf8[phrase_bounds[p]:phrase_bounds[p + 1]]``, decoded.
    Row ``r``'s instructions are
    ``instruction_utf8[instruction_bounds[r]:instruction_bounds[r + 1]]``.
    Phrases and instructions are UTF-8 buffers, not string tables,
    because almost none repeat: a table would save little and cost one
    object per string on every load.

    Indexing, slicing (to a tuple) and iteration build :class:`RawRecipe`
    objects on access; ``==`` compares values.
    """

    recipe_ids: np.ndarray  # int64, one per row
    phrase_offsets: np.ndarray  # int64, rows + 1, into the phrase axis
    phrase_utf8: bytes
    phrase_bounds: np.ndarray  # int64, phrases + 1, byte offsets
    region_idx: np.ndarray  # int32 codes into ``regions``
    regions: tuple[str, ...]
    title_idx: np.ndarray  # int32 codes into ``titles``
    titles: tuple[str, ...]
    source_idx: np.ndarray  # int32 codes into ``sources``
    sources: tuple[str, ...]
    instruction_utf8: bytes
    instruction_bounds: np.ndarray  # int64, rows + 1, byte offsets

    def __post_init__(self) -> None:
        empty = np.flatnonzero(np.diff(self.phrase_offsets) == 0)
        if len(empty):
            raise ValidationError(
                f"raw recipe {int(self.recipe_ids[empty[0]])} has no "
                "ingredient phrases"
            )

    @classmethod
    def from_columns(
        cls,
        recipe_ids: Sequence[int],
        phrase_rows: Sequence[Sequence[str]],
        regions: Sequence[str],
        titles: Sequence[str],
        sources: Sequence[str],
        instructions: Sequence[str],
    ) -> "RawRecipeTable":
        """A table from one value per recipe in each column."""
        phrase_offsets = np.zeros(len(phrase_rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in phrase_rows], out=phrase_offsets[1:])
        phrase_utf8, phrase_bounds = _pack(
            [phrase for row in phrase_rows for phrase in row]
        )
        instruction_utf8, instruction_bounds = _pack(instructions)
        region_table, region_idx = _encode(regions)
        title_table, title_idx = _encode(titles)
        source_table, source_idx = _encode(sources)
        return cls(
            recipe_ids=np.asarray(recipe_ids, dtype=np.int64).reshape(-1),
            phrase_offsets=phrase_offsets,
            phrase_utf8=phrase_utf8,
            phrase_bounds=phrase_bounds,
            region_idx=region_idx,
            regions=region_table,
            title_idx=title_idx,
            titles=title_table,
            source_idx=source_idx,
            sources=source_table,
            instruction_utf8=instruction_utf8,
            instruction_bounds=instruction_bounds,
        )

    @classmethod
    def from_recipes(cls, raws: Iterable[RawRecipe]) -> "RawRecipeTable":
        """A table of :class:`RawRecipe` objects, in their order."""
        raws = list(raws)
        return cls.from_columns(
            [raw.recipe_id for raw in raws],
            [raw.ingredient_phrases for raw in raws],
            [raw.region_code for raw in raws],
            [raw.title for raw in raws],
            [raw.source for raw in raws],
            [raw.instructions for raw in raws],
        )

    def __len__(self) -> int:
        return len(self.recipe_ids)

    def __getitem__(
        self, index: int | slice
    ) -> RawRecipe | tuple[RawRecipe, ...]:
        rows = range(len(self))[index]  # negative rows; IndexError past the end
        if isinstance(rows, range):
            return tuple(map(self.__getitem__, rows))
        start, stop = self.phrase_offsets[rows : rows + 2].tolist()
        return RawRecipe(
            recipe_id=int(self.recipe_ids[rows]),
            title=self.titles[self.title_idx[rows]],
            source=self.sources[self.source_idx[rows]],
            region_code=self.regions[self.region_idx[rows]],
            ingredient_phrases=tuple(
                _unpack(self.phrase_utf8, self.phrase_bounds[start : stop + 1])
            ),
            instructions=self._instruction(rows),
        )

    def __iter__(self) -> Iterator[RawRecipe]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RawRecipeTable):
            return NotImplemented
        return same_fields(self, other)

    def phrases(self) -> list[str]:
        """Every ingredient phrase, decoded, in phrase-axis order."""
        return _unpack(self.phrase_utf8, self.phrase_bounds)

    @property
    def instructions(self) -> Mapping[int, str]:
        """Recipe id -> instructions, each decoded on access."""
        return RowMapping(self.recipe_ids, self._instruction)

    def _instruction(self, row: int) -> str:
        bounds = self.instruction_bounds
        return self.instruction_utf8[bounds[row] : bounds[row + 1]].decode(
            "utf-8"
        )


class RowMapping(Mapping):
    """A read-only mapping from recipe id to a value of that recipe's
    row, each value built on access; ids iterate in row order."""

    __slots__ = ("_ids", "_value")

    def __init__(
        self, recipe_ids: np.ndarray, value: Callable[[int], Any]
    ) -> None:
        self._ids = recipe_ids
        self._value = value

    def __getitem__(self, recipe_id: int) -> Any:
        ids = self._ids
        if isinstance(recipe_id, (int, np.integer)):
            # One probe when ids ascend, as a generated corpus's do.
            row = int(np.searchsorted(ids, recipe_id))
            if row < len(ids) and ids[row] == recipe_id:
                return self._value(row)
            rows = np.flatnonzero(ids == recipe_id)
            if len(rows):
                return self._value(int(rows[0]))
        raise KeyError(recipe_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __len__(self) -> int:
        return len(self._ids)

    def items(self) -> ItemsView:
        """Pairs in row order, without a lookup per id."""
        return _RowItems(self)


class _RowItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, Any]]:
        mapping = self._mapping
        return zip(mapping, map(mapping._value, range(len(mapping))))


@dataclasses.dataclass(frozen=True, slots=True)
class Recipe:
    """A resolved recipe: an unordered set of canonical ingredient ids.

    The paper treats each recipe as an unordered list of ingredients for the
    purposes of food-pairing analysis (Section III.A). Duplicate mentions of
    an ingredient collapse to one.

    Attributes:
        recipe_id: stable id within the corpus (matches the raw recipe).
        region_code: geo-cultural region code.
        ingredient_ids: frozenset of canonical ingredient ids.
        title: recipe name (optional, for reporting).
        source: source site name (optional, for reporting).
    """

    recipe_id: int
    region_code: str
    ingredient_ids: frozenset[int]
    title: str = ""
    source: str = ""

    def __post_init__(self) -> None:
        if not self.ingredient_ids:
            raise ValidationError(f"recipe {self.recipe_id} has no ingredients")

    @property
    def size(self) -> int:
        """Recipe size ``n``: the number of distinct ingredients."""
        return len(self.ingredient_ids)

    @property
    def is_pairable(self) -> bool:
        """Whether the recipe has at least one ingredient pair."""
        return self.size >= MIN_PAIRABLE_RECIPE_SIZE


@dataclasses.dataclass(frozen=True, eq=False)
class RecipeTable:
    """Resolved recipes as columns: the paper's ``recipes`` /
    ``recipe_ingredients`` pair.

    Row ``r`` is recipe ``recipe_ids[r]``. Its ingredient ids are
    ``ingredient_ids[offsets[r]:offsets[r + 1]]`` (compressed sparse
    rows), listed in the order the recipe's resolved frozenset iterates,
    which is the order :attr:`Cuisine.ingredient_usage` has always first
    seen them in; a consumer that wants ascending ids sorts a row itself.
    Region, title and source are codes into sorted string tables.

    Iterating or indexing the table builds :class:`Recipe` objects on
    access, for the callers that still want objects; nothing on the
    serving or report paths does.
    """

    recipe_ids: np.ndarray  # int64, one per row
    offsets: np.ndarray  # int64, rows + 1
    ingredient_ids: np.ndarray  # int32, flat
    region_idx: np.ndarray  # int32 codes into ``regions``
    regions: tuple[str, ...]
    title_idx: np.ndarray  # int32 codes into ``titles``
    titles: tuple[str, ...]
    source_idx: np.ndarray  # int32 codes into ``sources``
    sources: tuple[str, ...]

    @classmethod
    def from_columns(
        cls,
        recipe_ids: Sequence[int],
        ingredient_rows: Sequence[Iterable[int]],
        regions: Sequence[str],
        titles: Sequence[str],
        sources: Sequence[str],
    ) -> "RecipeTable":
        """A table from one value per recipe in each column."""
        rows = [tuple(row) for row in ingredient_rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=offsets[1:])
        region_table, region_idx = _encode(regions)
        title_table, title_idx = _encode(titles)
        source_table, source_idx = _encode(sources)
        return cls(
            recipe_ids=np.asarray(recipe_ids, dtype=np.int64).reshape(-1),
            offsets=offsets,
            ingredient_ids=np.fromiter(
                (ingredient for row in rows for ingredient in row),
                dtype=np.int32,
                count=int(offsets[-1]),
            ),
            region_idx=region_idx,
            regions=region_table,
            title_idx=title_idx,
            titles=title_table,
            source_idx=source_idx,
            sources=source_table,
        )

    @classmethod
    def from_recipes(cls, recipes: Iterable[Recipe]) -> "RecipeTable":
        """A table of :class:`Recipe` objects, in their order."""
        recipes = list(recipes)
        return cls.from_columns(
            [recipe.recipe_id for recipe in recipes],
            [recipe.ingredient_ids for recipe in recipes],
            [recipe.region_code for recipe in recipes],
            [recipe.title for recipe in recipes],
            [recipe.source for recipe in recipes],
        )

    def __len__(self) -> int:
        return len(self.recipe_ids)

    def __getitem__(self, row: int) -> Recipe:
        row = range(len(self))[row]  # negative rows; IndexError past the end
        start, stop = self.offsets[row : row + 2].tolist()
        return Recipe(
            recipe_id=int(self.recipe_ids[row]),
            region_code=self.regions[self.region_idx[row]],
            ingredient_ids=frozenset(self.ingredient_ids[start:stop].tolist()),
            title=self.titles[self.title_idx[row]],
            source=self.sources[self.source_idx[row]],
        )

    def __iter__(self) -> Iterator[Recipe]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecipeTable):
            return NotImplemented
        return same_fields(self, other)

    def sizes(self) -> np.ndarray:
        """Recipe sizes ``n``, in row order."""
        return np.diff(self.offsets)

    def take(self, rows: np.ndarray) -> "RecipeTable":
        """The given rows, in the given order, as a table of their own
        (string tables shrink to the strings those rows use)."""
        rows = np.asarray(rows, dtype=np.int64)
        offsets, flat = take_rows(self.offsets, self.ingredient_ids, rows)
        regions, region_idx = _compact(self.regions, self.region_idx[rows])
        titles, title_idx = _compact(self.titles, self.title_idx[rows])
        sources, source_idx = _compact(self.sources, self.source_idx[rows])
        return RecipeTable(
            recipe_ids=self.recipe_ids[rows],
            offsets=offsets,
            ingredient_ids=flat,
            region_idx=region_idx,
            regions=regions,
            title_idx=title_idx,
            titles=titles,
            source_idx=source_idx,
            sources=sources,
        )

    def by_region(self) -> dict[str, "RecipeTable"]:
        """Region code -> that region's rows, in table order; codes sorted."""
        return {
            code: self.take(np.flatnonzero(self.region_idx == index))
            for index, code in enumerate(self.regions)
        }


def take_rows(
    offsets: np.ndarray, flat: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Compressed sparse rows ``rows`` of ``(offsets, flat)``, in order."""
    sizes = np.diff(offsets)[rows]
    taken = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=taken[1:])
    shift = np.repeat(offsets[:-1][rows] - taken[:-1], sizes)
    return taken, flat[shift + np.arange(taken[-1], dtype=np.int64)]


def recipe_table(recipes: RecipeTable | Iterable[Recipe]) -> RecipeTable:
    """``recipes`` as a :class:`RecipeTable` (a table passes through)."""
    if isinstance(recipes, RecipeTable):
        return recipes
    return RecipeTable.from_recipes(recipes)


def same_fields(left: Any, right: Any) -> bool:
    """Whether two dataclass values of one class hold equal fields,
    numpy arrays compared by value."""
    for field in dataclasses.fields(left):
        mine, theirs = getattr(left, field.name), getattr(right, field.name)
        if isinstance(mine, np.ndarray):
            if not np.array_equal(mine, theirs):
                return False
        elif mine != theirs:
            return False
    return True


def _pack(strings: Sequence[str]) -> tuple[bytes, np.ndarray]:
    """``strings`` as one UTF-8 buffer, and the byte offsets that
    delimit them (one more than there are strings)."""
    encoded = [string.encode("utf-8") for string in strings]
    bounds = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(item) for item in encoded], out=bounds[1:])
    return b"".join(encoded), bounds


def _unpack(buffer: bytes, bounds: np.ndarray) -> list[str]:
    """The strings between consecutive byte offsets of ``buffer``."""
    return [
        buffer[start:stop].decode("utf-8")
        for start, stop in itertools.pairwise(bounds.tolist())
    ]


def _encode(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """A sorted table of the distinct values, and each value's code."""
    table = tuple(sorted(set(values)))
    code = {value: index for index, value in enumerate(table)}
    return table, np.fromiter(
        (code[value] for value in values), dtype=np.int32, count=len(values)
    )


def _compact(
    table: tuple[str, ...], codes: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray]:
    """The strings ``codes`` use, still sorted, and codes into them."""
    used, inverse = np.unique(codes, return_inverse=True)
    return (
        tuple(table[index] for index in used.tolist()),
        inverse.astype(np.int32).reshape(-1),
    )


class Cuisine:
    """The recipes of one region, with their aggregate views.

    A :class:`Cuisine` holds its region's rows of a :class:`RecipeTable`
    and answers the aggregate quantities the analyses need from those
    arrays: the ingredient usage counter (popularity), the set of
    ingredients used, and the recipe-size distribution. Its recipes as
    :class:`Recipe` objects are built on access.
    """

    def __init__(
        self, region_code: str, recipes: RecipeTable | Iterable[Recipe]
    ) -> None:
        table = recipe_table(recipes)
        foreign = [
            index
            for index, code in enumerate(table.regions)
            if code != region_code
        ]
        if foreign:
            row = int(np.flatnonzero(np.isin(table.region_idx, foreign))[0])
            raise ValidationError(
                f"recipe {int(table.recipe_ids[row])} belongs to region "
                f"{table.regions[table.region_idx[row]]!r}, "
                f"not {region_code!r}"
            )
        self._region_code = region_code
        self._table = table
        # Usage in order of first use, as a Counter fed recipe by recipe
        # would hold it.
        ids, first, counts = np.unique(
            table.ingredient_ids, return_index=True, return_counts=True
        )
        order = np.argsort(first, kind="stable")
        self._usage_ids = ids[order].astype(np.int64)
        self._usage_counts = counts[order].astype(np.int64)

    @property
    def region_code(self) -> str:
        return self._region_code

    @property
    def table(self) -> RecipeTable:
        """The region's recipes as arrays."""
        return self._table

    @property
    def recipes(self) -> tuple[Recipe, ...]:
        """The region's recipes as objects, built on each access."""
        return tuple(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Recipe]:
        return iter(self._table)

    def __repr__(self) -> str:
        return (
            f"Cuisine({self._region_code!r}, {len(self._table)} recipes, "
            f"{len(self._usage_ids)} ingredients)"
        )

    def usage_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(ingredient ids in order of first use, recipes using each)."""
        return self._usage_ids, self._usage_counts

    @property
    def ingredient_usage(self) -> Counter[int]:
        """Counter mapping ingredient id -> number of recipes using it."""
        return Counter(
            dict(zip(self._usage_ids.tolist(), self._usage_counts.tolist()))
        )

    @property
    def ingredient_ids(self) -> frozenset[int]:
        """Set of unique ingredient ids used anywhere in the cuisine."""
        return frozenset(self._usage_ids.tolist())

    @property
    def recipe_sizes(self) -> tuple[int, ...]:
        """Sizes of all recipes, in recipe order."""
        return tuple(self._table.sizes().tolist())

    def mean_recipe_size(self) -> float:
        """Average number of ingredients per recipe."""
        sizes = self.recipe_sizes
        if not sizes:
            raise ValidationError(f"cuisine {self._region_code!r} is empty")
        return sum(sizes) / len(sizes)


def build_cuisines(
    recipes: RecipeTable | Iterable[Recipe],
) -> dict[str, Cuisine]:
    """Group recipes by region code into :class:`Cuisine` objects."""
    return {
        code: Cuisine(code, rows)
        for code, rows in recipe_table(recipes).by_region().items()
    }

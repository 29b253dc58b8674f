"""Synthetic corpus generation: the full 45,772-recipe CulinaryDB stand-in.

:class:`CorpusGenerator` orchestrates the substrate: for every region it
builds the pantry (:mod:`repro.corpus.pantry`), samples recipe sizes
(:mod:`repro.corpus.sizes`), assembles ingredient sets with the region's
flavor-affinity bias (:mod:`repro.corpus.assembler`), enforces Table 1's
exact unique-ingredient counts, renders noisy raw phrases
(:mod:`repro.corpus.renderer`), and attributes recipes to the paper's four
sources with their exact published totals. Each region's phrases and
title draws come from one walk over its render stream
(:meth:`~repro.corpus.PhraseRenderer.render_lines`), which gives the
values a numpy ``Generator`` on the same PCG64 stream would; a region
with a draw numpy would reject is rendered line by line on that
``Generator`` instead.

The generator writes the corpus as columns
(:class:`~repro.datamodel.RawRecipeTable`) and keeps no per-recipe object:
each region's phrases and instructions are packed into one UTF-8 chunk
each as soon as they exist, and its intended ingredient ids into one
int32 array, so no corpus-wide list of phrase strings is ever built.
Everything is deterministic given ``seed``; the default seed is the one
all experiments and benchmarks use. Generation runs in the calling
process (``--workers`` fans out Monte Carlo sampling only), so the
pickled corpus artifact is byte-identical at any worker count.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping

import numpy as np

from ..aliasing import AliasingPipeline
from ..datamodel import ConfigurationError, RawRecipeTable, RowMapping
from ..datamodel.entities import _encode, same_fields
from ..flavordb import IngredientCatalog, default_catalog, stable_seed
from ..obs import span
from .assembler import RecipeAssembler
from .pantry import RegionPantry, build_pantry
from .profiles import (
    REGION_GENERATOR_PROFILES,
    WORLD_ONLY_PROFILES,
    RegionGeneratorProfile,
)
from .renderer import PhraseRenderer
from .sizes import sample_recipe_sizes

#: Seed used by all experiments unless overridden.
DEFAULT_SEED = 20180417

#: The paper's source totals (Section III.A). TarlaDalal recipes belong to
#: the Indian Subcontinent; the other three sources split the rest.
SOURCE_TOTALS = {
    "AllRecipes": 16177,
    "Food Network": 15917,
    "Epicurious": 11069,
    "TarlaDalal": 2609,
}

_GENERAL_SOURCES = ("AllRecipes", "Food Network", "Epicurious")

_DISH_TYPES = (
    "stew", "salad", "soup", "roast", "curry", "bake", "stir fry",
    "pie", "braise", "bowl", "skillet", "casserole", "gratin", "fritters",
)

_REGION_ADJECTIVES = {
    "AFR": "African", "ANZ": "Aussie", "BRI": "British", "CAN": "Canadian",
    "CBN": "Caribbean", "CHN": "Chinese", "DACH": "Alpine",
    "EE": "Eastern European", "FRA": "French", "GRC": "Greek",
    "INSC": "Indian", "ITA": "Italian", "JPN": "Japanese", "KOR": "Korean",
    "MEX": "Mexican", "ME": "Levantine", "SCND": "Nordic",
    "SAM": "South American", "SEA": "Southeast Asian", "ESP": "Spanish",
    "THA": "Thai", "USA": "American", "Portugal": "Portuguese",
    "Belgium": "Belgian", "Central America": "Central American",
    "Netherlands": "Dutch",
}


@dataclasses.dataclass(frozen=True, eq=False)
class GeneratedCorpus:
    """Everything one generation run produces: the ``corpus`` stage's
    artifact; ``==`` compares values.

    Attributes:
        raw_recipes: the noisy scraped-style records as a
            :class:`~repro.datamodel.RawRecipeTable`, id order; iterating
            or indexing it builds :class:`~repro.datamodel.RawRecipe`
            objects on access.
        intended_ids: int32, the canonical ingredient id each phrase was
            rendered from, aligned with the table's phrase axis (the
            generator renders one phrase per intended ingredient).
        pantries: region code -> the pantry used.
        seed: generation seed.
    """

    raw_recipes: RawRecipeTable
    intended_ids: np.ndarray
    pantries: dict[str, RegionPantry]
    seed: int

    def __post_init__(self) -> None:
        if len(self.intended_ids) != len(self.raw_recipes.phrase_bounds) - 1:
            raise ConfigurationError(
                "intended ingredient ids misaligned with the phrase axis"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratedCorpus):
            return NotImplemented
        return same_fields(self, other)

    @property
    def intended_ingredients(self) -> Mapping[int, frozenset[int]]:
        """Recipe id -> the exact canonical ingredient ids its phrases
        were rendered from (ground truth for aliasing fidelity checks),
        a read-only mapping whose sets are built on access."""
        offsets = self.raw_recipes.phrase_offsets
        return RowMapping(
            self.raw_recipes.recipe_ids,
            lambda row: frozenset(
                self.intended_ids[offsets[row] : offsets[row + 1]].tolist()
            ),
        )

    def region_codes(self) -> tuple[str, ...]:
        return tuple(self.pantries)


@dataclasses.dataclass
class _Columns:
    """The corpus columns as the generator appends them, region by
    region: one entry per recipe for the string columns, and per region
    a UTF-8 chunk with its items' byte lengths for the packed ones.
    Sources are known up front."""

    regions: list[str] = dataclasses.field(default_factory=list)
    titles: list[str] = dataclasses.field(default_factory=list)
    recipe_sizes: list[np.ndarray] = dataclasses.field(default_factory=list)
    phrase_utf8: list[bytes] = dataclasses.field(default_factory=list)
    phrase_lengths: list[np.ndarray] = dataclasses.field(
        default_factory=list
    )
    instruction_utf8: list[bytes] = dataclasses.field(default_factory=list)
    instruction_lengths: list[np.ndarray] = dataclasses.field(
        default_factory=list
    )
    intended: list[np.ndarray] = dataclasses.field(default_factory=list)


class CorpusGenerator:
    """Deterministic generator for the synthetic recipe corpus."""

    def __init__(
        self,
        catalog: IngredientCatalog | None = None,
        seed: int = DEFAULT_SEED,
        include_world_only: bool = True,
        recipe_scale: float = 1.0,
    ) -> None:
        """
        Args:
            catalog: ingredient catalog (defaults to the shared one).
            seed: generation seed; all randomness derives from it.
            include_world_only: also generate the 207 recipes from the four
                WORLD-only mini-regions.
            recipe_scale: multiply per-region recipe counts (tests use
                small scales). Pantry sizes are preserved, so scales below
                ~0.05 are clamped per region to keep every pantry
                ingredient reachable.
        """
        if recipe_scale <= 0:
            raise ConfigurationError("recipe_scale must be positive")
        self._catalog = catalog if catalog is not None else default_catalog()
        self._pipeline = AliasingPipeline(self._catalog)
        self._renderer = PhraseRenderer(self._pipeline)
        self._seed = seed
        self._include_world_only = include_world_only
        self._recipe_scale = recipe_scale

    @property
    def catalog(self) -> IngredientCatalog:
        return self._catalog

    def profiles(self) -> tuple[RegionGeneratorProfile, ...]:
        """Profiles this generator will realise, region order."""
        profiles = tuple(REGION_GENERATOR_PROFILES.values())
        if self._include_world_only:
            profiles += WORLD_ONLY_PROFILES
        return profiles

    def generate(self) -> GeneratedCorpus:
        """Generate the full corpus, one region after another.

        Recipe ids run from 1 in profile order, and every RNG stream is
        keyed by region code, so the corpus depends only on ``seed``,
        ``recipe_scale`` and ``include_world_only``.
        """
        with span(
            "corpus.generate", seed=self._seed, scale=self._recipe_scale
        ) as trace:
            profiles = self.profiles()
            # Counts involve no sampling, so every recipe's source is
            # known before any region is drawn.
            labels = self._source_labels(
                [
                    (profile.code, self._region_recipe_count(profile))
                    for profile in profiles
                ]
            )
            columns = _Columns()
            pantries: dict[str, RegionPantry] = {}
            for profile in profiles:
                pantries[profile.code] = self._generate_region(
                    profile, columns
                )
            region_table, region_idx = _encode(columns.regions)
            title_table, title_idx = _encode(columns.titles)
            source_table, source_idx = _encode(labels)
            raw_recipes = RawRecipeTable(
                recipe_ids=np.arange(1, len(labels) + 1, dtype=np.int64),
                phrase_offsets=_bounds(columns.recipe_sizes),
                phrase_utf8=_join(columns.phrase_utf8),
                phrase_bounds=_bounds(columns.phrase_lengths),
                region_idx=region_idx,
                regions=region_table,
                title_idx=title_idx,
                titles=title_table,
                source_idx=source_idx,
                sources=source_table,
                instruction_utf8=_join(columns.instruction_utf8),
                instruction_bounds=_bounds(columns.instruction_lengths),
            )
            trace.incr("recipes", len(raw_recipes))
            trace.incr("regions", len(pantries))
            return GeneratedCorpus(
                raw_recipes=raw_recipes,
                intended_ids=np.concatenate(columns.intended),
                pantries=pantries,
                seed=self._seed,
            )

    def _generate_region(
        self, profile: RegionGeneratorProfile, columns: _Columns
    ) -> RegionPantry:
        """Assemble and render one region, appending its recipes."""
        code = profile.code
        with span("corpus.region", region=code) as trace:
            pantry = build_pantry(profile, self._catalog)
            recipes = self._assemble_region(profile, pantry)
            seed = stable_seed("render", code, str(self._seed))
            lines = self._renderer.render_lines(
                pantry.ingredients, recipes, seed, len(_DISH_TYPES)
            )
            if lines is None:  # a draw numpy would redraw: go line by line
                utf8, lengths, titles = self._render_region(
                    code, pantry, recipes, seed
                )
            else:
                utf8, lengths = lines.utf8, lines.lengths
                titles = self._titles(code, pantry, recipes, lines.title_draws)
            flat = np.concatenate(recipes)
            columns.regions.extend([code] * len(recipes))
            columns.titles.extend(titles)
            columns.recipe_sizes.append(
                np.fromiter(map(len, recipes), np.int64, len(recipes))
            )
            columns.phrase_utf8.append(utf8)
            columns.phrase_lengths.append(lengths)
            instructions = [
                self._instructions(
                    [pantry.ingredients[i] for i in indices[:3].tolist()]
                ).encode("utf-8")
                for indices in recipes
            ]
            columns.instruction_utf8.append(b"".join(instructions))
            columns.instruction_lengths.append(
                np.fromiter(map(len, instructions), np.int64, len(recipes))
            )
            columns.intended.append(
                pantry.ingredient_ids()[flat].astype(np.int32)
            )
            trace.incr("phrases", len(flat))
            trace.incr("recipes", len(recipes))
            return pantry

    def _render_region(
        self,
        code: str,
        pantry: RegionPantry,
        recipes: list[np.ndarray],
        seed: int,
    ) -> tuple[bytes, np.ndarray, list[str]]:
        """A region's lines (one UTF-8 chunk and each line's byte length)
        and titles, drawn one by one from ``Generator(PCG64(seed))``: the
        fallback for a region whose walk met a draw numpy would redraw."""
        rng = np.random.Generator(np.random.PCG64(seed))
        encoded, titles = [], []
        for indices in recipes:
            ingredients = [pantry.ingredients[i] for i in indices.tolist()]
            encoded.extend(
                self._renderer.render(ingredient, rng).encode("utf-8")
                for ingredient in ingredients
            )
            titles.append(self._title(code, ingredients[0].name, rng))
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
        return b"".join(encoded), lengths, titles

    def _titles(
        self,
        code: str,
        pantry: RegionPantry,
        recipes: list[np.ndarray],
        draws: np.ndarray,
    ) -> list[str]:
        """Each recipe's title from its dish draw; each distinct (main
        ingredient, dish) title is rendered once."""
        mains = np.fromiter(
            (indices[0] for indices in recipes), np.int64, len(recipes)
        )
        keys, inverse = np.unique(
            mains * len(_DISH_TYPES) + draws, return_inverse=True
        )
        distinct = [
            _title_text(
                code,
                pantry.ingredients[key // len(_DISH_TYPES)].name,
                _DISH_TYPES[key % len(_DISH_TYPES)],
            )
            for key in keys.tolist()
        ]
        return [distinct[index] for index in inverse.tolist()]

    # ------------------------------------------------------------------
    # per-region assembly
    # ------------------------------------------------------------------
    def _region_recipe_count(self, profile: RegionGeneratorProfile) -> int:
        scaled = int(round(profile.recipe_count * self._recipe_scale))
        # Keep enough recipes that every pantry ingredient can appear.
        minimum = math.ceil(
            profile.ingredient_count / max(profile.mean_recipe_size - 2, 1)
        )
        return max(scaled, minimum, 10)

    def _assemble_region(
        self, profile: RegionGeneratorProfile, pantry: RegionPantry
    ) -> list[np.ndarray]:
        rng = np.random.Generator(
            np.random.PCG64(
                stable_seed("assemble", profile.code, str(self._seed))
            )
        )
        count = self._region_recipe_count(profile)
        sizes = sample_recipe_sizes(rng, count, profile.mean_recipe_size)
        recipes = RecipeAssembler(pantry, self._catalog).assemble_many(
            rng, sizes
        )
        self._enforce_coverage(recipes, pantry, rng)
        return recipes

    def _enforce_coverage(
        self,
        recipes: list[np.ndarray],
        pantry: RegionPantry,
        rng: np.random.Generator,
    ) -> None:
        """Guarantee every pantry ingredient is used at least once.

        Table 1's unique-ingredient counts are exact, so rare pantry tail
        ingredients that random assembly missed are swapped into recipes,
        replacing an ingredient that occurs at least twice corpus-wide.
        """
        usage = np.bincount(
            np.concatenate(recipes), minlength=pantry.size
        ).tolist()
        unused = [
            index for index in range(pantry.size) if usage[index] == 0
        ]
        if not unused:
            return
        order = rng.permutation(len(recipes))
        cursor = 0
        for missing in unused:
            placed = False
            for _attempt in range(len(recipes)):
                recipe = recipes[order[cursor % len(recipes)]]
                cursor += 1
                members = set(int(i) for i in recipe)
                if missing in members:
                    continue
                replaceable = [
                    slot
                    for slot, index in enumerate(recipe)
                    if usage[int(index)] >= 2
                ]
                if not replaceable:
                    continue
                # Replace the most-used member: losing one occurrence of a
                # very popular ingredient distorts the popularity and
                # pairing structure the least.
                slot = max(
                    replaceable, key=lambda s: usage[int(recipe[s])]
                )
                usage[int(recipe[slot])] -= 1
                recipe[slot] = missing
                usage[missing] += 1
                placed = True
                break
            if not placed:
                raise ConfigurationError(
                    f"could not place pantry ingredient index {missing} for "
                    f"region {pantry.profile.code}; corpus too small"
                )

    # ------------------------------------------------------------------
    # sources, titles, instructions
    # ------------------------------------------------------------------
    def _source_labels(
        self, region_counts: list[tuple[str, int]]
    ) -> list[str]:
        """Assign a source to every recipe, in global recipe order.

        TarlaDalal's quota goes to Indian Subcontinent recipes first; the
        three general sources split everything else proportionally to
        their published totals, deterministically.
        """
        total = sum(count for _code, count in region_counts)
        scale = total / sum(SOURCE_TOTALS.values())
        tarladalal_quota = int(round(SOURCE_TOTALS["TarlaDalal"] * scale))
        labels: list[str] = []
        general_weights = [SOURCE_TOTALS[name] for name in _GENERAL_SOURCES]
        shares = [weight / sum(general_weights) for weight in general_weights]
        assigned = [0] * len(_GENERAL_SOURCES)
        general_total = 0
        for code, count in region_counts:
            for _ in range(count):
                if code == "INSC" and tarladalal_quota > 0:
                    labels.append("TarlaDalal")
                    tarladalal_quota -= 1
                    continue
                general_total += 1
                # Largest-deficit assignment keeps realised counts within
                # one recipe of the target proportions; max() keeps the
                # first of equal deficits.
                pick = max(
                    range(len(shares)),
                    key=lambda i: shares[i] * general_total - assigned[i],
                )
                assigned[pick] += 1
                labels.append(_GENERAL_SOURCES[pick])
        return labels

    def _title(
        self, code: str, main_ingredient: str, rng: np.random.Generator
    ) -> str:
        """A recipe title (the table stores each distinct one once)."""
        dish = _DISH_TYPES[int(rng.integers(len(_DISH_TYPES)))]
        return _title_text(code, main_ingredient, dish)

    def _instructions(self, ingredients) -> str:
        head = ", ".join(
            ingredient.name for ingredient in ingredients[:3]
        )
        return (
            f"Prepare the {head}. Combine all ingredients and cook until "
            "done. Season, rest briefly and serve."
        )


def _title_text(code: str, main_ingredient: str, dish: str) -> str:
    """A recipe title: region adjective, main ingredient, dish."""
    adjective = _REGION_ADJECTIVES.get(code, code.title())
    return f"{adjective} {main_ingredient} {dish}".title()


def _join(chunks: list[bytes]) -> bytes:
    """The chunks as one buffer. The list is emptied, so one column's
    chunks are freed before the next column is joined."""
    joined = b"".join(chunks)
    chunks.clear()
    return joined


def _bounds(lengths: list[np.ndarray]) -> np.ndarray:
    """int64 offsets delimiting consecutive items of these lengths."""
    lengths = np.concatenate(lengths)
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return bounds


def generate_default_corpus(
    seed: int = DEFAULT_SEED, recipe_scale: float = 1.0
) -> GeneratedCorpus:
    """Convenience wrapper: generate with default catalog and options."""
    return CorpusGenerator(seed=seed, recipe_scale=recipe_scale).generate()

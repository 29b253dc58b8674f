"""Synthetic corpus generation: the full 45,772-recipe CulinaryDB stand-in.

:class:`CorpusGenerator` orchestrates the substrate: for every region it
builds the pantry (:mod:`repro.corpus.pantry`), samples recipe sizes
(:mod:`repro.corpus.sizes`), assembles ingredient sets with the region's
flavor-affinity bias (:mod:`repro.corpus.assembler`), enforces Table 1's
exact unique-ingredient counts, renders noisy raw phrases
(:mod:`repro.corpus.renderer`), and attributes recipes to the paper's four
sources with their exact published totals. Phrases and titles draw from
a per-region :class:`~repro.corpus.draws.DrawStream`, which gives the
values a numpy ``Generator`` on the same PCG64 stream would.

The generator writes the corpus as columns
(:class:`~repro.datamodel.RawRecipeTable`) and keeps no per-recipe object.
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
from ..datamodel.entities import same_fields
from ..flavordb import IngredientCatalog, default_catalog, stable_seed
from ..obs import span
from .assembler import RecipeAssembler
from .draws import DrawStream
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
    """The corpus columns as the generator appends them, recipe by
    recipe; sources are known up front."""

    regions: list[str] = dataclasses.field(default_factory=list)
    titles: list[str] = dataclasses.field(default_factory=list)
    phrase_rows: list[tuple[str, ...]] = dataclasses.field(
        default_factory=list
    )
    instructions: list[str] = dataclasses.field(default_factory=list)
    intended: list[int] = dataclasses.field(default_factory=list)


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
            raw_recipes = RawRecipeTable.from_columns(
                recipe_ids=range(1, len(labels) + 1),
                phrase_rows=columns.phrase_rows,
                regions=columns.regions,
                titles=columns.titles,
                sources=labels,
                instructions=columns.instructions,
            )
            trace.incr("recipes", len(raw_recipes))
            trace.incr("regions", len(pantries))
            return GeneratedCorpus(
                raw_recipes=raw_recipes,
                intended_ids=np.asarray(columns.intended, dtype=np.int32),
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
            render_rng = DrawStream(
                np.random.PCG64(stable_seed("render", code, str(self._seed)))
            )
            for indices in recipes:
                ingredients = [pantry.ingredients[int(i)] for i in indices]
                columns.phrase_rows.append(
                    tuple(
                        self._renderer.render(ingredient, render_rng)
                        for ingredient in ingredients
                    )
                )
                columns.titles.append(
                    self._title(code, ingredients[0].name, render_rng)
                )
                columns.instructions.append(self._instructions(ingredients))
                columns.intended.extend(
                    ingredient.ingredient_id for ingredient in ingredients
                )
                trace.incr("phrases", len(ingredients))
            columns.regions.extend([code] * len(recipes))
            trace.incr("recipes", len(recipes))
            return pantry

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
        recipes = RecipeAssembler(pantry).assemble_many(rng, sizes)
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
        self,
        code: str,
        main_ingredient: str,
        rng: np.random.Generator | DrawStream,
    ) -> str:
        """A recipe title (the table stores each distinct one once)."""
        dish = _DISH_TYPES[int(rng.integers(len(_DISH_TYPES)))]
        adjective = _REGION_ADJECTIVES.get(code, code.title())
        return f"{adjective} {main_ingredient} {dish}".title()

    def _instructions(self, ingredients) -> str:
        head = ", ".join(
            ingredient.name for ingredient in ingredients[:3]
        )
        return (
            f"Prepare the {head}. Combine all ingredients and cook until "
            "done. Season, rest briefly and serve."
        )


def generate_default_corpus(
    seed: int = DEFAULT_SEED, recipe_scale: float = 1.0
) -> GeneratedCorpus:
    """Convenience wrapper: generate with default catalog and options."""
    return CorpusGenerator(seed=seed, recipe_scale=recipe_scale).generate()

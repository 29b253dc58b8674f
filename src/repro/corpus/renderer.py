"""Raw-phrase rendering: canonical ingredients -> noisy ingredient lines.

The corpus generator must exercise the aliasing pipeline the way scraped
recipes would, so every ingredient is rendered into a realistic free-text
line: quantities (including fractions), units, container words,
preparation descriptors, plural forms and spelling-variant synonyms
("2 tablespoons whisky", "1 (14 ounce) can diced tomatoes, drained").

Fidelity contract: every rendered phrase must alias back to exactly the
ingredient it was rendered from. The renderer guarantees this by
validating each candidate surface form (canonical name, synonyms, plural)
through the actual :class:`~repro.aliasing.AliasingPipeline` once, and
only decorating with vocabulary the normaliser is known to strip.

A line takes six to seven scalar draws. The generator passes a
:class:`~repro.corpus.draws.DrawStream`, which decodes them in bulk from
the region's PCG64 words; a numpy ``Generator`` over the same bit
generator gives the same lines, one numpy call per draw.
"""

from __future__ import annotations

import numpy as np

from ..aliasing import AliasingPipeline, MatchKind
from ..datamodel import Ingredient
from .draws import DrawStream

#: Quantity spellings, mixed numbers and vulgar fractions included.
QUANTITIES: tuple[str, ...] = (
    "1", "2", "3", "4", "5", "6", "8", "12",
    "1/2", "1/3", "1/4", "2/3", "3/4",
    "1 1/2", "2 1/2", "½", "¼", "¾",
)

#: Units paired with quantities ("2 cups ...").
UNIT_WORDS: tuple[str, ...] = (
    "cup", "cups", "tablespoon", "tablespoons", "tbsp", "teaspoon",
    "teaspoons", "tsp", "ounce", "ounces", "oz", "pound", "pounds", "lb",
    "g", "kg", "ml",
)

#: Container words ("1 can ...", "2 bunches ..."); all in MEASURE_WORDS.
CONTAINER_WORDS: tuple[str, ...] = (
    "can", "jar", "package", "bunch", "sprig", "piece", "slice", "bag",
)

#: Trailing preparation descriptors; every token is a culinary stopword.
DESCRIPTORS: tuple[str, ...] = (
    "chopped", "diced", "minced", "thinly sliced", "finely chopped",
    "roughly chopped", "drained", "melted", "softened", "roasted and slit",
    "peeled and diced", "trimmed", "grated", "crushed", "seeded and minced",
    "to taste", "at room temperature", "cut into cubes", "well washed",
)

#: Leading descriptors ("fresh basil leaves" style, minus the plural).
LEADING_DESCRIPTORS: tuple[str, ...] = ("fresh", "freshly grated", "cold", "")


class PhraseRenderer:
    """Renders validated noisy ingredient phrases."""

    def __init__(self, pipeline: AliasingPipeline) -> None:
        self._pipeline = pipeline
        self._surface_cache: dict[int, tuple[str, ...]] = {}

    def surface_forms(self, ingredient: Ingredient) -> tuple[str, ...]:
        """All validated surface forms for an ingredient.

        Candidates are the canonical name, each synonym, and the naive
        plural of each; a candidate survives only if the aliasing pipeline
        resolves it exactly back to this ingredient.
        """
        cached = self._surface_cache.get(ingredient.ingredient_id)
        if cached is not None:
            return cached
        candidates = [ingredient.name]
        candidates.extend(ingredient.synonyms)
        candidates.extend(
            pluralize(candidate) for candidate in list(candidates)
        )
        validated = []
        seen: set[str] = set()
        for candidate in candidates:
            if candidate in seen:
                continue
            seen.add(candidate)
            resolution = self._pipeline.resolve_phrase(candidate)
            if (
                resolution.kind is MatchKind.EXACT
                and len(resolution.ingredients) == 1
                and resolution.ingredients[0].ingredient_id
                == ingredient.ingredient_id
            ):
                validated.append(candidate)
        forms = tuple(validated) if validated else (ingredient.name,)
        self._surface_cache[ingredient.ingredient_id] = forms
        return forms

    def render(
        self, ingredient: Ingredient, rng: np.random.Generator | DrawStream
    ) -> str:
        """Render one noisy ingredient line.

        ``rng`` is a numpy ``Generator`` or a :class:`DrawStream` over the
        same bit generator; both give the same line.
        """
        forms = self.surface_forms(ingredient)
        surface = forms[int(rng.integers(len(forms)))]
        style = rng.random()
        if style < 0.10:  # bare mention: "salt to taste"
            if rng.random() < 0.5:
                return f"{surface} to taste"
            return surface
        quantity = QUANTITIES[int(rng.integers(len(QUANTITIES)))]
        if style < 0.20:  # canned/packaged form
            container = CONTAINER_WORDS[int(rng.integers(len(CONTAINER_WORDS)))]
            inner = QUANTITIES[int(rng.integers(len(QUANTITIES)))]
            return f"{quantity} ({inner} ounce) {container} {surface}"
        parts = [quantity]
        if rng.random() < 0.75:
            parts.append(UNIT_WORDS[int(rng.integers(len(UNIT_WORDS)))])
        leading = LEADING_DESCRIPTORS[
            int(rng.integers(len(LEADING_DESCRIPTORS)))
        ]
        if leading:
            parts.append(leading)
        parts.append(surface)
        phrase = " ".join(parts)
        if rng.random() < 0.55:
            descriptor = DESCRIPTORS[int(rng.integers(len(DESCRIPTORS)))]
            phrase = f"{phrase}, {descriptor}"
        return phrase


def pluralize(name: str) -> str:
    """Naive plural of an ingredient name (last word only).

    Invalid plurals are filtered out by surface-form validation, so the
    rule only needs to be right for the common cases.
    """
    words = name.split(" ")
    last = words[-1]
    if last.endswith(("s", "x", "z", "ch", "sh")):
        plural = last + "es"
    elif last.endswith("y") and len(last) > 1 and last[-2] not in "aeiou":
        plural = last[:-1] + "ies"
    elif last.endswith("o") and len(last) > 2 and last[-2] not in "aeiou":
        plural = last + "es"
    else:
        plural = last + "s"
    return " ".join(words[:-1] + [plural])

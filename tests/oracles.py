"""Readable reference implementations that the fast paths are tested against.

Each oracle is the specification its production counterpart optimises,
written the plain way. They live here, not in ``src/``, because no
production path selects them; more than one test module checks against
each of them.

* :class:`NGramMatcher` — the paper's greedy longest-first n-gram probe,
  the spec of :class:`repro.aliasing.TrieMatcher`.
* :func:`naive_sample_model_scores` — one ``rng.choice`` loop per random
  recipe, the spec of the Gumbel top-k sampler
  :func:`repro.pairing.sample_model_scores`.
* :func:`whole_phrase_clean`, :func:`whole_phrase_tokenize` and
  :func:`whole_phrase_normalize` — each pass over the whole phrase at
  once, the spec of the per-chunk :func:`repro.aliasing.basic_clean`,
  :func:`repro.aliasing.tokenize` and
  :func:`repro.aliasing.normalize_phrase`.
* :func:`per_row_build_culinarydb` — one ``Table.insert`` per row, the
  spec of the column-loading :func:`repro.culinarydb.build_culinarydb`;
  :func:`table_state` is what a column-loaded table must match.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Callable, Sequence

import numpy as np

from repro.aliasing import (
    CONTEXTUAL_MEASURES,
    MAX_NGRAM,
    MatchOutcome,
    TokenMatch,
    singularize,
)
from repro.aliasing.normalize import (
    _CLEAN_RE,
    _CONTEXTUAL,
    _DROP,
    _FUSED_QUANTITY_RE,
    _TRANSLATE_TABLE,
    _classify,
)
from repro.culinarydb import create_culinarydb_schema
from repro.datamodel import (
    RECIPE_SOURCES,
    REGIONS,
    WORLD_ONLY_REGION_NAMES,
    Ingredient,
)
from repro.pairing import CuisineView, NullModel


class NGramMatcher:
    """Greedy longest-first n-gram matching by probing a resolver.

    At each position, try the ``max_ngram``-token candidate first, then
    shorter ones, and take the first surface ``resolve`` knows; if none
    resolves, the token is a leftover and the scan advances one. It keeps
    no state, so a name the resolver learns is matched from then on.
    """

    def __init__(
        self,
        resolve: Callable[[str], Ingredient | None],
        max_ngram: int = MAX_NGRAM,
    ) -> None:
        self._resolve = resolve
        self._max_ngram = max_ngram

    def match(self, tokens: Sequence[str]) -> MatchOutcome:
        matches: list[TokenMatch] = []
        leftovers: list[str] = []
        position = 0
        count = len(tokens)
        while position < count:
            longest = min(self._max_ngram, count - position)
            for length in range(longest, 0, -1):
                surface = " ".join(tokens[position : position + length])
                ingredient = self._resolve(surface)
                if ingredient is not None:
                    matches.append(
                        TokenMatch(position, length, surface, ingredient)
                    )
                    position += length
                    break
            else:
                leftovers.append(tokens[position])
                position += 1
        return MatchOutcome(tuple(matches), tuple(leftovers))


def naive_sample_model_scores(
    view: CuisineView,
    model: NullModel,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """N_s of ``n_samples`` random recipes, drawn one by one.

    Draws from the same distributions as
    :func:`repro.pairing.sample_model_scores` (not the same stream): a
    uniformly chosen template recipe fixes the size, or the category
    composition, and ``rng.choice`` without replacement fills it.
    """
    sizes = view.recipe_sizes()
    pools = view.category_pools()
    scores = np.empty(n_samples, dtype=np.float64)
    frequencies = view.frequencies
    for sample in range(n_samples):
        template = int(rng.integers(0, view.recipe_count))
        if model.preserves_category:
            picks: list[int] = []
            counts: dict[str, int] = {}
            for local in view.recipes[template]:
                category = view.categories[int(local)]
                counts[category] = counts.get(category, 0) + 1
            for category in sorted(counts):
                pool = pools[category]
                weights = None
                if model.preserves_frequency:
                    weights = frequencies[pool] / frequencies[pool].sum()
                chosen = rng.choice(
                    pool, size=counts[category], replace=False, p=weights
                )
                picks.extend(int(c) for c in chosen)
            indices = np.asarray(picks)
        else:
            weights = None
            if model.preserves_frequency:
                weights = frequencies / frequencies.sum()
            indices = rng.choice(
                view.ingredient_count,
                size=int(sizes[template]),
                replace=False,
                p=weights,
            )
        n = len(indices)
        block = view.overlap[np.ix_(indices, indices)]
        scores[sample] = block.sum() / (n * (n - 1))
    return scores


def whole_phrase_clean(phrase: str) -> str:
    """Lower-case, fold to ASCII, then clean the whole phrase in one go."""
    text = phrase.lower()
    if not text.isascii():
        text = text.translate(_TRANSLATE_TABLE)
        if not text.isascii():
            text = unicodedata.normalize("NFKD", text)
            if not text.isascii():
                text = "".join(
                    char for char in text if not unicodedata.combining(char)
                )
    text = _CLEAN_RE.sub(" ", text)
    text = _FUSED_QUANTITY_RE.sub(r"\1 \2", text)
    return " ".join(text.split())


def whole_phrase_tokenize(phrase: str) -> list[str]:
    cleaned = whole_phrase_clean(phrase)
    if not cleaned:
        return []
    return cleaned.split(" ")


def whole_phrase_normalize(phrase: str) -> list[str]:
    """Singularise every token, then drop and apply the contextual-measure
    rule over the whole phrase's token list."""
    singular = [singularize(token) for token in whole_phrase_tokenize(phrase)]
    content: list[str] = []
    for position, token in enumerate(singular):
        verdict = _classify(token)
        if verdict == _DROP:
            continue
        following = next(
            (t for t in singular[position + 1 :] if _classify(t) != _DROP),
            None,
        )
        if verdict == _CONTEXTUAL and following in CONTEXTUAL_MEASURES[token]:
            continue
        content.append(token)
    return content


def per_row_build_culinarydb(recipes, catalog, raw_recipes=None, name="culinarydb"):
    """CulinaryDB built with one ``Table.insert`` per row, in table order."""
    db = create_culinarydb_schema(name)
    regions_table = db.table("regions")
    for region in REGIONS:
        regions_table.insert(
            {
                "code": region.code,
                "name": region.name,
                "pairing": region.pairing.value,
                "is_aggregate_only": False,
            }
        )
    for region_name in WORLD_ONLY_REGION_NAMES:
        regions_table.insert(
            {
                "code": region_name,
                "name": region_name,
                "pairing": None,
                "is_aggregate_only": True,
            }
        )
    for source_name, total in RECIPE_SOURCES.items():
        db.table("sources").insert(
            {"name": source_name, "published_total": total}
        )
    for category_name in sorted(
        {ingredient.category.value for ingredient in catalog.ingredients}
    ):
        db.table("categories").insert({"name": category_name})
    db.table("molecules").bulk_insert(
        {
            "molecule_id": molecule.molecule_id,
            "name": molecule.name,
            "flavor_family": molecule.flavor_family,
        }
        for molecule in catalog.molecules
    )
    link_rows = []
    synonym_rows = []
    for ingredient in catalog.ingredients:
        db.table("ingredients").insert(
            {
                "ingredient_id": ingredient.ingredient_id,
                "name": ingredient.name,
                "category": ingredient.category.value,
                "is_compound": ingredient.is_compound,
                "profile_size": len(ingredient.flavor_profile),
            }
        )
        for molecule_id in sorted(ingredient.flavor_profile):
            link_rows.append(
                {
                    "link_id": len(link_rows) + 1,
                    "ingredient_id": ingredient.ingredient_id,
                    "molecule_id": molecule_id,
                }
            )
        for synonym in ingredient.synonyms:
            synonym_rows.append(
                {"synonym": synonym, "ingredient_id": ingredient.ingredient_id}
            )
    db.table("ingredient_molecules").bulk_insert(link_rows)
    db.table("ingredient_synonyms").bulk_insert(synonym_rows)
    raw_by_id = {raw.recipe_id: raw for raw in raw_recipes or ()}
    recipe_links = []
    for recipe in recipes:
        raw = raw_by_id.get(recipe.recipe_id)
        source = raw.source if raw is not None else recipe.source
        db.table("recipes").insert(
            {
                "recipe_id": recipe.recipe_id,
                "title": raw.title if raw is not None else recipe.title,
                "source": source if source in RECIPE_SOURCES else None,
                "region_code": recipe.region_code,
                "n_ingredients": recipe.size,
                "instructions": raw.instructions if raw is not None else None,
            }
        )
        for ingredient_id in sorted(recipe.ingredient_ids):
            recipe_links.append(
                {
                    "link_id": len(recipe_links) + 1,
                    "recipe_id": recipe.recipe_id,
                    "ingredient_id": ingredient_id,
                }
            )
    db.table("recipe_ingredients").bulk_insert(recipe_links)
    return db


def table_state(table) -> dict:
    """Everything a column load must reproduce of a per-row built table:
    the cells in row order with their exact types, the live flags, and
    every unique and secondary index."""
    return {
        "names": list(table._columns),
        "columns": table._columns,
        "types": {
            name: [type(value) for value in values]
            for name, values in table._columns.items()
        },
        "live": (table._live, table._live_count),
        "unique": table._unique_indexes,
        "secondary": table._secondary_indexes,
    }

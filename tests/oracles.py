"""Readable reference implementations that the fast paths are tested against.

Each oracle is the specification its production counterpart optimises,
written the plain way. They live here, not in ``src/``, because no
production path selects them; more than one test module checks against
each of them.

* :class:`NGramMatcher` — the paper's greedy longest-first n-gram probe,
  the spec of :class:`repro.aliasing.TrieMatcher`.
* :func:`naive_sample_model_scores` — one ``rng.choice`` loop per random
  recipe, the spec of the Gumbel top-k sampler
  :func:`repro.pairing.sample_model_recipes`.
* :func:`one_shot_gumbel_top_m` — every Gumbel key of a draw at once, the
  spec of the row-blocked ``repro.pairing.models._gumbel_top_m``, which
  must return the same picks and leave the generator in the same state.
* :func:`loop_chi_values` — one (ingredient, recipe) removal at a time,
  the spec of the array sweep :func:`repro.pairing.chi_values`, which
  must equal it bit for bit.
* :func:`whole_phrase_clean`, :func:`whole_phrase_tokenize` and
  :func:`whole_phrase_normalize` — each pass over the whole phrase at
  once, the spec of the per-chunk :func:`repro.aliasing.basic_clean`,
  :func:`repro.aliasing.tokenize` and
  :func:`repro.aliasing.normalize_phrase`.
* :func:`per_row_build_culinarydb` — one ``Table.insert`` per row, the
  spec of the column-loading :func:`repro.culinarydb.build_culinarydb`;
  :func:`table_state` is what a column-loaded table must match.
* :func:`scan_similar`, :func:`scan_complete` and
  :func:`scan_nearest_cuisines` — one pass over every pairable
  ingredient or every cuisine, the specs of the indexed
  :func:`repro.retrieval.similar_ingredients`,
  :func:`repro.retrieval.complete_recipe` and
  :func:`repro.retrieval.nearest_cuisines`.
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
from repro.analysis.authenticity import cuisine_similarity
from repro.culinarydb import create_culinarydb_schema
from repro.datamodel import (
    RECIPE_SOURCES,
    REGIONS,
    WORLD_ONLY_REGION_NAMES,
    Ingredient,
)
from repro.pairing import CuisineView, NullModel, scores_from_view
from repro.retrieval import (
    SIMILARITY_DECIMALS,
    Completion,
    CuisineMatch,
    SimilarMatch,
)


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
    :func:`repro.pairing.sample_model_recipes` (not the same stream): a
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


def one_shot_gumbel_top_m(
    log_weights: np.ndarray, k: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``m`` of ``P`` items without replacement, ``k`` times.

    All ``k * P`` Gumbel keys are drawn in one call, and the top ``m``
    keys of each row are its picks (``log_weights`` is a ``(1, P)``
    row). When every item is picked the keys are still drawn, so the
    generator advances as it would for any ``m``.
    """
    pool_size = log_weights.shape[1]
    noise = rng.gumbel(size=(k, pool_size))
    keys = log_weights + noise
    if m == pool_size:
        return np.tile(np.arange(pool_size), (k, 1))
    return np.argpartition(keys, -m, axis=1)[:, -m:]


def loop_chi_values(view: CuisineView) -> np.ndarray:
    """``chi_i`` per local ingredient, one (ingredient, recipe) pair at a time.

    For each ingredient, walk the recipes containing it in index order:
    take the recipe's score out of the running sum and, unless the recipe
    drops below two ingredients, put its score without the ingredient
    back in.
    """
    base_scores = scores_from_view(view)
    base_mean = float(base_scores.mean())

    # Per recipe: pair sum and size, for O(n) removal updates.
    pair_sums = np.empty(view.recipe_count, dtype=np.float64)
    for index, recipe in enumerate(view.recipes):
        n = len(recipe)
        pair_sums[index] = base_scores[index] * (n * (n - 1))  # = 2*sum_pairs

    # score_sum / count over all recipes, updated per removal candidate.
    total_score = float(base_scores.sum())
    recipe_total = view.recipe_count

    # For each ingredient, which recipes contain it.
    containing: dict[int, list[int]] = {}
    for recipe_index, recipe in enumerate(view.recipes):
        for local in recipe:
            containing.setdefault(int(local), []).append(recipe_index)

    chi = np.zeros(view.ingredient_count, dtype=np.float64)
    for local in range(view.ingredient_count):
        recipes_with = containing.get(local, [])
        score_sum = total_score
        count = recipe_total
        for recipe_index in recipes_with:
            recipe = view.recipes[recipe_index]
            n = len(recipe)
            old_score = base_scores[recipe_index]
            score_sum -= old_score
            count -= 1
            if n <= 2:
                continue  # recipe drops below pairability
            others = recipe[recipe != local]
            removed_pairs = 2.0 * float(view.overlap[local, others].sum())
            new_sum = pair_sums[recipe_index] - removed_pairs
            new_score = new_sum / ((n - 1) * (n - 2))
            score_sum += new_score
            count += 1
        if count == 0 or base_mean == 0.0:
            chi[local] = 0.0
        else:
            chi[local] = 100.0 * (score_sum / count - base_mean) / base_mean
    return chi


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


def per_row_build_culinarydb(
    recipes, catalog, instructions=None, name="culinarydb"
):
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
    instructions = instructions if instructions is not None else {}
    recipe_links = []
    for recipe in recipes:
        db.table("recipes").insert(
            {
                "recipe_id": recipe.recipe_id,
                "title": recipe.title,
                "source": (
                    recipe.source if recipe.source in RECIPE_SOURCES else None
                ),
                "region_code": recipe.region_code,
                "n_ingredients": recipe.size,
                "instructions": instructions.get(recipe.recipe_id),
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
    every declared unique and secondary index, materialised (an unbuilt
    index is built here, as its first read would build it)."""
    return {
        "names": list(table._columns),
        "columns": table._columns,
        "types": {
            name: [type(value) for value in values]
            for name, values in table._columns.items()
        },
        "live": (table._live, table._live_count),
        "unique": {name: table._index(name) for name in table._unique_indexes},
        "secondary": {
            name: table._index(name) for name in table._secondary_indexes
        },
    }


def scan_similar(catalog, ingredient, k) -> list[SimilarMatch]:
    """The ``k`` pairable ingredients sharing the most molecules with
    ``ingredient``, ranked by ``(-shared, name)``; zero overlaps dropped."""
    scored = sorted(
        (-ingredient.shared_molecules(other), other.name, other)
        for other in catalog.pairable_ingredients()
        if other.ingredient_id != ingredient.ingredient_id
    )
    return [
        SimilarMatch(other.ingredient_id, other.name, -negated)
        for negated, _name, other in scored[:k]
        if negated < 0
    ]


def scan_complete(catalog, partial, k) -> list[Completion]:
    """The ``k`` best completions of ``partial``: every pairable
    ingredient outside it, ranked by ``(-molecules shared with its
    pairable members, name)``, scored as the completed recipe's N_s."""
    members = [item for item in partial if item.has_flavor_profile]
    exclude = {item.ingredient_id for item in partial}
    n = len(members)
    base_pairs = sum(
        left.shared_molecules(right)
        for i, left in enumerate(members)
        for right in members[i + 1 :]
    )
    base = 2.0 * base_pairs / (n * (n - 1)) if n >= 2 else 0.0
    scored = sorted(
        (
            -sum(candidate.shared_molecules(member) for member in members),
            candidate.name,
            candidate,
        )
        for candidate in catalog.pairable_ingredients()
        if candidate.ingredient_id not in exclude
    )
    completions = []
    for negated, _name, candidate in scored[:k]:
        if negated == 0:
            break
        score = 2.0 * (base_pairs - negated) / ((n + 1) * n)
        completions.append(
            Completion(
                candidate.ingredient_id,
                candidate.name,
                -negated,
                score,
                score - base,
            )
        )
    return completions


def scan_nearest_cuisines(cuisines, target_code, k) -> list[CuisineMatch]:
    """The ``k`` cuisines most similar to ``target_code`` by per-pair
    prevalence cosine, rounded to ``SIMILARITY_DECIMALS`` places, ties
    broken by region code."""
    target = cuisines[target_code]
    ranked = sorted(
        (
            -round(cuisine_similarity(target, cuisine), SIMILARITY_DECIMALS),
            code,
        )
        for code, cuisine in cuisines.items()
        if code != target_code
    )
    return [CuisineMatch(code, -negated) for negated, code in ranked[:k]]

"""Top-k retrieval kernels: similar ingredients, completions, cuisines.

Every kernel walks the precomputed
:class:`~repro.retrieval.index.RetrievalIndex` structures, which the
``retrieval_index`` engine stage builds once per corpus. The one live
brute-force path is :func:`similar_ingredients` asked for more partners
than a neighbor list holds (:data:`NEIGHBOR_LIST_LIMIT`): it scans the
catalog so the answer stays exact. The plain scans each kernel must
match are the test oracles in ``tests/oracles.py``.

Ties are broken deterministically everywhere: equal overlap counts order
by ascending ingredient name, equal cuisine similarities (after rounding
to :data:`SIMILARITY_DECIMALS` places) by ascending region code.

Every query is traced (``retrieval.*`` spans) and counted:
``repro_retrieval_hit_total{kind}`` for indexed answers,
``repro_retrieval_fallback_total{kind}`` for brute-force ones, and the
``repro_retrieval_latency_ms{kind,path}`` histogram.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

import numpy as np

from ..datamodel import (
    ConfigurationError,
    Ingredient,
    LookupFailure,
    ValidationError,
)
from ..flavordb import IngredientCatalog
from ..obs import get_registry, span
from .index import NEIGHBOR_LIST_LIMIT, RetrievalIndex

__all__ = [
    "DEFAULT_TOPK",
    "MAX_TOPK",
    "SIMILARITY_DECIMALS",
    "Completion",
    "CuisineMatch",
    "SimilarMatch",
    "complete_recipe",
    "nearest_cuisines",
    "similar_ingredients",
]

#: Default / maximum k served by the endpoints and CLI (the same cap as
#: ``/pairings``' partner limit).
DEFAULT_TOPK = 10
MAX_TOPK = 50

#: Cuisine similarities are rounded to this many decimals before ranking,
#: so the matrix product and a per-pair cosine — equal up to float
#: round-off — always rank identically.
SIMILARITY_DECIMALS = 9


@dataclasses.dataclass(frozen=True)
class SimilarMatch:
    """One similar-ingredient result row."""

    ingredient_id: int
    name: str
    shared_molecules: int


@dataclasses.dataclass(frozen=True)
class Completion:
    """One recipe-completion candidate.

    Attributes:
        shared_total: molecules the candidate shares with the partial
            recipe, summed over its pairable members.
        score: projected N_s of the partial recipe plus this candidate.
        delta: ``score`` minus the partial's own N_s (0.0 base when the
            partial has fewer than two pairable members).
    """

    ingredient_id: int
    name: str
    shared_total: int
    score: float
    delta: float


@dataclasses.dataclass(frozen=True)
class CuisineMatch:
    """One nearest-cuisine result row (cosine similarity, 0..1)."""

    region_code: str
    similarity: float


def _require_k(k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")


def _observe(kind: str, path: str, started: float) -> None:
    registry = get_registry()
    if path == "indexed":
        registry.counter("repro_retrieval_hit_total", kind=kind).incr()
    else:
        registry.counter("repro_retrieval_fallback_total", kind=kind).incr()
    registry.histogram(
        "repro_retrieval_latency_ms", kind=kind, path=path
    ).observe((time.perf_counter() - started) * 1000.0)


# ---------------------------------------------------------------------------
# similar ingredients
# ---------------------------------------------------------------------------
def similar_ingredients(
    index: RetrievalIndex,
    catalog: IngredientCatalog,
    ingredient: Ingredient | str,
    k: int = DEFAULT_TOPK,
) -> list[SimilarMatch]:
    """Top-k flavor-sharing partners of one ingredient.

    Partners with zero shared molecules never appear. The answer is an
    array slice of the precomputed neighbor list; asking for more than
    :data:`NEIGHBOR_LIST_LIMIT` partners scans the catalog instead, so
    the answer stays exact.

    Raises:
        ConfigurationError: for a non-positive ``k``.
        ValidationError: when the ingredient has no flavor profile.
    """
    _require_k(k)
    if isinstance(ingredient, str):
        ingredient = catalog.get(ingredient)
    if not ingredient.has_flavor_profile:
        raise ValidationError(
            f"{ingredient.name!r} has no flavor profile to pair on"
        )
    fallback = k > NEIGHBOR_LIST_LIMIT
    started = time.perf_counter()
    with span("retrieval.similar", k=k):
        if fallback:
            matches = _similar_reference(catalog, ingredient, k)
        else:
            matches = _similar_indexed(index, ingredient, k)
    _observe("similar", "reference" if fallback else "indexed", started)
    return matches


def _similar_indexed(
    index: RetrievalIndex, ingredient: Ingredient, k: int
) -> list[SimilarMatch]:
    row = index.row_by_id[ingredient.ingredient_id]
    partner_rows = index.neighbor_rows[row][:k]
    partner_shared = index.neighbor_shared[row][:k]
    matches: list[SimilarMatch] = []
    for partner, shared in zip(partner_rows, partner_shared):
        if partner < 0:
            break
        matches.append(
            SimilarMatch(
                ingredient_id=int(index.ingredient_ids[partner]),
                name=index.names[partner],
                shared_molecules=int(shared),
            )
        )
    return matches


def _similar_reference(
    catalog: IngredientCatalog, ingredient: Ingredient, k: int
) -> list[SimilarMatch]:
    scored = sorted(
        (
            (ingredient.shared_molecules(other), other)
            for other in catalog.pairable_ingredients()
            if other.ingredient_id != ingredient.ingredient_id
        ),
        key=lambda pair: (-pair[0], pair[1].name),
    )
    return [
        SimilarMatch(
            ingredient_id=other.ingredient_id,
            name=other.name,
            shared_molecules=shared,
        )
        for shared, other in scored[:k]
        if shared > 0
    ]


# ---------------------------------------------------------------------------
# recipe completion
# ---------------------------------------------------------------------------
def complete_recipe(
    index: RetrievalIndex,
    partial: Sequence[Ingredient],
    k: int = DEFAULT_TOPK,
) -> list[Completion]:
    """Best pairing completions for a partial recipe.

    Candidates are every pairable catalog ingredient outside the partial
    that shares at least one molecule with it, ranked by total shared
    molecules (equivalently, by the projected N_s of the completed
    recipe — the two orders coincide because the recipe size is fixed
    within one query). The per-candidate totals are gathered by walking
    the molecule postings of the partial's profiles.

    Raises:
        ConfigurationError: for a non-positive ``k``.
        ValidationError: when no partial member has a flavor profile.
    """
    _require_k(k)
    members = [item for item in partial if item.has_flavor_profile]
    if not members:
        raise ValidationError(
            "recipe completion needs at least one ingredient "
            "with a flavor profile"
        )
    exclude = {item.ingredient_id for item in partial}
    base_pairs = _pair_sum(members)
    started = time.perf_counter()
    with span("retrieval.complete", partial=len(members), k=k):
        completions = _complete_indexed(
            index, members, exclude, base_pairs, k
        )
    _observe("complete", "indexed", started)
    return completions


def _pair_sum(members: Sequence[Ingredient]) -> int:
    """Sum of pairwise shared-molecule counts inside the partial."""
    total = 0
    for i, left in enumerate(members):
        for right in members[i + 1 :]:
            total += left.shared_molecules(right)
    return total


def _completion_scores(
    shared_total: int, base_pairs: int, n: int
) -> tuple[float, float]:
    """(projected N_s, delta vs the partial's own N_s)."""
    score = 2.0 * (base_pairs + shared_total) / ((n + 1) * n)
    base = 2.0 * base_pairs / (n * (n - 1)) if n >= 2 else 0.0
    return score, score - base


def _complete_indexed(
    index: RetrievalIndex,
    members: Sequence[Ingredient],
    exclude: set[int],
    base_pairs: int,
    k: int,
) -> list[Completion]:
    accumulated = np.zeros(index.size, dtype=np.int64)
    postings = index.molecule_postings
    for member in members:
        for molecule in member.flavor_profile:
            rows = postings.get(molecule)
            if rows is not None:
                accumulated[rows] += 1
    candidates = np.flatnonzero(accumulated > 0)
    if len(exclude):
        keep = [
            row
            for row in candidates
            if int(index.ingredient_ids[row]) not in exclude
        ]
        candidates = np.asarray(keep, dtype=np.int64)
    if not len(candidates):
        return []
    order = np.lexsort(
        (index.name_rank[candidates], -accumulated[candidates])
    )
    n = len(members)
    completions: list[Completion] = []
    for row in candidates[order[:k]]:
        shared_total = int(accumulated[row])
        score, delta = _completion_scores(shared_total, base_pairs, n)
        completions.append(
            Completion(
                ingredient_id=int(index.ingredient_ids[row]),
                name=index.names[int(row)],
                shared_total=shared_total,
                score=score,
                delta=delta,
            )
        )
    return completions


# ---------------------------------------------------------------------------
# nearest cuisines
# ---------------------------------------------------------------------------
def nearest_cuisines(
    index: RetrievalIndex,
    target_code: str,
    k: int = DEFAULT_TOPK,
) -> list[CuisineMatch]:
    """The cuisines closest to a target by ingredient-prevalence cosine.

    One matrix-vector product over the precomputed prevalence vectors;
    similarities are rounded to :data:`SIMILARITY_DECIMALS` places before
    ranking.

    Raises:
        ConfigurationError: for a non-positive ``k``.
        LookupFailure: for a region code outside the index.
    """
    _require_k(k)
    if target_code not in index.cuisine_row:
        known = ", ".join(index.cuisine_codes)
        raise LookupFailure(
            f"unknown cuisine {target_code!r} (known: {known})"
        )
    started = time.perf_counter()
    with span("retrieval.nearest_cuisines", k=k):
        row = index.cuisine_row[target_code]
        values = index.cuisine_vectors @ index.cuisine_vectors[row]
        rounded = [
            (round(float(value), SIMILARITY_DECIMALS), code)
            for code, value in zip(index.cuisine_codes, values)
            if code != target_code
        ]
        rounded.sort(key=lambda pair: (-pair[0], pair[1]))
        matches = [
            CuisineMatch(region_code=code, similarity=value)
            for value, code in rounded[:k]
        ]
    _observe("nearest_cuisines", "indexed", started)
    return matches

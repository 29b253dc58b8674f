"""The food-pairing score N_s (Section IV.B of the paper).

For a recipe R with n ingredients and flavor profiles F_i::

    N_s(R) = (2 / (n * (n - 1))) * sum_{i < j} |F_i ∩ F_j|

i.e. the mean number of flavor molecules shared by an ingredient pair of
the recipe. A cuisine's food pairing is the average of N_s over its
recipes. Three implementations are provided:

* :func:`food_pairing_score` — set-based, straight off the ingredient
  objects; the readable reference implementation.
* :func:`recipe_score_from_matrix` — one recipe against a cuisine overlap
  matrix; the recipe designer and tweak search score candidates with it.
* :func:`scores_from_view` / :func:`batch_scores` — matrix-based and
  grouped by recipe size, used by the analyses and null models
  (``test_bench_matrix_backend`` measures it against the set-based path).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..datamodel import Ingredient, ValidationError
from .views import CuisineView


def food_pairing_score(ingredients: Sequence[Ingredient]) -> float:
    """N_s of a recipe given its ingredient objects.

    Ingredients without flavor profiles are excluded first; the score is
    over the remaining pairable ingredients.

    Raises:
        ValidationError: when fewer than two pairable ingredients remain.
    """
    pairable = [
        ingredient for ingredient in ingredients if ingredient.has_flavor_profile
    ]
    n = len(pairable)
    if n < 2:
        raise ValidationError(
            "food pairing needs at least two ingredients with flavor profiles"
        )
    shared = 0
    for i in range(n):
        profile_i = pairable[i].flavor_profile
        for j in range(i + 1, n):
            shared += len(profile_i & pairable[j].flavor_profile)
    return 2.0 * shared / (n * (n - 1))


def recipe_score_from_matrix(
    overlap: np.ndarray, indices: np.ndarray
) -> float:
    """N_s of one recipe given a cuisine overlap matrix and local indices."""
    n = len(indices)
    if n < 2:
        raise ValidationError("recipe has fewer than two pairable ingredients")
    block = overlap[np.ix_(indices, indices)]
    return float(block.sum()) / (n * (n - 1))


def scores_for_recipes(
    overlap: np.ndarray, recipes: Sequence[np.ndarray]
) -> np.ndarray:
    """N_s for a ragged batch of recipes, grouped by size.

    Recipes of equal size are stacked and scored in one
    :func:`batch_scores` call instead of one ``np.ix_`` gather each;
    tests check it against :func:`recipe_score_from_matrix` per recipe.
    """
    sizes = np.asarray([len(recipe) for recipe in recipes], dtype=np.int64)
    return _scores_by_size(
        overlap,
        sizes,
        lambda rows, _size: np.stack(
            [recipes[row] for row in rows.tolist()]
        ),
    )


def scores_from_view(view: CuisineView) -> np.ndarray:
    """N_s for every recipe of a cuisine view (vectorised by size group)."""
    return _scores_by_size(
        view.overlap, view.recipe_sizes(), view.recipe_batch
    )


def _scores_by_size(
    overlap: np.ndarray,
    sizes: np.ndarray,
    batch_of: Callable[[np.ndarray, int], np.ndarray],
) -> np.ndarray:
    """Scores in recipe order; ``batch_of(rows, size)`` stacks a group."""
    scores = np.empty(len(sizes), dtype=np.float64)
    for size in np.unique(sizes).tolist():
        if size < 2:
            raise ValidationError(
                "recipe has fewer than two pairable ingredients"
            )
        rows = np.flatnonzero(sizes == size)
        scores[rows] = batch_scores(overlap, batch_of(rows, size))
    return scores


def cuisine_mean_score(view: CuisineView) -> float:
    """The cuisine's average flavor sharing <N_s> (Section IV.B).

    A per-view constant, computed once and cached on the view.
    """
    return view.mean_score()


#: Element budget for one gathered ``(rows, n, n)`` overlap block inside
#: :func:`batch_scores` and :func:`member_pair_sums`; a block holds the
#: overlap's dtype, so 4 MiB for a view's uint8 counts (32 MiB for a
#: float64 matrix).
BATCH_BLOCK_ELEMENTS = 1 << 22


def batch_scores(
    overlap: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """N_s for a batch of same-size recipes.

    The ``(k, n, n)`` gather is accumulated in fixed-size row chunks —
    never more than :data:`BATCH_BLOCK_ELEMENTS` elements at once — so
    an 8192-recipe sampling chunk of 60-ingredient recipes gathers 4 Mi
    elements at a time (4 MiB of uint8 counts), not all 29.5 M.
    Chunking only splits the batch axis, so the per-recipe sums (and
    therefore the scores) are unchanged. Integer counts sum exactly in
    numpy's 64-bit accumulator, and float64 counts sum exactly too while
    the sums stay below 2**53, so either dtype gives the same bits.

    Args:
        overlap: cuisine overlap matrix.
        batch: ``(k, n)`` array of local indices, one recipe per row.

    Returns:
        ``(k,)`` array of scores.
    """
    k, n = batch.shape
    if n < 2:
        raise ValidationError("batch recipes need at least two ingredients")
    sums = np.empty(k, dtype=np.float64)
    rows_per_chunk = max(1, BATCH_BLOCK_ELEMENTS // (n * n))
    for start in range(0, k, rows_per_chunk):
        stop = min(start + rows_per_chunk, k)
        chunk = batch[start:stop]
        blocks = overlap[chunk[:, :, None], chunk[:, None, :]]
        sums[start:stop] = blocks.sum(axis=(1, 2))
    return sums / (n * (n - 1))


def member_pair_sums(overlap: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Per member of each same-size recipe: its overlap with the others.

    Gathered in the same row chunks as :func:`batch_scores`. The overlap
    diagonal is zero, so a member's own entry adds nothing.

    Args:
        overlap: cuisine overlap matrix.
        batch: ``(k, n)`` array of local indices, one recipe per row.

    Returns:
        ``(k, n)`` array of sums.
    """
    k, n = batch.shape
    sums = np.empty((k, n), dtype=np.float64)
    rows_per_chunk = max(1, BATCH_BLOCK_ELEMENTS // (n * n))
    for start in range(0, k, rows_per_chunk):
        stop = min(start + rows_per_chunk, k)
        chunk = batch[start:stop]
        blocks = overlap[chunk[:, :, None], chunk[:, None, :]]
        sums[start:stop] = blocks.sum(axis=2)
    return sums

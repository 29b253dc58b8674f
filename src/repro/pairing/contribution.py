"""Ingredient contribution to a cuisine's food pairing (Section IV.C).

The contribution ``chi_i`` of ingredient ``i`` is the percentage change of
the cuisine's mean pairing score when ``i`` is removed from the cuisine::

    chi_i = 100 * (<N_s>_without_i - <N_s>) / <N_s>

Removing an ingredient shrinks every recipe containing it (recipes left
with fewer than two pairable ingredients drop out of the average). For a
cuisine following uniform pairing, the *most positive-contributing*
ingredients are those whose removal lowers the mean score most
(``chi_i`` strongly negative); Fig 5 reports the top three per cuisine.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .score import member_pair_sums, scores_from_view
from .views import CuisineView


@dataclasses.dataclass(frozen=True, slots=True)
class IngredientContribution:
    """Contribution of one ingredient to its cuisine's pairing score."""

    ingredient_name: str
    local_index: int
    usage: int
    chi_percent: float  # percentage change of <N_s> upon removal


def chi_values(view: CuisineView) -> np.ndarray:
    """``chi_i`` per local ingredient index — the numeric core.

    Touches only the view's numeric arrays;
    :func:`ingredient_contributions` attaches the names.

    Complexity: every (recipe, member) removal is scored with array
    operations, one recipe-size group at a time, in O(sum of n**2) over
    the recipes. Removed pair sums add up integer overlap counts, so they
    are exact in any order. Only each ingredient's running sum keeps a
    loop order: take out a recipe's old score, put in its new one, over
    the recipes in index order. That loop runs once per *rank*, the k-th
    recipe of every ingredient at once, so it makes as many passes as the
    most used ingredient has recipes. ``tests.oracles.loop_chi_values``
    walks the pairs one at a time, and every chi equals it bit for bit.
    """
    base_scores = scores_from_view(view)
    base_mean = float(base_scores.mean())
    members, recipes, new_scores = _removal_scores(view, base_scores)

    # Each ingredient's pairs in recipe index order, and their ranks.
    order = np.lexsort((recipes, members))
    members, recipes, new_scores = (
        members[order], recipes[order], new_scores[order]
    )
    uses = np.bincount(members, minlength=view.ingredient_count)
    rank = np.arange(len(members)) - (np.cumsum(uses) - uses)[members]

    # Slot ingredients by falling use: rank r then covers the first
    # widths[r] slots, so each pass updates one contiguous slice.
    by_use = np.argsort(-uses, kind="stable")
    slot = np.empty_like(by_use)
    slot[by_use] = np.arange(len(by_use))
    layout = np.argsort(rank * view.ingredient_count + slot[members])
    old_scores = base_scores[recipes[layout]]
    new_scores = new_scores[layout]
    widths = np.bincount(rank)

    sums = np.full(view.ingredient_count, float(base_scores.sum()))
    start = 0
    for width in widths.tolist():
        stop = start + width
        sums[:width] -= old_scores[start:stop]
        sums[:width] += new_scores[start:stop]
        start = stop
    score_sum = sums[slot]

    # A recipe of two drops out of the mean when a member goes.
    dropped = view.recipe_sizes()[recipes] == 2
    count = view.recipe_count - np.bincount(
        members[dropped], minlength=view.ingredient_count
    )
    chi = np.zeros(view.ingredient_count, dtype=np.float64)
    if base_mean != 0.0:
        kept = count > 0
        chi[kept] = (
            100.0 * (score_sum[kept] / count[kept] - base_mean) / base_mean
        )
    return chi


def _removal_scores(
    view: CuisineView, base_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (recipe, member) pair: member, recipe index, and the recipe's
    score without that member.

    A recipe of two has no score left, so its pairs carry ``+0.0``. Adding
    that leaves a running sum unchanged unless the sum is ``-0.0``, and it
    never is: it starts as a sum of non-negative scores, and ``x + y`` or
    ``x - y`` rounds to ``-0.0`` only when ``x`` already is ``-0.0``.
    """
    sizes = view.recipe_sizes()
    members, recipes, scores = [], [], []
    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        batch = view.recipe_batch(rows, size)
        members.append(batch.ravel())
        recipes.append(np.repeat(rows, size))
        if size == 2:
            scores.append(np.zeros(batch.size, dtype=np.float64))
            continue
        pair_sums = base_scores[rows] * (size * (size - 1))
        removed = 2.0 * member_pair_sums(view.overlap, batch)
        new_sums = pair_sums[:, None] - removed
        scores.append((new_sums / ((size - 1) * (size - 2))).ravel())
    return (
        np.concatenate(members),
        np.concatenate(recipes),
        np.concatenate(scores),
    )


def ingredient_contributions(view: CuisineView) -> list[IngredientContribution]:
    """``chi_i`` for every ingredient of the cuisine, most used first."""
    chi = chi_values(view)
    ingredients = view.ingredients
    results = [
        IngredientContribution(
            ingredient_name=ingredients[local].name,
            local_index=local,
            usage=int(view.frequencies[local]),
            chi_percent=float(chi[local]),
        )
        for local in range(view.ingredient_count)
    ]
    results.sort(key=lambda item: item.usage, reverse=True)
    return results


def top_contributors(
    view: CuisineView,
    count: int = 3,
    positive_pairing: bool = True,
) -> list[IngredientContribution]:
    """The ``count`` ingredients contributing most to the pairing pattern.

    For a uniform (positive) cuisine, the top contributors are those whose
    removal *decreases* the mean score the most (most negative ``chi``);
    for a contrasting cuisine, those whose removal *increases* it the most.
    """
    ordered = sorted(
        ingredient_contributions(view),
        key=lambda item: item.chi_percent,
        reverse=not positive_pairing,
    )
    return ordered[:count]

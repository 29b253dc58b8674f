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

from .score import scores_from_view
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

    Touches only the view's numeric arrays (never ingredient objects), so
    it runs unchanged on a shared-memory kernel view inside a worker
    process; the fig5 sweep fans one call per region across the pool and
    re-attaches names in the parent.

    Complexity is O(total pair updates): per recipe, removing member ``i``
    reuses the recipe's pair-sum, so the full sweep costs about as much as
    scoring the cuisine once per average recipe size.
    """
    base_scores = scores_from_view(view)
    base_mean = float(base_scores.mean())

    # Per recipe: pair sum and size, for O(n) removal updates.
    pair_sums = np.empty(view.recipe_count, dtype=np.float64)
    sizes = view.recipe_sizes()
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


def contributions_from_chi(
    view: CuisineView, chi: np.ndarray
) -> list[IngredientContribution]:
    """Attach names/usage to a chi vector, most used first.

    ``view`` must be a full view (with ingredient objects); ``chi`` may
    come from :func:`chi_values` run anywhere — including a worker that
    only ever saw the kernel view.
    """
    results = [
        IngredientContribution(
            ingredient_name=view.ingredients[local].name,
            local_index=local,
            usage=int(view.frequencies[local]),
            chi_percent=float(chi[local]),
        )
        for local in range(view.ingredient_count)
    ]
    results.sort(key=lambda item: item.usage, reverse=True)
    return results


def ingredient_contributions(view: CuisineView) -> list[IngredientContribution]:
    """``chi_i`` for every ingredient of the cuisine, most used first."""
    return contributions_from_chi(view, chi_values(view))


def top_contributors(
    view: CuisineView,
    count: int = 3,
    positive_pairing: bool = True,
    contributions: list[IngredientContribution] | None = None,
) -> list[IngredientContribution]:
    """The ``count`` ingredients contributing most to the pairing pattern.

    For a uniform (positive) cuisine, the top contributors are those whose
    removal *decreases* the mean score the most (most negative ``chi``);
    for a contrasting cuisine, those whose removal *increases* it the most.
    Pass precomputed ``contributions`` (e.g. from the parallel sweep) to
    skip the leave-one-out recomputation.
    """
    if contributions is None:
        contributions = ingredient_contributions(view)
    ordered = sorted(
        contributions,
        key=lambda item: item.chi_percent,
        reverse=not positive_pairing,
    )
    return ordered[:count]

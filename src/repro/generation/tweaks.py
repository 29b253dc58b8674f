"""Targeted recipe alterations ("tweaking recipes", per the abstract).

Given an existing recipe and its cuisine, propose minimal edits —
single-ingredient swaps or additions — that move the recipe's pairing
score toward the cuisine's characteristic value while respecting
popularity (no swaps to pantry-tail oddities unless asked).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..datamodel import ConfigurationError
from ..pairing.score import recipe_score_from_matrix, scores_from_view
from ..pairing.views import CuisineView


@dataclasses.dataclass(frozen=True)
class SwapSuggestion:
    """One proposed single-ingredient swap.

    Attributes:
        remove_name / add_name: the swap, by ingredient name.
        old_score / new_score: recipe N_s before and after.
        style_gain: reduction of the distance to the cuisine's mean N_s
            (positive = the swap moves the recipe toward the cuisine
            style).
    """

    remove_name: str
    add_name: str
    old_score: float
    new_score: float
    style_gain: float


class RecipeTweaker:
    """Suggests style-improving swaps for recipes of one cuisine."""

    def __init__(self, view: CuisineView, popular_pool: int = 120) -> None:
        """
        Args:
            view: the cuisine's numeric view.
            popular_pool: how many of the most-used ingredients are
                eligible as replacements (keeps suggestions cookable).
        """
        if popular_pool < 2:
            raise ConfigurationError("popular_pool must be at least 2")
        self._view = view
        scores = scores_from_view(view)
        self._target = float(scores.mean())
        order = np.argsort(view.frequencies)[::-1]
        self._candidates = order[: min(popular_pool, len(order))]

    @property
    def target_score(self) -> float:
        return self._target

    def suggest_swaps(
        self, recipe: np.ndarray, top: int = 3
    ) -> list[SwapSuggestion]:
        """Rank single swaps by how much they close the style gap.

        Args:
            recipe: local-index array (at least two ingredients).
            top: number of suggestions to return.
        """
        if len(recipe) < 2:
            raise ConfigurationError("recipe needs at least two ingredients")
        view = self._view
        old_score = recipe_score_from_matrix(view.overlap, recipe)
        old_gap = abs(old_score - self._target)
        members = set(int(index) for index in recipe)
        ingredients = view.ingredients
        suggestions: list[SwapSuggestion] = []
        for position, member in enumerate(recipe):
            for candidate in self._candidates:
                candidate = int(candidate)
                if candidate in members:
                    continue
                trial = recipe.copy()
                trial[position] = candidate
                new_score = recipe_score_from_matrix(view.overlap, trial)
                gain = old_gap - abs(new_score - self._target)
                if gain <= 0:
                    continue
                suggestions.append(
                    SwapSuggestion(
                        remove_name=ingredients[int(member)].name,
                        add_name=ingredients[candidate].name,
                        old_score=old_score,
                        new_score=new_score,
                        style_gain=gain,
                    )
                )
        suggestions.sort(key=lambda item: -item.style_gain)
        return suggestions[:top]

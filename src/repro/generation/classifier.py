"""Cuisine classification from culinary fingerprints.

If cuisines really carry distinctive "culinary fingerprints" (Section I),
a recipe's ingredient set should identify its cuisine. This module tests
that proposition with a multinomial naive-Bayes classifier over
ingredient usage: per cuisine, smoothed log-probabilities of each
ingredient; a recipe is assigned to the cuisine maximising the summed
log-likelihood (plus a recipe-count prior).

Besides being a fingerprint demonstration, the classifier is useful on
its own: scoring how "Italian" or "Japanese" an arbitrary ingredient set
is, which the food-design layer uses as a sanity check on generated
recipes.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Mapping

import numpy as np

from ..datamodel import ConfigurationError, Cuisine, LookupFailure, Recipe

#: Laplace smoothing mass added per ingredient.
SMOOTHING = 0.5


@dataclasses.dataclass(frozen=True)
class CuisinePrediction:
    """Classification of one recipe.

    Attributes:
        region_code: the winning cuisine.
        log_likelihoods: per-cuisine scores (higher is better).
    """

    region_code: str
    log_likelihoods: dict[str, float]

    def ranking(self) -> list[tuple[str, float]]:
        """Cuisines by descending score."""
        return sorted(
            self.log_likelihoods.items(), key=lambda item: -item[1]
        )


class CuisineClassifier:
    """Naive-Bayes cuisine classifier over ingredient ids."""

    def __init__(
        self, cuisines: Mapping[str, Cuisine], vocabulary_size: int
    ) -> None:
        """
        Args:
            cuisines: region code -> cuisine (training data).
            vocabulary_size: total number of catalog ingredients (the
                smoothing denominator).
        """
        if not cuisines:
            raise ConfigurationError("need at least one cuisine to train on")
        self._vocabulary_size = vocabulary_size
        self._log_priors: dict[str, float] = {}
        self._log_probs: dict[str, dict[int, float]] = {}
        self._log_default: dict[str, float] = {}
        total_recipes = sum(len(cuisine) for cuisine in cuisines.values())
        for code, cuisine in cuisines.items():
            ids, counts = cuisine.usage_arrays()
            total = int(counts.sum()) + SMOOTHING * vocabulary_size
            self._log_priors[code] = math.log(
                len(cuisine) / total_recipes
            )
            self._log_probs[code] = {
                ingredient_id: math.log((count + SMOOTHING) / total)
                for ingredient_id, count in zip(ids.tolist(), counts.tolist())
            }
            self._log_default[code] = math.log(SMOOTHING / total)

    @property
    def region_codes(self) -> tuple[str, ...]:
        return tuple(sorted(self._log_priors))

    def score(self, ingredient_ids: Iterable[int]) -> dict[str, float]:
        """Per-cuisine log-likelihood of an ingredient set."""
        ids = list(ingredient_ids)
        if not ids:
            raise ConfigurationError("cannot classify an empty recipe")
        scores: dict[str, float] = {}
        for code, log_prior in self._log_priors.items():
            log_probs = self._log_probs[code]
            default = self._log_default[code]
            scores[code] = log_prior + sum(
                log_probs.get(ingredient_id, default)
                for ingredient_id in ids
            )
        return scores

    def predict(self, recipe: Recipe | Iterable[int]) -> CuisinePrediction:
        """Classify a recipe (or a bare ingredient-id collection)."""
        if isinstance(recipe, Recipe):
            ids: Iterable[int] = recipe.ingredient_ids
        else:
            ids = recipe
        scores = self.score(ids)
        winner = max(scores.items(), key=lambda item: item[1])[0]
        return CuisinePrediction(region_code=winner, log_likelihoods=scores)

    def accuracy(self, recipes: Iterable[Recipe]) -> float:
        """Fraction of recipes assigned to their own region.

        Raises:
            LookupFailure: if a recipe's region was not trained on.
        """
        correct = 0
        total = 0
        for recipe in recipes:
            if recipe.region_code not in self._log_priors:
                raise LookupFailure(
                    f"region {recipe.region_code!r} not in training set"
                )
            prediction = self.predict(recipe)
            correct += prediction.region_code == recipe.region_code
            total += 1
        if total == 0:
            raise ConfigurationError("no recipes to evaluate")
        return correct / total


def train_test_split(
    cuisines: Mapping[str, Cuisine], holdout_fraction: float = 0.2
) -> tuple[dict[str, Cuisine], list[Recipe]]:
    """Deterministic split: the last fraction of each cuisine is held out."""
    if not 0 < holdout_fraction < 1:
        raise ConfigurationError("holdout_fraction must be in (0, 1)")
    training: dict[str, Cuisine] = {}
    held_out: list[Recipe] = []
    for code, cuisine in cuisines.items():
        rows = np.arange(len(cuisine))
        cut = max(1, int(len(rows) * (1 - holdout_fraction)))
        training[code] = Cuisine(code, cuisine.table.take(rows[:cut]))
        held_out.extend(cuisine.table.take(rows[cut:]))
    return training, held_out

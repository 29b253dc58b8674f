"""Z-score analysis of cuisine food pairing against the null models.

Implements the paper's statistic literally: with ``<N_s>`` the cuisine
mean pairing score, ``<N_s>_rand`` and ``sigma_rand`` the mean and standard
deviation of the pairing score over ``N`` random recipes (100,000 in the
paper)::

    Z = (<N_s> - <N_s>_rand) / (sigma_rand / sqrt(N))

Positive Z = uniform food pairing (similar-flavor blending), negative Z =
contrasting food pairing. The effect size in plain sigma units
(``(mean - rand_mean) / sigma``) is reported alongside, since Z scales
with ``sqrt(N)`` by construction.

The statistic needs only streaming moments of the random scores, so
every comparison is :func:`comparison_from_moments` over moments drawn by
:mod:`repro.parallel.montecarlo`: one stream per (region, model), the
same with or without a ``ParallelConfig``.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping

import numpy as np

from typing import TYPE_CHECKING

from ..datamodel import Cuisine
from ..flavordb import IngredientCatalog
from ..obs import span
from .models import NullModel, sample_model_moments
from .moments import StreamingMoments
from .score import cuisine_mean_score
from .views import CuisineView, build_cuisine_view

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel import ParallelConfig

#: Random recipes per model, as in the paper.
PAPER_SAMPLE_COUNT = 100_000


@dataclasses.dataclass(frozen=True, slots=True)
class ModelComparison:
    """Comparison of a cuisine against one null model."""

    model: NullModel
    cuisine_mean: float
    random_mean: float
    random_std: float
    n_samples: int
    z_score: float
    effect_size: float  # (cuisine_mean - random_mean) / random_std

    @property
    def direction(self) -> str:
        """``"uniform"``, ``"contrasting"`` or ``"neutral"``."""
        if self.z_score > 0:
            return "uniform"
        if self.z_score < 0:
            return "contrasting"
        return "neutral"


@dataclasses.dataclass(frozen=True)
class CuisinePairingResult:
    """Full pairing analysis of one cuisine (all four models)."""

    region_code: str
    cuisine_mean: float
    recipe_count: int
    ingredient_count: int
    comparisons: dict[NullModel, ModelComparison]

    def z(self, model: NullModel = NullModel.RANDOM) -> float:
        return self.comparisons[model].z_score

    @property
    def direction(self) -> str:
        """Pairing character relative to the uniform-random model."""
        return self.comparisons[NullModel.RANDOM].direction


def comparison_from_moments(
    cuisine_mean: float,
    model: NullModel,
    moments: StreamingMoments,
) -> ModelComparison:
    """Build a :class:`ModelComparison` from streaming score moments.

    The paper's Z statistic needs only the random-score mean and standard
    deviation, so the full score vector never has to exist. This is the
    one place a Z-score is computed.
    """
    random_mean = moments.mean
    random_std = moments.std(ddof=1)
    n_samples = moments.count
    if random_std == 0.0:
        z_score = 0.0
        effect = 0.0
    else:
        z_score = (cuisine_mean - random_mean) / (
            random_std / math.sqrt(n_samples)
        )
        effect = (cuisine_mean - random_mean) / random_std
    return ModelComparison(
        model=model,
        cuisine_mean=cuisine_mean,
        random_mean=random_mean,
        random_std=random_std,
        n_samples=n_samples,
        z_score=z_score,
        effect_size=effect,
    )


def compare_to_model(
    view: CuisineView,
    model: NullModel,
    n_samples: int = PAPER_SAMPLE_COUNT,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> ModelComparison:
    """Compare one cuisine view against one null model.

    The samples come from :func:`repro.parallel.model_moments`, in this
    process: the cell's stream under ``seed``, the same stream
    :func:`analyze_cuisine` draws at any worker count. A caller-owned
    ``rng`` replaces the seed: the samples are drawn from it directly.
    """
    if rng is None:
        from ..parallel.montecarlo import model_moments

        moments = model_moments(view, model, n_samples, seed)
    else:
        moments = sample_model_moments(view, model, n_samples, rng)
    return comparison_from_moments(cuisine_mean_score(view), model, moments)


def analyze_regions(
    cuisines: Mapping[str, Cuisine],
    views: Mapping[str, CuisineView],
    models: tuple[NullModel, ...],
    n_samples: int,
    parallel: "ParallelConfig | None" = None,
    seed: int | None = None,
) -> dict[str, CuisinePairingResult]:
    """Every view's pairing analysis from one Monte Carlo sweep.

    All regions' cells go through one sweep (one pool when
    ``parallel`` fans out), so slow regions overlap with fast ones.
    ``cuisines`` supplies the recipe and ingredient counts; results are
    keyed and ordered like ``views``.
    """
    from ..parallel.montecarlo import sweep_pairing_moments

    moments = sweep_pairing_moments(views, models, n_samples, parallel, seed)
    results: dict[str, CuisinePairingResult] = {}
    for code, view in views.items():
        cuisine_mean = cuisine_mean_score(view)
        results[code] = CuisinePairingResult(
            region_code=code,
            cuisine_mean=cuisine_mean,
            recipe_count=len(cuisines[code]),
            ingredient_count=len(cuisines[code].ingredient_ids),
            comparisons={
                model: comparison_from_moments(
                    cuisine_mean, model, moments[(code, model)]
                )
                for model in models
            },
        )
    return results


def analyze_cuisine(
    cuisine: Cuisine,
    catalog: IngredientCatalog,
    models: tuple[NullModel, ...] = tuple(NullModel),
    n_samples: int = PAPER_SAMPLE_COUNT,
    seed: int | None = None,
    parallel: "ParallelConfig | None" = None,
    view: "CuisineView | None" = None,
) -> CuisinePairingResult:
    """Run the full food-pairing analysis for one cuisine.

    Args:
        cuisine: the cuisine's resolved recipes.
        catalog: the ingredient catalog (flavor profiles).
        models: which null models to evaluate (all four by default).
        n_samples: random recipes per model.
        seed: extra seed mixed into the per-model generators; ``None``
            uses the deterministic default.
        parallel: when set, the models' cells fan out through the
            process pool in one sweep; ``None`` draws them in this
            process. Both draw the same stream per model.
        view: a prebuilt numeric view of the cuisine (the engine's
            ``pairing_views`` stage artifact); built here when omitted.
    """
    with span(
        "pairing.analyze_cuisine", region=cuisine.region_code
    ) as trace:
        if view is None:
            view = build_cuisine_view(cuisine, catalog)
        code = cuisine.region_code
        result = analyze_regions(
            {code: cuisine}, {code: view}, models, n_samples, parallel, seed
        )[code]
        trace.incr("models", len(result.comparisons))
    return result

"""Robustness of the food-pairing patterns (paper Section V, question 1).

The paper asks: *"How robust are the patterns to changes in recipes data
and flavor profiles?"* This module answers it with two perturbation
studies:

* :func:`bootstrap_pairing_direction` — resample the cuisine's recipes
  with replacement and re-run the pairing analysis; report how often the
  direction (uniform/contrasting) survives.
* :func:`perturb_flavor_profiles` — randomly delete a fraction of every
  ingredient's flavor molecules (emulating incomplete flavor data, which
  the paper flags as a key quality factor) and recompute the effect size.

Both operate on the numeric :class:`~repro.pairing.views.CuisineView`, so
they run in seconds even for large cuisines.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..datamodel import ConfigurationError, Cuisine
from ..datamodel.entities import take_rows
from ..flavordb import (
    IngredientCatalog,
    membership_matrix,
    shared_molecule_counts,
)
from ..pairing import NullModel, compare_to_model
from ..pairing.views import CuisineView, assemble_view, build_cuisine_view


@dataclasses.dataclass(frozen=True)
class BootstrapResult:
    """Direction stability under recipe resampling.

    Attributes:
        region_code: the cuisine analysed.
        effect_sizes: effect size per bootstrap replicate.
        baseline_effect: effect size of the unperturbed cuisine.
        sign_stability: fraction of replicates whose direction matches the
            baseline direction.
    """

    region_code: str
    effect_sizes: np.ndarray
    baseline_effect: float
    sign_stability: float


def _resample_view(
    view: CuisineView, rng: np.random.Generator
) -> CuisineView:
    """Bootstrap-resample the view's recipes (ingredients unchanged)."""
    picks = rng.integers(0, view.recipe_count, size=view.recipe_count)
    offsets, flat = take_rows(view.recipe_offsets, view.flat_recipes, picks)
    # Ingredients that vanished from the resample keep a floor frequency
    # so the frequency-null stays well-defined.
    frequencies = np.maximum(
        np.bincount(flat, minlength=view.ingredient_count).astype(
            view.frequencies.dtype
        ),
        1e-9,
    )
    return assemble_view(
        region_code=view.region_code,
        ingredient_ids=view.ingredient_ids,
        overlap=view.overlap,
        frequencies=frequencies,
        categories=view.categories,
        recipe_offsets=offsets,
        flat_recipes=flat,
    )


def bootstrap_pairing_direction(
    cuisine: Cuisine,
    catalog: IngredientCatalog,
    replicates: int = 20,
    n_samples: int = 4000,
    seed: int = 0,
) -> BootstrapResult:
    """Re-run the pairing analysis on bootstrap resamples of the recipes."""
    if replicates < 1:
        raise ConfigurationError("need at least one bootstrap replicate")
    rng = np.random.Generator(np.random.PCG64(seed))
    view = build_cuisine_view(cuisine, catalog)
    baseline = compare_to_model(
        view, NullModel.RANDOM, n_samples=n_samples, rng=rng
    )
    effects = []
    matches = 0
    for _replicate in range(replicates):
        resampled = _resample_view(view, rng)
        comparison = compare_to_model(
            resampled, NullModel.RANDOM, n_samples=n_samples, rng=rng
        )
        effects.append(comparison.effect_size)
        if np.sign(comparison.effect_size) == np.sign(
            baseline.effect_size
        ):
            matches += 1
    return BootstrapResult(
        region_code=cuisine.region_code,
        effect_sizes=np.asarray(effects),
        baseline_effect=baseline.effect_size,
        sign_stability=matches / replicates,
    )


@dataclasses.dataclass(frozen=True)
class PerturbationResult:
    """Effect-size trajectory under flavor-profile thinning.

    Attributes:
        region_code: the cuisine analysed.
        deletion_fractions: fraction of molecules deleted per step.
        effect_sizes: effect size at each deletion fraction (index 0 is
            the unperturbed baseline).
    """

    region_code: str
    deletion_fractions: tuple[float, ...]
    effect_sizes: np.ndarray

    @property
    def sign_survives_all(self) -> bool:
        baseline_sign = np.sign(self.effect_sizes[0])
        return bool(np.all(np.sign(self.effect_sizes) == baseline_sign))


def _thin_overlap(
    view: CuisineView,
    deletion_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Overlap matrix after deleting a fraction of each flavor profile."""
    thinned = []
    for ingredient in view.ingredients:
        molecules = np.asarray(sorted(ingredient.flavor_profile))
        keep = max(2, int(round(len(molecules) * (1 - deletion_fraction))))
        picks = rng.choice(len(molecules), size=keep, replace=False)
        thinned.append(
            dataclasses.replace(
                ingredient,
                flavor_profile=frozenset(int(m) for m in molecules[picks]),
            )
        )
    return shared_molecule_counts(membership_matrix(thinned)).astype(
        np.float64
    )


def perturb_flavor_profiles(
    cuisine: Cuisine,
    catalog: IngredientCatalog,
    deletion_fractions: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5),
    n_samples: int = 4000,
    seed: int = 0,
) -> PerturbationResult:
    """Recompute the pairing effect size with thinned flavor profiles."""
    if not deletion_fractions or deletion_fractions[0] != 0.0:
        raise ConfigurationError(
            "deletion_fractions must start with 0.0 (the baseline)"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    view = build_cuisine_view(cuisine, catalog)
    effects = []
    for fraction in deletion_fractions:
        if fraction == 0.0:
            thinned = view
        else:
            thinned = dataclasses.replace(
                view, overlap=_thin_overlap(view, fraction, rng)
            )
        comparison = compare_to_model(
            thinned, NullModel.RANDOM, n_samples=n_samples, rng=rng
        )
        effects.append(comparison.effect_size)
    return PerturbationResult(
        region_code=cuisine.region_code,
        deletion_fractions=deletion_fractions,
        effect_sizes=np.asarray(effects),
    )

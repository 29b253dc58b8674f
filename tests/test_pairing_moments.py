"""Tests for streaming moments and the moment-based sampling reduction."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.datamodel import Cuisine, Recipe
from repro.pairing import (
    NullModel,
    StreamingMoments,
    build_cuisine_view,
    sample_model_moments,
    sample_model_recipes,
    scores_for_recipes,
)
from tests.oracles import naive_sample_model_scores


def sampled_scores(view, model, n_samples, rng):
    """N_s of ``n_samples`` recipes drawn in one vectorised batch."""
    return scores_for_recipes(
        view.overlap, sample_model_recipes(view, model, n_samples, rng)
    )


@pytest.fixture(scope="module")
def view(catalog):
    names_per_recipe = [
        ("tomato", "basil", "garlic", "olive oil"),
        ("tomato", "basil", "oregano"),
        ("tomato", "garlic", "onion", "olive oil", "oregano"),
        ("milk", "butter", "flour"),
        ("tomato", "basil", "milk"),
        ("garlic", "onion", "butter", "thyme"),
        ("tomato", "oregano", "thyme", "basil", "garlic"),
        ("butter", "flour", "sugar"),
    ]
    recipes = [
        Recipe(
            index,
            "ITA",
            frozenset(catalog.get(name).ingredient_id for name in names),
        )
        for index, names in enumerate(names_per_recipe, start=1)
    ]
    return build_cuisine_view(Cuisine("ITA", recipes), catalog)


class TestStreamingMoments:
    def test_empty(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert moments.mean == 0.0
        assert moments.variance() == 0.0

    def test_from_array_matches_numpy(self):
        values = np.asarray([1.0, 2.0, 4.0, 8.0])
        moments = StreamingMoments.from_array(values)
        assert moments.count == 4
        assert moments.mean == pytest.approx(values.mean())
        assert moments.std() == pytest.approx(values.std(ddof=1))
        assert moments.minimum == 1.0
        assert moments.maximum == 8.0

    def test_update_accumulates(self):
        moments = StreamingMoments()
        moments.update(np.asarray([1.0, 2.0]))
        moments.update(np.asarray([3.0]))
        assert moments.count == 3
        assert moments.mean == pytest.approx(2.0)

    def test_single_value_variance_is_zero(self):
        moments = StreamingMoments.from_array(np.asarray([7.0]))
        assert moments.variance(ddof=1) == 0.0

    def test_population_variance(self):
        values = np.asarray([1.0, 2.0, 3.0, 4.0])
        moments = StreamingMoments.from_array(values)
        assert moments.variance(ddof=0) == pytest.approx(
            values.var(ddof=0)
        )

    def test_as_dict_round_numbers(self):
        moments = StreamingMoments.from_array(np.asarray([1.0, 2.0]))
        payload = moments.as_dict()
        assert payload["count"] == 2
        assert payload["mean"] == pytest.approx(1.5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_property_incremental_update_matches_from_array(values):
    array = np.asarray(values)
    incremental = StreamingMoments()
    for start in range(0, len(array), 7):
        incremental.update(array[start : start + 7])
    reference = StreamingMoments.from_array(array)
    assert incremental.count == reference.count
    assert incremental.mean == pytest.approx(
        reference.mean, rel=1e-9, abs=1e-9
    )
    assert incremental.variance() == pytest.approx(
        reference.variance(), rel=1e-7, abs=1e-9
    )


class TestSampleModelMoments:
    @pytest.mark.parametrize("model", list(NullModel))
    def test_matches_score_vector_exactly(self, view, model):
        """Same rng stream: the streaming reduction must reproduce the
        score vector's moments (600 samples are one chunk, one batch)."""
        scores = sampled_scores(
            view, model, 600, np.random.default_rng(99)
        )
        moments = sample_model_moments(
            view, model, 600, np.random.default_rng(99), chunk=600
        )
        assert moments.count == 600
        assert moments.mean == pytest.approx(scores.mean(), rel=1e-12)
        assert moments.std() == pytest.approx(
            scores.std(ddof=1), rel=1e-12
        )
        assert moments.minimum == pytest.approx(scores.min())
        assert moments.maximum == pytest.approx(scores.max())

    @pytest.mark.parametrize("model", list(NullModel))
    def test_reproducible_for_fixed_chunk(self, view, model):
        # The chunk size is part of the RNG draw schedule (each chunk is
        # one vectorised draw), so every Monte Carlo task uses the
        # default; for a fixed chunk the reduction is exactly
        # reproducible.
        first = sample_model_moments(
            view, model, 500, np.random.default_rng(7), chunk=64
        )
        second = sample_model_moments(
            view, model, 500, np.random.default_rng(7), chunk=64
        )
        assert first.mean == second.mean
        assert first.sum_squares == second.sum_squares
        assert first.minimum == second.minimum
        assert first.maximum == second.maximum


class TestFastVsNaiveMoments:
    """Closeness check: the vectorised samplers and the readable naive
    samplers draw from the same distribution (satellite d)."""

    N_SAMPLES = 4000

    @pytest.mark.parametrize("model", list(NullModel))
    def test_means_agree_within_combined_error(self, view, model):
        fast = sampled_scores(
            view, model, self.N_SAMPLES, np.random.default_rng(11)
        )
        naive = naive_sample_model_scores(
            view, model, self.N_SAMPLES, np.random.default_rng(22)
        )
        fast_mean, naive_mean = fast.mean(), naive.mean()
        combined_se = math.sqrt(
            fast.var(ddof=1) / len(fast) + naive.var(ddof=1) / len(naive)
        )
        # 5 sigma: deterministic seeds, so this never flakes unless the
        # distributions genuinely diverge.
        assert abs(fast_mean - naive_mean) <= 5 * combined_se + 1e-9

    @pytest.mark.parametrize("model", list(NullModel))
    def test_spreads_agree(self, view, model):
        fast = sampled_scores(
            view, model, self.N_SAMPLES, np.random.default_rng(33)
        )
        naive = naive_sample_model_scores(
            view, model, self.N_SAMPLES, np.random.default_rng(44)
        )
        assert fast.std(ddof=1) == pytest.approx(
            naive.std(ddof=1), rel=0.15
        )

    @pytest.mark.parametrize("model", list(NullModel))
    def test_chi_square_over_score_bins(self, view, model):
        """Two-sample chi-square over quantile bins of the pooled scores."""
        from scipy import stats as scipy_stats

        fast = sampled_scores(
            view, model, self.N_SAMPLES, np.random.default_rng(55)
        )
        naive = naive_sample_model_scores(
            view, model, self.N_SAMPLES, np.random.default_rng(66)
        )
        pooled = np.concatenate([fast, naive])
        edges = np.unique(
            np.quantile(pooled, np.linspace(0.0, 1.0, 9))
        )
        if len(edges) < 3:  # pragma: no cover - degenerate distribution
            pytest.skip("score distribution too degenerate to bin")
        edges[0], edges[-1] = -np.inf, np.inf
        fast_counts, _ = np.histogram(fast, bins=edges)
        naive_counts, _ = np.histogram(naive, bins=edges)
        keep = (fast_counts + naive_counts) >= 10
        fast_counts, naive_counts = fast_counts[keep], naive_counts[keep]
        statistic = 0.0
        for observed, expected_pool in zip(fast_counts, naive_counts):
            expected = (observed + expected_pool) / 2.0
            statistic += (observed - expected) ** 2 / expected
            statistic += (expected_pool - expected) ** 2 / expected
        dof = max(1, len(fast_counts) - 1)
        threshold = scipy_stats.chi2.ppf(0.9999, dof)
        assert statistic <= threshold, (
            f"chi2={statistic:.1f} > {threshold:.1f} for {model.value}"
        )

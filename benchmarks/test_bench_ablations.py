"""Ablation benches for the design choices called out in DESIGN.md.

* overlap backend: dense numpy matrix vs per-pair set intersection,
* Z-score stability vs number of random samples,
* the opt-in fuzzy typo corrector vs exact matching.

DESIGN.md §5 records the sampler and n-gram matcher ablations, whose
slower sides are now test oracles. The fuzzy ablation pins
``phrase_cache_size=0``: the phrase memo would otherwise turn every
repeat-phrase probe into a dict hit and the ablation would stop
measuring the matcher at all.
"""

import numpy as np
import pytest

from repro.aliasing import AliasingPipeline
from repro.pairing import (
    NullModel,
    build_cuisine_view,
    cuisine_mean_score,
    food_pairing_score,
    scores_from_view,
)


@pytest.fixture(scope="module")
def kor_view(workspace):
    cuisine = workspace.regional_cuisines()["KOR"]
    return build_cuisine_view(cuisine, workspace.catalog)


class TestOverlapBackend:
    def test_bench_matrix_backend(self, benchmark, kor_view):
        # Scores every recipe each round; cuisine_mean_score would return
        # the value cached on the view after the first.
        result = benchmark(lambda: float(scores_from_view(kor_view).mean()))
        assert result > 0

    def test_bench_set_backend(self, benchmark, workspace):
        cuisine = workspace.regional_cuisines()["KOR"]
        catalog = workspace.catalog
        recipes = [
            [catalog.by_id(i) for i in sorted(recipe.ingredient_ids)]
            for recipe in cuisine
        ]

        def score_all():
            scores = []
            for ingredients in recipes:
                pairable = [i for i in ingredients if i.has_flavor_profile]
                if len(pairable) >= 2:
                    scores.append(food_pairing_score(pairable))
            return sum(scores) / len(scores)

        result = benchmark(score_all)
        assert result > 0

    def test_backends_agree(self, kor_view, workspace):
        cuisine = workspace.regional_cuisines()["KOR"]
        catalog = workspace.catalog
        reference_scores = []
        for recipe in cuisine:
            pairable = [
                catalog.by_id(i)
                for i in recipe.ingredient_ids
                if catalog.by_id(i).has_flavor_profile
            ]
            if len(pairable) >= 2:
                reference_scores.append(food_pairing_score(pairable))
        reference = sum(reference_scores) / len(reference_scores)
        assert cuisine_mean_score(kor_view) == pytest.approx(reference)


class TestZSampleStability:
    """Z-score stability as the number of random recipes grows (10^3-10^4).

    The paper uses 100,000 samples; this ablation shows the effect size
    estimate stabilises far earlier, while Z itself grows as sqrt(N) by
    construction.
    """

    @pytest.mark.parametrize("n_samples", [1000, 4000, 10000])
    def test_bench_zscore_vs_samples(self, benchmark, kor_view, n_samples):
        from repro.pairing import compare_to_model

        def run():
            rng = np.random.default_rng(42)
            return compare_to_model(
                kor_view, NullModel.RANDOM, n_samples=n_samples, rng=rng
            )

        comparison = benchmark.pedantic(run, rounds=2, iterations=1)
        print(
            f"\nN={n_samples}: Z={comparison.z_score:.1f} "
            f"effect={comparison.effect_size:.3f} "
            f"random_mean={comparison.random_mean:.4f}"
        )
        assert comparison.z_score != 0


class TestFuzzyAblation:
    """Cost of the opt-in typo-correction pass on clean input."""

    PHRASES = (
        "2 jalapeno peppers, roasted and slit",
        "1 (14 ounce) can diced tomatoes, drained",
        "1/2 cup extra virgin olive oil",
        "3 cloves garlic, minced",
        "250g smoked salmon, thinly sliced",
        "1 tsp freshly ground black pepper",
        "2 cups whole milk, at room temperature",
        "a bunch of cilantro, roughly chopped",
    )

    def test_bench_exact_pipeline(self, benchmark, workspace):
        pipeline = AliasingPipeline(workspace.catalog, phrase_cache_size=0)

        def run():
            return [
                pipeline.resolve_phrase(phrase).kind
                for phrase in self.PHRASES * 25
            ]

        benchmark(run)

    def test_bench_fuzzy_pipeline(self, benchmark, workspace):
        pipeline = AliasingPipeline(
            workspace.catalog, fuzzy=True, phrase_cache_size=0
        )

        def run():
            return [
                pipeline.resolve_phrase(phrase).kind
                for phrase in self.PHRASES * 25
            ]

        benchmark(run)

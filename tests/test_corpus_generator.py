"""Tests for the corpus generator (on the shared reduced-scale corpus)."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.corpus import (
    REGION_GENERATOR_PROFILES,
    SOURCE_TOTALS,
    WORLD_ONLY_PROFILES,
    CorpusGenerator,
)
from repro.datamodel import ConfigurationError, region_codes


class TestGeneratedCorpus:
    def test_all_regions_present(self, workspace):
        generated_codes = {
            raw.region_code for raw in workspace.corpus.raw_recipes
        }
        assert set(region_codes()) <= generated_codes
        for profile in WORLD_ONLY_PROFILES:
            assert profile.code in generated_codes

    def test_recipe_ids_sequential_from_one(self, workspace):
        ids = [raw.recipe_id for raw in workspace.corpus.raw_recipes]
        assert ids == list(range(1, len(ids) + 1))

    def test_every_raw_recipe_has_intended_set(self, workspace):
        corpus = workspace.corpus
        for raw in corpus.raw_recipes:
            assert raw.recipe_id in corpus.intended_ingredients

    def test_pantry_per_region(self, workspace):
        for code, pantry in workspace.corpus.pantries.items():
            expected = (
                REGION_GENERATOR_PROFILES[code].ingredient_count
                if code in REGION_GENERATOR_PROFILES
                else None
            )
            if expected is not None:
                assert pantry.size == expected

    def test_unique_ingredient_counts_match_table1(self, workspace):
        """The generator's coverage enforcement makes Table 1's
        ingredient counts exact at any scale."""
        cuisines = workspace.regional_cuisines()
        for code, profile in REGION_GENERATOR_PROFILES.items():
            assert (
                len(cuisines[code].ingredient_ids)
                == profile.ingredient_count
            ), code

    def test_recipes_only_use_pantry_ingredients(self, workspace):
        corpus = workspace.corpus
        for code, pantry in corpus.pantries.items():
            allowed = set(pantry.ingredient_ids().tolist())
            for raw in corpus.raw_recipes[:2000]:
                if raw.region_code != code:
                    continue
                assert corpus.intended_ingredients[raw.recipe_id] <= allowed

    def test_titles_and_instructions_nonempty(self, workspace):
        for raw in workspace.corpus.raw_recipes[:200]:
            assert raw.title
            assert raw.instructions


class TestSourceAttribution:
    def test_only_known_sources(self, workspace):
        sources = {raw.source for raw in workspace.corpus.raw_recipes}
        assert sources <= set(SOURCE_TOTALS)

    def test_tarladalal_only_for_indian_subcontinent(self, workspace):
        for raw in workspace.corpus.raw_recipes:
            if raw.source == "TarlaDalal":
                assert raw.region_code == "INSC"

    def test_source_proportions_roughly_published(self, workspace):
        counts = Counter(raw.source for raw in workspace.corpus.raw_recipes)
        total = sum(counts.values())
        published_total = sum(SOURCE_TOTALS.values())
        for source, published in SOURCE_TOTALS.items():
            share = counts[source] / total
            published_share = published / published_total
            assert abs(share - published_share) < 0.03, source


def numpy_source_labels(region_counts):
    """Largest-deficit labels as first written: ``np.argmax`` over numpy
    float64 deficits, once per general-source recipe."""
    general = ("AllRecipes", "Food Network", "Epicurious")
    total = sum(count for _code, count in region_counts)
    scale = total / sum(SOURCE_TOTALS.values())
    tarladalal_quota = int(round(SOURCE_TOTALS["TarlaDalal"] * scale))
    weights = np.asarray([SOURCE_TOTALS[name] for name in general], np.float64)
    weights /= weights.sum()
    assigned = Counter()
    general_total = 0
    labels = []
    for code, count in region_counts:
        for _ in range(count):
            if code == "INSC" and tarladalal_quota > 0:
                labels.append("TarlaDalal")
                tarladalal_quota -= 1
                continue
            general_total += 1
            deficits = [
                weights[i] * general_total - assigned[name]
                for i, name in enumerate(general)
            ]
            pick = general[int(np.argmax(deficits))]
            assigned[pick] += 1
            labels.append(pick)
    return labels


class TestSourceLabels:
    @pytest.mark.parametrize("scale", [1.0, 0.05])
    def test_labels_equal_numpy_oracle(self, catalog, scale):
        generator = CorpusGenerator(catalog, recipe_scale=scale)
        counts = [
            (profile.code, generator._region_recipe_count(profile))
            for profile in generator.profiles()
        ]
        labels = generator._source_labels(counts)
        assert len(labels) == sum(count for _code, count in counts)
        assert labels == numpy_source_labels(counts)


class TestDeterminismAndScaling:
    def test_same_seed_same_corpus(self):
        first = CorpusGenerator(
            seed=7, recipe_scale=0.02, include_world_only=False
        ).generate()
        second = CorpusGenerator(
            seed=7, recipe_scale=0.02, include_world_only=False
        ).generate()
        assert len(first.raw_recipes) == len(second.raw_recipes)
        for left, right in zip(
            first.raw_recipes[:300], second.raw_recipes[:300]
        ):
            assert left == right

    def test_different_seed_differs(self):
        first = CorpusGenerator(
            seed=7, recipe_scale=0.02, include_world_only=False
        ).generate()
        second = CorpusGenerator(
            seed=8, recipe_scale=0.02, include_world_only=False
        ).generate()
        assert any(
            left.ingredient_phrases != right.ingredient_phrases
            for left, right in zip(
                first.raw_recipes[:200], second.raw_recipes[:200]
            )
        )

    def test_generations_compare_by_value(self):
        def generate(seed):
            return CorpusGenerator(
                seed=seed, recipe_scale=0.02, include_world_only=False
            ).generate()

        first, second, other = generate(7), generate(7), generate(8)
        assert first is not second
        assert first == second
        assert first != other
        pantry = first.pantries["ITA"]
        assert pantry == second.pantries["ITA"]
        assert pantry != first.pantries["KOR"]
        assert pantry != dataclasses.replace(
            pantry, popularity=pantry.popularity * 2
        )

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            CorpusGenerator(recipe_scale=0.0)

    def test_world_only_optional(self):
        generator = CorpusGenerator(
            recipe_scale=0.02, include_world_only=False
        )
        assert all(
            profile.code in REGION_GENERATOR_PROFILES
            for profile in generator.profiles()
        )

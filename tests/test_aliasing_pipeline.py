"""Tests for the end-to-end aliasing pipeline."""

import dataclasses
import pickle
import sys
import threading

import pytest

from repro.aliasing import (
    AliasingPipeline,
    MatchKind,
    MatchReport,
    normalize_phrase,
)
from repro.aliasing.pipeline import DEFAULT_PHRASE_CACHE
from repro.corpus import CorpusGenerator
from repro.datamodel import RawRecipe, RawRecipeTable
from tests.oracles import per_recipe_resolve_corpus


class TestResolvePhrase:
    def test_exact_simple(self, pipeline):
        resolution = pipeline.resolve_phrase("2 cups chopped tomatoes")
        assert resolution.kind is MatchKind.EXACT
        assert [i.name for i in resolution.ingredients] == ["tomato"]

    def test_synonym_resolves_to_canonical(self, pipeline):
        resolution = pipeline.resolve_phrase("2 tablespoons whisky")
        assert [i.name for i in resolution.ingredients] == ["whiskey"]

    def test_stopword_bearing_name(self, pipeline):
        resolution = pipeline.resolve_phrase("1 can hearts of palm")
        assert [i.name for i in resolution.ingredients] == ["hearts of palm"]

    def test_multi_ingredient_phrase(self, pipeline):
        resolution = pipeline.resolve_phrase("salt and pepper to taste")
        names = {i.name for i in resolution.ingredients}
        assert names == {"salt", "black pepper"}
        assert resolution.kind is MatchKind.EXACT

    def test_partial(self, pipeline):
        resolution = pipeline.resolve_phrase("2 cups gravel and tomatoes")
        assert resolution.kind is MatchKind.PARTIAL
        assert "gravel" in resolution.leftover_tokens

    def test_unrecognized(self, pipeline):
        resolution = pipeline.resolve_phrase("3 scoops of moon dust")
        assert resolution.kind is MatchKind.UNRECOGNIZED
        assert resolution.ingredients == ()

    def test_every_canonical_name_round_trips(self, pipeline):
        failures = []
        for ingredient in pipeline.catalog.ingredients:
            resolution = pipeline.resolve_phrase(ingredient.name)
            if (
                resolution.kind is not MatchKind.EXACT
                or len(resolution.ingredients) != 1
                or resolution.ingredients[0].name != ingredient.name
            ):
                failures.append(ingredient.name)
        assert failures == []

    def test_every_synonym_round_trips(self, pipeline):
        from repro.flavordb import SYNONYMS

        for synonym, canonical in SYNONYMS.items():
            resolution = pipeline.resolve_phrase(synonym)
            assert len(resolution.ingredients) == 1
            assert resolution.ingredients[0].name == canonical


class TestResolveRecipe:
    def make_raw(self, phrases, recipe_id=1):
        return RawRecipe(
            recipe_id=recipe_id,
            title="Test",
            source="AllRecipes",
            region_code="ITA",
            ingredient_phrases=tuple(phrases),
        )

    def test_recipe_resolution(self, pipeline):
        raw = self.make_raw(
            ["2 tomatoes", "1 clove garlic", "basil leaves, torn"]
        )
        recipe = pipeline.resolve_recipe(raw)
        names = {
            pipeline.catalog.by_id(ingredient_id).name
            for ingredient_id in recipe.ingredient_ids
        }
        assert names == {"tomato", "garlic", "basil"}
        assert recipe.region_code == "ITA"
        assert recipe.recipe_id == 1

    def test_duplicates_collapse(self, pipeline):
        raw = self.make_raw(["1 tomato", "2 tomatoes, diced"])
        recipe = pipeline.resolve_recipe(raw)
        assert recipe.size == 1

    def test_unresolvable_recipe_returns_none(self, pipeline):
        raw = self.make_raw(["moon dust", "unicorn tears"])
        assert pipeline.resolve_recipe(raw) is None

    def test_report_collects_counts(self, pipeline):
        report = MatchReport()
        raw = self.make_raw(["2 tomatoes", "moon dust"])
        pipeline.resolve_recipe(raw, report)
        assert report.phrase_counts[MatchKind.EXACT] == 1
        assert report.phrase_counts[MatchKind.UNRECOGNIZED] == 1
        assert report.recipes_total == 1
        assert report.recipes_resolved == 1


class TestResolveCorpus:
    def test_corpus_resolution(self, pipeline):
        raws = [
            RawRecipe(1, "A", "AllRecipes", "ITA", ("2 tomatoes", "basil")),
            RawRecipe(2, "B", "Epicurious", "JPN", ("moon dust",)),
            RawRecipe(3, "C", "AllRecipes", "FRA", ("1 cup cream",)),
        ]
        result = pipeline.resolve_corpus(RawRecipeTable.from_recipes(raws))
        assert len(result.recipes) == 2
        assert result.report.recipes_total == 3
        assert result.report.recipes_resolved == 2

    def test_fuzzy_pipeline_resolves_a_corpus(self, catalog):
        fuzzy = AliasingPipeline(catalog, fuzzy=True)
        raws = _corpus_raws()
        result = fuzzy.resolve_corpus(raws)
        assert result.report.recipes_total == len(raws)

    def test_curated_alias_honoured(self, catalog):
        curated = AliasingPipeline(catalog)
        curated.register_alias("moon dust", catalog.get("tomato"))
        result = curated.resolve_corpus(_corpus_raws())
        assert result.report.phrase_counts[MatchKind.UNRECOGNIZED] == 0


class TestMatchReport:
    def test_exact_rate(self):
        report = MatchReport()
        assert report.exact_rate() == 0.0

    def test_unmatched_ngrams_ranked(self, pipeline):
        report = MatchReport()
        for _ in range(3):
            report.record_phrase(
                pipeline.resolve_phrase("ponzu glitter sauce base")
            )
        report.record_phrase(pipeline.resolve_phrase("moon dust"))
        top = report.top_unmatched(5)
        assert top[0][0] == "glitter"
        assert top[0][1] == 3

    def test_ngrams_up_to_six(self, pipeline):
        report = MatchReport()
        resolution = pipeline.resolve_phrase(
            "aa bb cc dd ee ff gg"  # 7 unknown tokens
        )
        report.record_phrase(resolution)
        ngram_lengths = {
            len(ngram.split(" ")) for ngram, _count in report.top_unmatched(500)
        }
        assert max(ngram_lengths) == 6

    def test_repr_summarises(self, pipeline):
        report = MatchReport()
        report.record_phrase(pipeline.resolve_phrase("2 tomatoes"))
        assert "exact=1" in repr(report)

    def test_count_equals_repeated_records(self):
        leftovers = ("ponzu", "glitter", "sauce")
        once, repeated = MatchReport(), MatchReport()
        once.record_match(MatchKind.EXACT, (), count=3)
        once.record_match(MatchKind.PARTIAL, leftovers, count=3)
        for _ in range(3):
            repeated.record_match(MatchKind.EXACT, ())
        for _ in range(3):
            repeated.record_match(MatchKind.PARTIAL, leftovers)
        assert list(once.phrase_counts.items()) == list(
            repeated.phrase_counts.items()
        )
        assert list(once._unmatched_ngrams.items()) == list(
            repeated._unmatched_ngrams.items()
        )
        assert pickle.dumps(once) == pickle.dumps(repeated)


def _corpus_raws():
    """A small corpus exercising exact, partial and unrecognised phrases."""
    phrases = [
        ("2 tomatoes", "fresh basil"),
        ("moon dust", "ponzu glitter sauce"),
        ("1 cup cream", "gravel and tomatoes"),
        ("salt and pepper", "moon dust"),
        ("3 scoops of moon dust",),
        ("chopped onions", "olive oil"),
    ]
    return RawRecipeTable.from_recipes(
        RawRecipe(i + 1, f"R{i + 1}", "AllRecipes", "ITA", lines)
        for i, lines in enumerate(phrases)
    )


class TestPhraseMemo:
    def test_repeats_hit_the_cache(self, catalog):
        fresh = AliasingPipeline(catalog)
        baseline_hits = fresh._cache_hits.value
        first = fresh.resolve_phrase("2 cups chopped tomatoes")
        second = fresh.resolve_phrase("2 cups chopped tomatoes")
        assert second == first  # served from the memo
        assert fresh._cache_hits.value == baseline_hits + 1
        assert fresh.phrase_cache_info()[0] >= 1

    def test_same_tokens_share_an_entry(self, catalog):
        fresh = AliasingPipeline(catalog)
        baseline_hits = fresh._cache_hits.value
        first = fresh.resolve_phrase("2 cups chopped tomatoes")
        other = fresh.resolve_phrase("3 Tomatoes, diced")
        assert fresh._cache_hits.value == baseline_hits + 1
        assert fresh.phrase_cache_info()[0] == 1
        # The match is shared; the phrase is the caller's own.
        assert other.phrase == "3 Tomatoes, diced"
        assert other.ingredients == first.ingredients
        assert other.kind is first.kind

    def test_report_counts_per_occurrence(self, catalog):
        fresh = AliasingPipeline(catalog)
        report = MatchReport()
        raw = RawRecipe(
            1, "A", "AllRecipes", "ITA", ("moon dust", "moon dust")
        )
        fresh.resolve_recipe(raw, report)
        fresh.resolve_recipe(
            dataclasses.replace(raw, recipe_id=2), report
        )
        # 4 occurrences recorded even though 3 were cache hits.
        assert report.phrase_counts[MatchKind.UNRECOGNIZED] == 4
        assert dict(report.top_unmatched(5))["moon dust"] == 4

    def test_cache_bound_is_enforced(self, catalog):
        small = AliasingPipeline(catalog, phrase_cache_size=2)
        for phrase in ("one tomato", "two tomatoes", "three tomatoes"):
            small.resolve_phrase(phrase)
        entries, capacity = small.phrase_cache_info()
        assert capacity == 2
        assert entries == 2

    def test_zero_size_disables_memo(self, catalog):
        off = AliasingPipeline(catalog, phrase_cache_size=0)
        first = off.resolve_phrase("2 tomatoes")
        second = off.resolve_phrase("2 tomatoes")
        assert first == second
        assert first is not second
        assert off.phrase_cache_info() == (0, 0)

    def test_register_alias_invalidates_memo(self, catalog):
        fresh = AliasingPipeline(catalog)
        before = fresh.resolve_phrase("glorp")
        assert before.kind is MatchKind.UNRECOGNIZED
        fresh.register_alias("glorp", catalog.get("tomato"))
        after = fresh.resolve_phrase("glorp")
        assert after.kind is MatchKind.EXACT
        assert [i.name for i in after.ingredients] == ["tomato"]


@pytest.fixture(scope="module")
def memo_phrases():
    """Generated lines plus typos, partial and unknown ones, each twice."""
    corpus = CorpusGenerator(recipe_scale=0.01, include_world_only=False)
    lines = [
        phrase
        for raw in corpus.generate().raw_recipes[:300]
        for phrase in raw.ingredient_phrases
    ]
    lines += [
        "1 tbsp oregeno",
        "fresh mozzarela cheese",
        "2 cups chopped tomatoe",
        "2 cups gravel and tomatoes",
        "3 scoops of moon dust",
        "moon dust",
        "glorp",
        "2 Glorps, sliced",
        "qqqqzzzz flibberjab",
    ]
    return lines + lines


class TestTokenMemoEquivalence:
    """Memoised resolutions equal those of a pipeline without the memo."""

    @pytest.mark.parametrize("fuzzy", [False, True])
    def test_memo_matches_no_memo(self, catalog, memo_phrases, fuzzy):
        memo = AliasingPipeline(catalog, fuzzy=fuzzy)
        plain = AliasingPipeline(catalog, fuzzy=fuzzy, phrase_cache_size=0)
        for phrase in memo_phrases:
            assert memo.resolve_phrase(phrase) == plain.resolve_phrase(phrase)
        entries, _capacity = memo.phrase_cache_info()
        assert 0 < entries < len(set(memo_phrases))
        assert plain.phrase_cache_info() == (0, 0)

    def test_after_register_alias(self, catalog, memo_phrases):
        memo = AliasingPipeline(catalog)
        plain = AliasingPipeline(catalog, phrase_cache_size=0)
        for phrase in memo_phrases:
            memo.resolve_phrase(phrase)
        for pipeline in (memo, plain):
            pipeline.register_alias("glorp", catalog.get("tomato"))
            pipeline.register_alias("moon dust", catalog.get("basil"))
        assert memo.phrase_cache_info()[0] == 0
        for phrase in memo_phrases:
            assert memo.resolve_phrase(phrase) == plain.resolve_phrase(phrase)
        assert memo.resolve_phrase("2 Glorps, sliced").kind is MatchKind.EXACT


class TestConcurrentResolve:
    """``QueryService`` shares one pipeline across its executor threads."""

    THREADS = 8
    CALLS = 20_000
    PHRASES = (
        "3 cups apple",
        "2 tomatoes",
        "1 cup cream",
        "fresh basil",
        "moon dust",
        "chopped onions",
        "olive oil",
        "2 cups gravel and tomatoes",
    )

    def test_threads_share_a_tiny_memo(self, catalog):
        serial = AliasingPipeline(catalog, phrase_cache_size=0)
        expected = [serial.resolve_phrase(p) for p in self.PHRASES]
        # Capacity 2 against 8 token tuples: nearly every call evicts.
        shared = AliasingPipeline(catalog, phrase_cache_size=2)
        errors: list[BaseException] = []
        mismatches: list[str] = []
        start = threading.Barrier(self.THREADS)

        def work(offset):
            start.wait()
            try:
                for call in range(self.CALLS):
                    index = (call + offset) % len(self.PHRASES)
                    got = shared.resolve_phrase(self.PHRASES[index])
                    if got != expected[index]:
                        mismatches.append(self.PHRASES[index])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(offset,))
                for offset in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []
        assert shared.phrase_cache_info() == (2, 2)


def _fixture_raws():
    """Typos, partial, unknown and repeated lines over a few recipes, the
    same token tuple recurring under different surface forms."""
    lines = [
        ("1 tbsp oregeno", "2 cups chopped tomatoe", "moon dust"),
        ("fresh mozzarela cheese", "2 cups gravel and tomatoes"),
        ("glorp", "qqqqzzzz flibberjab"),
        ("3 Tomatoes, diced", "2 Glorps, sliced", "salt and pepper"),
        ("moon dust", "3 scoops of moon dust", "ponzu glitter sauce base"),
        ("aa bb cc dd ee ff gg", "2 cups gravel and tomatoes"),
        ("chopped onions", "olive oil", "1 tbsp oregeno"),
        ("qqqqzzzz flibberjab",),
        ("2 cups chopped tomatoes", "fresh basil", "moon dust"),
    ]
    return RawRecipeTable.from_recipes(
        RawRecipe(
            index + 1,
            f"Dish {index % 4}",
            ("AllRecipes", "Epicurious")[index % 2],
            ("ITA", "JPN", "FRA")[index % 3],
            phrases,
        )
        for index, phrases in enumerate(lines)
    )


@pytest.fixture(scope="module", params=["generated", "fixture"])
def corpus_raws(request):
    if request.param == "fixture":
        return _fixture_raws()
    return CorpusGenerator(recipe_scale=0.05).generate().raw_recipes


def _assert_same_result(got, want):
    assert got.recipes == want.recipes
    assert list(got.report.phrase_counts.items()) == list(
        want.report.phrase_counts.items()
    )
    assert list(got.report._unmatched_ngrams.items()) == list(
        want.report._unmatched_ngrams.items()
    )
    assert (got.report.recipes_total, got.report.recipes_resolved) == (
        want.report.recipes_total,
        want.report.recipes_resolved,
    )
    assert pickle.dumps(got) == pickle.dumps(want)


def _memo_traffic(pipeline, resolve):
    """(hits, misses) the memo counters gained while ``resolve`` ran."""
    before = pipeline._cache_hits.value, pipeline._cache_misses.value
    resolve()
    return (
        pipeline._cache_hits.value - before[0],
        pipeline._cache_misses.value - before[1],
    )


class TestResolveCorpusOracle:
    """Resolving each distinct token tuple once gives what resolving and
    recording every phrase recipe by recipe gives, bit for bit."""

    @pytest.mark.parametrize("fuzzy", [False, True])
    @pytest.mark.parametrize("cache", [0, 2, DEFAULT_PHRASE_CACHE])
    def test_matches_per_recipe_oracle(
        self, catalog, corpus_raws, fuzzy, cache
    ):
        options = dict(fuzzy=fuzzy, phrase_cache_size=cache)
        fast = AliasingPipeline(catalog, **options)
        slow = AliasingPipeline(catalog, **options)
        _assert_same_result(
            fast.resolve_corpus(corpus_raws),
            per_recipe_resolve_corpus(slow, corpus_raws),
        )

    @pytest.mark.parametrize("cache", [0, 2, DEFAULT_PHRASE_CACHE])
    def test_after_register_alias(self, catalog, corpus_raws, cache):
        """A warm memo is dropped: the result equals that of a pipeline
        that never memoised and had the aliases from the start."""
        fast = AliasingPipeline(catalog, phrase_cache_size=cache)
        fast.resolve_corpus(corpus_raws)
        plain = AliasingPipeline(catalog, phrase_cache_size=0)
        for pipeline in (fast, plain):
            pipeline.register_alias("glorp", catalog.get("tomato"))
            pipeline.register_alias("moon dust", catalog.get("basil"))
        _assert_same_result(
            fast.resolve_corpus(corpus_raws),
            per_recipe_resolve_corpus(plain, corpus_raws),
        )

    def test_memo_counts_every_phrase(self, catalog, corpus_raws):
        phrases = corpus_raws.phrases()
        distinct = len({tuple(normalize_phrase(p)) for p in phrases})
        fast = AliasingPipeline(catalog)
        hits, misses = _memo_traffic(
            fast, lambda: fast.resolve_corpus(corpus_raws)
        )
        assert hits + misses == len(phrases)
        assert misses == distinct
        slow = AliasingPipeline(catalog)
        assert _memo_traffic(
            slow, lambda: per_recipe_resolve_corpus(slow, corpus_raws)
        ) == (hits, misses)
        # A second call finds every tuple memoised.
        assert _memo_traffic(
            fast, lambda: fast.resolve_corpus(corpus_raws)
        ) == (len(phrases), 0)

    def test_no_memo_counts_nothing(self, catalog, corpus_raws):
        off = AliasingPipeline(catalog, phrase_cache_size=0)
        assert _memo_traffic(
            off, lambda: off.resolve_corpus(corpus_raws)
        ) == (0, 0)

"""Tests for the phrase renderer (fidelity contract included)."""

import tracemalloc

import numpy as np
import pytest

from repro.aliasing import MatchKind, normalize_phrase
from repro.corpus import CorpusGenerator, PhraseRenderer, pluralize
from repro.corpus import renderer as renderer_module
from repro.corpus.renderer import DESCRIPTORS, LEADING_DESCRIPTORS

#: Scale of the region-walk tests: every region has several blocks of
#: three recipes.
WALK_SCALE = 0.05


@pytest.fixture(scope="module")
def renderer():
    from repro.aliasing import AliasingPipeline

    return PhraseRenderer(AliasingPipeline())


class TestPluralize:
    @pytest.mark.parametrize(
        "singular,plural",
        [
            ("tomato", "tomatoes"),
            ("berry", "berries"),
            ("radish", "radishes"),
            ("egg", "eggs"),
            ("box", "boxes"),
            ("bell pepper", "bell peppers"),
        ],
    )
    def test_cases(self, singular, plural):
        assert pluralize(singular) == plural

    def test_only_last_word_pluralised(self):
        assert pluralize("sun dried tomato") == "sun dried tomatoes"


class TestSurfaceForms:
    def test_canonical_always_included(self, renderer, pipeline):
        for name in ("tomato", "olive oil", "half half"):
            ingredient = pipeline.catalog.get(name)
            assert name in renderer.surface_forms(ingredient)

    def test_synonyms_included_when_valid(self, renderer, pipeline):
        whiskey = pipeline.catalog.get("whiskey")
        assert "whisky" in renderer.surface_forms(whiskey)

    def test_all_forms_resolve_back(self, renderer, pipeline):
        for ingredient in pipeline.catalog.ingredients[:100]:
            for form in renderer.surface_forms(ingredient):
                resolution = pipeline.resolve_phrase(form)
                assert resolution.kind is MatchKind.EXACT
                assert resolution.ingredients[0] == ingredient

    def test_cached(self, renderer, pipeline):
        tomato = pipeline.catalog.get("tomato")
        assert renderer.surface_forms(tomato) is renderer.surface_forms(
            tomato
        )


class TestRenderFidelity:
    def test_rendered_phrases_alias_back_exactly(self, renderer, pipeline):
        rng = np.random.default_rng(11)
        ingredients = pipeline.catalog.ingredients
        picks = rng.choice(len(ingredients), size=200, replace=False)
        for pick in picks:
            ingredient = ingredients[int(pick)]
            phrase = renderer.render(ingredient, rng)
            resolution = pipeline.resolve_phrase(phrase)
            assert resolution.kind is MatchKind.EXACT, (
                ingredient.name, phrase,
            )
            assert len(resolution.ingredients) == 1
            assert resolution.ingredients[0] == ingredient

    def test_render_varies(self, renderer, pipeline):
        rng = np.random.default_rng(5)
        tomato = pipeline.catalog.get("tomato")
        phrases = {renderer.render(tomato, rng) for _ in range(30)}
        assert len(phrases) > 5


class TestDecorationVocabulary:
    def test_descriptors_normalise_away(self):
        for descriptor in DESCRIPTORS:
            assert normalize_phrase(descriptor) == [], descriptor

    def test_leading_descriptors_normalise_away(self):
        for descriptor in LEADING_DESCRIPTORS:
            if descriptor:
                assert normalize_phrase(descriptor) == [], descriptor


@pytest.fixture(scope="module")
def scalar_corpus():
    """The walk-test corpus with every region drawn line by line through
    ``render`` and ``_title`` on a numpy ``Generator``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PhraseRenderer, "render_lines", lambda self, *a: None)
        return CorpusGenerator(recipe_scale=WALK_SCALE).generate()


def assert_same_regions(corpus, expected) -> None:
    """Equal tables, checked region by region first for a useful diff."""
    table, oracle = corpus.raw_recipes, expected.raw_recipes
    assert table.regions == oracle.regions
    for code in range(len(table.regions)):
        rows = np.flatnonzero(table.region_idx == code)
        assert np.array_equal(rows, np.flatnonzero(oracle.region_idx == code))
        for row in rows.tolist():
            assert table[row] == oracle[row], (table.regions[code], row)
    assert table == oracle
    assert np.array_equal(corpus.intended_ids, expected.intended_ids)


class TestRegionWalk:
    @pytest.mark.parametrize("block_recipes", [None, 3])
    def test_every_region_equals_the_scalar_path(
        self, monkeypatch, scalar_corpus, block_recipes
    ):
        # Blocks of three recipes carry the position and a buffered half
        # across many block boundaries in every region.
        if block_recipes is not None:
            monkeypatch.setattr(
                renderer_module, "BLOCK_RECIPES", block_recipes
            )
        walked = CorpusGenerator(recipe_scale=WALK_SCALE).generate()
        assert len(walked.region_codes()) == 26
        assert_same_regions(walked, scalar_corpus)

    @pytest.mark.parametrize("rejected_block", [0, 7])
    def test_a_rejected_draw_sends_its_region_to_the_fallback(
        self, monkeypatch, scalar_corpus, rejected_block
    ):
        real_bounded = renderer_module.bounded
        blocks = []

        def bounded(halves, n):
            values, rejected = real_bounded(halves, n)
            if len(blocks) == rejected_block:
                rejected[-1] = True
            blocks.append(len(values))
            return values, rejected

        fallbacks = []
        real_render_region = CorpusGenerator._render_region

        def render_region(self, code, *args):
            fallbacks.append(code)
            return real_render_region(self, code, *args)

        monkeypatch.setattr(renderer_module, "BLOCK_RECIPES", 3)
        monkeypatch.setattr(renderer_module, "bounded", bounded)
        monkeypatch.setattr(CorpusGenerator, "_render_region", render_region)
        walked = CorpusGenerator(recipe_scale=WALK_SCALE).generate()
        assert len(fallbacks) == 1
        assert_same_regions(walked, scalar_corpus)

    def test_generate_peaks_near_the_table_size(self, catalog):
        """Regions are packed as they are rendered, so no corpus-wide
        list of phrase strings is built: the traced peak stays within
        3.5x the corpus's own bytes (about 2.3x here; 5.8x when every
        phrase string, its encoding and a flat list were alive at once).
        """
        catalog.shared_molecule_counts([])  # the catalog's own cache
        generator = CorpusGenerator(recipe_scale=0.25)
        tracemalloc.start()
        try:
            corpus = generator.generate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = corpus.raw_recipes
        size = (
            len(table.phrase_utf8)
            + len(table.instruction_utf8)
            + corpus.intended_ids.nbytes
            + sum(
                array.nbytes
                for array in (
                    table.recipe_ids,
                    table.phrase_offsets,
                    table.phrase_bounds,
                    table.region_idx,
                    table.title_idx,
                    table.source_idx,
                    table.instruction_bounds,
                )
            )
        )
        assert peak < 3.5 * size, (peak, size)

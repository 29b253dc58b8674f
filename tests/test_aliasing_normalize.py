"""Tests for phrase normalisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aliasing import (
    basic_clean,
    is_quantity_token,
    normalize_phrase,
    tokenize,
)
from tests.oracles import (
    whole_phrase_clean,
    whole_phrase_normalize,
    whole_phrase_tokenize,
)


class TestBasicClean:
    def test_lowercases(self):
        assert basic_clean("Fresh BASIL") == "fresh basil"

    def test_strips_punctuation(self):
        assert basic_clean("tomatoes, diced (small)") == "tomatoes diced small"

    def test_hyphens_become_spaces(self):
        assert basic_clean("sun-dried tomato") == "sun dried tomato"

    def test_unicode_accents_folded(self):
        assert basic_clean("jalapeño purée") == "jalapeno puree"

    def test_vulgar_fractions_normalised(self):
        assert "1/2" in basic_clean("½ cup milk")

    def test_fused_quantity_split(self):
        assert basic_clean("250g salmon") == "250 g salmon"
        assert basic_clean("1.5kg flour") == "1.5 kg flour"

    def test_whitespace_collapsed(self):
        assert basic_clean("  a   b  ") == "a b"


class TestBasicCleanEdgeCases:
    """Golden outputs locked in before the single-pass regex rewrite.

    Each expectation was captured from the original multi-pass
    implementation (separate hyphen / punctuation / lone-dot / fused
    quantity passes); the merged-regex rewrite must not change any of
    them.
    """

    @pytest.mark.parametrize(
        ("phrase", "expected"),
        [
            # vulgar fractions, bare and fused with a quantity
            ("½ cup milk", "1/2 cup milk"),
            ("1½kg flour", "1 1/2 kg flour"),
            ("¼lb beef", "1/4 lb beef"),
            ("⅔ cup sugar — sifted", "2/3 cup sugar sifted"),
            # fused quantities
            ("250g salmon", "250 g salmon"),
            ("1.5kg flour", "1.5 kg flour"),
            ("feta (200g) crumbled", "feta 200 g crumbled"),
            # em/en-dash runs and mixed dash runs collapse to one space
            ("salt——pepper", "salt pepper"),
            ("long—–—dash", "long dash"),
            ("2–3 carrots", "2 3 carrots"),
            # decimal points survive, lone dots do not
            ("2.5 oz. butter", "2.5 oz butter"),
            ("no.5 sauce", "no 5 sauce"),
            # combining marks and compatibility forms fold away
            ("jalapeño purée", "jalapeno puree"),
            ("crème fraîche", "creme fraiche"),
            ("jalapen\u0303o", "jalapeno"),  # combining tilde
            ("ﬁne sea salt", "fine sea salt"),
            ("１２ shrimp", "12 shrimp"),
            # full-width hyphen only becomes a dash after NFKD
            ("tomato－paste", "tomato paste"),
            # non-breaking space is whitespace
            ("garlic\xa0cloves", "garlic cloves"),
        ],
    )
    def test_golden(self, phrase, expected):
        assert basic_clean(phrase) == expected


#: Pieces that exercise every rule of the cleaner, including the ones at
#: chunk edges: vulgar fractions, accents and combining marks,
#: compatibility forms, dashes, dots next to digits, fused quantities,
#: punctuation runs and Unicode whitespace; and contextual measures
#: ("cloves garlic") with dropped tokens between them.
_PIECES = st.sampled_from(
    [
        "½", "¼", "⅔", "1½", "2¾kg", "é", "ñ", "crème", "jalapen\u0303o",
        "ﬁ", "１２", "－", "-", "–", "—", "——", ".", "..", "2.", ".5",
        "2.5", "no.5", "oz.", "250g", "1.5kg", "3lb", "2-3", "1/2", "(",
        ")", ",", ";", "!?", "'s", "&", "_", "#1", " ", "  ", "\t", "\n",
        "\xa0", "\u2009", "\u3000", "\x1c", "\x85", "\u2028", "cup",
        "cups", "tomatoes", "Garlic", "cloves", "of", "and", "fresh",
        "a", "x", "7", "0", "clove", "head", "heads", "cabbage", "ear",
        "corn", "stick", "butter", "2 cloves garlic", "cloves, garlic",
    ]
)
_PHRASES = st.one_of(
    st.lists(_PIECES, max_size=12).map("".join),
    st.text(max_size=30),
)


class TestChunkedCleaningMatchesWholePhrase:
    """The per-chunk cleaner equals one pass over the whole phrase."""

    @settings(max_examples=400, deadline=None)
    @given(_PHRASES)
    def test_basic_clean(self, phrase):
        assert basic_clean(phrase) == whole_phrase_clean(phrase)

    @settings(max_examples=400, deadline=None)
    @given(_PHRASES)
    def test_tokenize(self, phrase):
        assert tokenize(phrase) == whole_phrase_tokenize(phrase)

    @settings(max_examples=400, deadline=None)
    @given(_PHRASES)
    def test_normalize_phrase(self, phrase):
        assert normalize_phrase(phrase) == whole_phrase_normalize(phrase)


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ,,, ") == []

    def test_simple(self):
        assert tokenize("2 cups flour") == ["2", "cups", "flour"]


class TestQuantityToken:
    @pytest.mark.parametrize(
        "token", ["2", "12", "1/2", "2.5", "2-3", "½"]
    )
    def test_quantities(self, token):
        assert is_quantity_token(token)

    @pytest.mark.parametrize("token", ["cup", "g2x", "", "two"])
    def test_non_quantities(self, token):
        assert not is_quantity_token(token)


class TestNormalizePhrase:
    def test_paper_example(self):
        # The exact example from Section IV.A of the paper.
        assert normalize_phrase("2 jalapeno peppers, roasted and slit") == [
            "jalapeno", "pepper",
        ]

    def test_units_removed(self):
        assert normalize_phrase("2 cups whole milk") == ["whole", "milk"]

    def test_parenthetical_can(self):
        assert normalize_phrase(
            "1 (14 ounce) can diced tomatoes, drained"
        ) == ["tomato"]

    def test_contextual_clove_of_garlic(self):
        assert normalize_phrase("3 cloves garlic, minced") == ["garlic"]
        assert normalize_phrase("2 cloves of garlic") == ["garlic"]

    def test_clove_the_spice_is_kept(self):
        # "ground" is a soft descriptor (it survives normalisation so
        # names like "ground beef" can match) but "clove" is preserved
        # because no garlic follows it.
        assert normalize_phrase("1 tsp ground cloves") == ["ground", "clove"]

    def test_head_of_cabbage(self):
        assert normalize_phrase("1 head of cabbage, shredded") == ["cabbage"]

    def test_ear_of_corn(self):
        assert normalize_phrase("3 ears of corn") == ["corn"]

    def test_measure_words_removed(self):
        assert normalize_phrase("1 bunch cilantro") == ["cilantro"]

    def test_stopwords_removed(self):
        assert normalize_phrase("salt and pepper to taste") == [
            "salt", "pepper",
        ]

    def test_singularisation_applied(self):
        assert normalize_phrase("strawberries and blueberries") == [
            "strawberry", "blueberry",
        ]

    def test_empty_phrase(self):
        assert normalize_phrase("2 cups") == []

"""Tests for greedy longest-match matching on the token trie."""

from repro.aliasing import TrieMatcher
from repro.datamodel import Category, Ingredient


def make_catalog():
    names = [
        "olive oil",
        "extra virgin olive oil",
        "olive",
        "tomato",
        "sun dried tomato",
        "black pepper",
        "pepper jack cheese base",  # 4-gram
    ]
    ingredients = {
        name: Ingredient(
            ingredient_id=index,
            name=name,
            category=Category.VEGETABLE,
            flavor_profile=frozenset({index}),
        )
        for index, name in enumerate(names)
    }
    return ingredients


def make_matcher(**kwargs):
    catalog = make_catalog()
    return TrieMatcher(catalog.get, frozenset(catalog), **kwargs), catalog


class TestLongestMatch:
    def test_longest_ngram_wins(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match(["extra", "virgin", "olive", "oil"])
        assert [m.surface for m in outcome.matches] == [
            "extra virgin olive oil"
        ]
        assert outcome.leftover_tokens == ()

    def test_two_gram_beats_one_gram(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match(["olive", "oil"])
        assert [m.surface for m in outcome.matches] == ["olive oil"]

    def test_single_token(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match(["olive"])
        assert [m.surface for m in outcome.matches] == ["olive"]

    def test_multiple_matches_in_sequence(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match(["tomato", "black", "pepper"])
        assert [m.surface for m in outcome.matches] == [
            "tomato", "black pepper",
        ]

    def test_leftovers_recorded(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match(["shiny", "tomato", "dust"])
        assert [m.surface for m in outcome.matches] == ["tomato"]
        assert outcome.leftover_tokens == ("shiny", "dust")

    def test_empty_input(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match([])
        assert outcome.matches == ()
        assert outcome.leftover_tokens == ()

    def test_match_positions(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match(["x", "sun", "dried", "tomato"])
        match = outcome.matches[0]
        assert match.start == 1
        assert match.length == 3


class TestMaxNgram:
    def test_max_ngram_respected(self):
        matcher, _catalog = make_matcher(max_ngram=1)
        outcome = matcher.match(["olive", "oil"])
        # With 1-grams only, "olive" matches but "oil" is leftover.
        assert [m.surface for m in outcome.matches] == ["olive"]
        assert outcome.leftover_tokens == ("oil",)


class TestHardLeftovers:
    def test_soft_descriptors_excluded(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match(["dried", "tomato"])
        assert outcome.leftover_tokens == ("dried",)
        assert outcome.hard_leftovers == ()

    def test_hard_leftovers_kept(self):
        matcher, _catalog = make_matcher()
        outcome = matcher.match(["granular", "tomato"])
        assert outcome.hard_leftovers == ("granular",)

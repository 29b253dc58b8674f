"""Property tests: the token trie is equivalent to the n-gram matcher.

The trie is the aliasing matcher; the probing n-gram matcher in
``tests/oracles.py`` is its specification. Hypothesis drives both over
arbitrary vocabularies and token streams — including curation updates
via ``add_name`` — and asserts identical matches, surfaces and leftovers.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aliasing import MAX_NGRAM, TrieMatcher
from repro.datamodel import Category, Ingredient
from tests.oracles import NGramMatcher

# A tiny closed token alphabet maximises accidental overlaps between
# vocabulary names and query streams — the interesting cases.
TOKENS = ("olive", "oil", "red", "onion", "sea", "salt", "rice", "wine")

token = st.sampled_from(TOKENS)
name = st.lists(token, min_size=1, max_size=4).map(" ".join)
stream = st.lists(token, min_size=0, max_size=12)


def _make_vocab(names: list[str]) -> dict[str, Ingredient]:
    vocab: dict[str, Ingredient] = {}
    for index, surface in enumerate(dict.fromkeys(names)):
        vocab[surface] = Ingredient(
            ingredient_id=1000 + index,
            name=surface,
            category=Category.SPICE,
        )
    return vocab


def _build_both(
    vocab: dict[str, Ingredient], max_ngram: int
) -> tuple[TrieMatcher, NGramMatcher]:
    trie = TrieMatcher(vocab.get, frozenset(vocab), max_ngram=max_ngram)
    return trie, NGramMatcher(vocab.get, max_ngram=max_ngram)


def _assert_equivalent(trie, ngram, tokens: list[str]) -> None:
    left = trie.match(tuple(tokens))
    right = ngram.match(tuple(tokens))
    assert left.matches == right.matches
    assert left.leftover_tokens == right.leftover_tokens
    assert left.hard_leftovers == right.hard_leftovers


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(name, min_size=0, max_size=8),
    tokens=stream,
    max_ngram=st.integers(min_value=1, max_value=MAX_NGRAM),
)
def test_trie_matches_ngram_reference(names, tokens, max_ngram):
    vocab = _make_vocab(names)
    trie, ngram = _build_both(vocab, max_ngram)
    _assert_equivalent(trie, ngram, tokens)


@settings(max_examples=200, deadline=None)
@given(
    names=st.lists(name, min_size=0, max_size=6),
    added=st.lists(name, min_size=1, max_size=4),
    tokens=stream,
)
def test_trie_matches_ngram_after_curation(names, added, tokens):
    """``add_name`` keeps the trie equal to the oracle's live resolver."""
    vocab = _make_vocab(names)
    trie, ngram = _build_both(vocab, MAX_NGRAM)
    for index, surface in enumerate(added):
        if surface not in vocab:
            vocab[surface] = Ingredient(
                ingredient_id=2000 + index,
                name=surface,
                category=Category.SPICE,
            )
        trie.add_name(surface)
        _assert_equivalent(trie, ngram, tokens)


def test_trie_prefers_longest_match():
    vocab = _make_vocab(["olive", "olive oil", "sea salt"])
    trie, _ = _build_both(vocab, MAX_NGRAM)
    outcome = trie.match(("olive", "oil", "sea", "salt"))
    assert [m.surface for m in outcome.matches] == ["olive oil", "sea salt"]
    assert outcome.leftover_tokens == ()


def test_trie_caps_match_length_at_max_ngram():
    vocab = _make_vocab(["red onion rice wine", "red onion"])
    trie, ngram = _build_both(vocab, 2)
    _assert_equivalent(trie, ngram, ["red", "onion", "rice", "wine"])
    outcome = trie.match(("red", "onion", "rice", "wine"))
    assert [m.surface for m in outcome.matches] == ["red onion"]


def test_trie_ignores_unresolvable_and_malformed_names():
    vocab = _make_vocab(["olive oil"])
    trie = TrieMatcher(vocab.get, frozenset(vocab))
    trie.add_name("")  # empty
    trie.add_name("sea  salt")  # double space -> empty token
    trie.add_name("rice wine")  # resolver does not know it
    outcome = trie.match(("sea", "salt", "rice", "wine"))
    assert outcome.matches == ()
    assert outcome.leftover_tokens == ("sea", "salt", "rice", "wine")


def test_trie_first_write_wins_on_duplicate_names():
    vocab = _make_vocab(["olive oil"])
    first = vocab["olive oil"]
    trie = TrieMatcher(vocab.get, frozenset(vocab))
    vocab["olive oil"] = dataclasses.replace(first, ingredient_id=9999)
    trie.add_name("olive oil")  # re-registration must not rebind
    outcome = trie.match(("olive", "oil"))
    assert outcome.matches[0].ingredient is first

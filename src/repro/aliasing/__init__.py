"""Ingredient aliasing: free-text phrases -> canonical catalog ingredients.

From-scratch replacements for the paper's NLTK + inflect protocol:
normalisation, stopword stripping, singularisation, greedy longest-first
n-gram matching (up to 6-grams) on a token trie, and the
partial/unrecognised curation report.
"""

from .curation import CurationCandidate, CurationSession
from .fuzzy import (
    MIN_TOKEN_LENGTH,
    TokenCorrector,
    damerau_levenshtein_within_one,
    vocabulary_from_names,
)
from .matcher import MAX_NGRAM, SOFT_DESCRIPTORS, MatchOutcome, TokenMatch
from .normalize import basic_clean, normalize_phrase, tokenize
from .pipeline import (
    ALIASING_SHARD_SIZE,
    AliasingPipeline,
    AliasingResult,
    MatchKind,
    MatchReport,
    PhraseResolution,
)
from .trie import TrieMatcher
from .singularize import IRREGULAR_PLURALS, INVARIANT_WORDS, singularize
from .stopwords import (
    CONTEXTUAL_MEASURES,
    CULINARY_STOPWORDS,
    ENGLISH_STOPWORDS,
    MEASURE_WORDS,
    UNITS,
    is_quantity_token,
)

__all__ = [
    "CurationCandidate",
    "CurationSession",
    "MIN_TOKEN_LENGTH",
    "TokenCorrector",
    "damerau_levenshtein_within_one",
    "vocabulary_from_names",
    "MAX_NGRAM",
    "SOFT_DESCRIPTORS",
    "MatchOutcome",
    "TrieMatcher",
    "TokenMatch",
    "ALIASING_SHARD_SIZE",
    "basic_clean",
    "normalize_phrase",
    "tokenize",
    "AliasingPipeline",
    "AliasingResult",
    "MatchKind",
    "MatchReport",
    "PhraseResolution",
    "IRREGULAR_PLURALS",
    "INVARIANT_WORDS",
    "singularize",
    "CONTEXTUAL_MEASURES",
    "CULINARY_STOPWORDS",
    "ENGLISH_STOPWORDS",
    "MEASURE_WORDS",
    "UNITS",
    "is_quantity_token",
]

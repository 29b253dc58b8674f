"""Phrase normalisation: raw ingredient line -> content tokens.

Implements the paper's multi-step protocol (Section IV.A): lower-casing,
punctuation and special-character removal, stopword (including culinary
stopword) removal, and singularisation — then additionally strips
quantities, units and measure words so only content tokens remain.

This is the hottest string path of a cold build (every ingredient phrase
of a 45k-recipe corpus passes through here), so it pays once per distinct
value rather than once per phrase. The whole phrase is lower-cased and
folded to ASCII (vulgar fractions through one ``str.translate`` table,
the Unicode NFKD fold skipped entirely for pure-ASCII input), then split
on whitespace; each whitespace chunk is cleaned, singularised and
classified once and memoised (:func:`_clean_chunk`). The 413k phrases of
the full corpus hold only about 2.5k distinct chunks.

Working per chunk is exact. The merged punctuation regex never matches
whitespace, its lookarounds only test for a digit (which neither
whitespace nor a string end is), and the fused-quantity split is bounded
by ``\b``, so a chunk is cleaned exactly as it would be inside the whole
phrase. Singularising and classifying look at one token at a time, and
the one rule that looks further — a contextual measure ("cloves garlic")
checks the next token that is not dropped — sees the same token whether
the dropped ones were removed per chunk or per phrase. The golden tests
in ``tests/test_aliasing_normalize.py`` pin the output of the original
multi-pass implementation, and property tests check the chunked path
against the whole-phrase implementation kept in ``tests/oracles.py``.

Example::

    >>> normalize_phrase("2 Jalapeno Peppers, roasted and slit")
    ['jalapeno', 'pepper']
    >>> normalize_phrase("1 (14 ounce) can diced tomatoes, drained")
    ['tomato']
"""

from __future__ import annotations

import functools
import re
import unicodedata

from .singularize import singularize
from .stopwords import (
    CONTEXTUAL_MEASURES,
    CULINARY_STOPWORDS,
    ENGLISH_STOPWORDS,
    MEASURE_WORDS,
    UNITS,
    is_quantity_token,
)

#: Unicode vulgar fractions normalised to ASCII a/b form.
_VULGAR_FRACTIONS = {
    "½": "1/2", "⅓": "1/3", "⅔": "2/3", "¼": "1/4", "¾": "3/4",
    "⅛": "1/8", "⅜": "3/8", "⅝": "5/8", "⅞": "7/8",
}

#: One-pass character substitutions applied before the NFKD fold:
#: vulgar fractions expand to padded ASCII (they must be rewritten
#: before NFKD would decompose them into ``1⁄2`` fraction-slash forms).
_TRANSLATE_TABLE = {
    ord(vulgar): f" {ascii_form} "
    for vulgar, ascii_form in _VULGAR_FRACTIONS.items()
}

# The original implementation ran separate hyphen, punctuation and
# lone-dot passes *after* the NFKD fold (so compatibility characters
# that decompose into dashes or ASCII hyphens are still caught). One
# merged regex keeps that order while scanning the string once: every
# alternative is replaced by a space, so runs collapse into one match.
#  * ``[-–—]`` — hyphen-minus and en/em dashes become spaces,
#  * ``[^\w\s/\-.]`` — punctuation and special characters,
#  * ``(?<!\d)\.|\.(?!\d)`` — dots that are not decimal points.
_CLEAN_RE = re.compile(
    r"(?:[-–—]|[^\w\s/\-.]|(?<!\d)\.|\.(?!\d))+", flags=re.UNICODE
)
# "250g" / "2kg": a number fused with a unit suffix.
_FUSED_QUANTITY_RE = re.compile(r"\b(\d+(?:\.\d+)?)([a-z]+)\b")


def _fold(phrase: str) -> str:
    """Lower-case; expand vulgar fractions; strip accents to ASCII."""
    text = phrase.lower()
    # Vulgar fractions are non-ASCII, so pure-ASCII input (the vast
    # majority of phrases) skips the translate pass and the NFKD fold.
    if not text.isascii():
        text = text.translate(_TRANSLATE_TABLE)
        if not text.isascii():
            text = unicodedata.normalize("NFKD", text)
            if not text.isascii():
                text = "".join(
                    char for char in text if not unicodedata.combining(char)
                )
    return text


def tokenize(phrase: str) -> list[str]:
    """Split a raw phrase into cleaned raw tokens."""
    tokens: list[str] = []
    for chunk in _fold(phrase).split():
        tokens.extend(_clean_chunk(chunk)[0])
    return tokens


def basic_clean(phrase: str) -> str:
    """Lower-case, normalise unicode, replace punctuation with spaces."""
    return " ".join(tokenize(phrase))


_DROP, _KEEP, _CONTEXTUAL = 0, 1, 2


def _classify(token: str) -> int:
    """Classify one singularised token.

    Check order mirrors the original inline sequence exactly: a token in
    both ``MEASURE_WORDS`` and ``CONTEXTUAL_MEASURES`` ("stick", "head")
    is unconditionally dropped, never contextual.
    """
    if not token or is_quantity_token(token):
        return _DROP
    if token in UNITS or token in MEASURE_WORDS:
        return _DROP
    if token in ENGLISH_STOPWORDS or token in CULINARY_STOPWORDS:
        return _DROP
    if token in CONTEXTUAL_MEASURES:
        return _CONTEXTUAL
    return _KEEP


@functools.lru_cache(maxsize=65536)
def _clean_chunk(chunk: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One folded, whitespace-free chunk: its raw tokens, and its
    singularised tokens that are not dropped outright.

    Punctuation runs and lone dots become breaks, and fused quantities
    ("250g") split in two. The second tuple is what
    :func:`normalize_phrase` reads: quantities, units, measure words and
    stopwords never reach the output, and the contextual-measure rule
    only looks at the next token that is not one of them.
    """
    text = _CLEAN_RE.sub(" ", chunk)
    text = _FUSED_QUANTITY_RE.sub(r"\1 \2", text)
    tokens = tuple(text.split())
    singular = (singularize(token) for token in tokens)
    return tokens, tuple(t for t in singular if _classify(t) != _DROP)


def normalize_phrase(phrase: str) -> list[str]:
    """Full normalisation: raw line -> singularised content tokens.

    Order of operations matters: singularise first (so plural units like
    "cups" are recognised), then drop quantities, units, measure words and
    stopwords, handling contextual measures ("cloves garlic") by looking at
    the following content token.
    """
    kept: list[str] = []
    for chunk in _fold(phrase).split():
        kept.extend(_clean_chunk(chunk)[1])
    content: list[str] = []
    last = len(kept) - 1
    for position, token in enumerate(kept):
        if token in CONTEXTUAL_MEASURES:
            following = kept[position + 1] if position < last else None
            if following in CONTEXTUAL_MEASURES[token]:
                continue
        content.append(token)
    return content

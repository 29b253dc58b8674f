"""What greedy longest-match n-gram matching produces, and its limits.

The paper creates n-grams (up to 6-grams) from ingredient phrases and maps
them onto the curated ingredient list: scanning content tokens left to
right, the longest n-gram wins ("extra virgin olive oil" before "olive
oil" before "olive"), so multi-word ingredients win over their
sub-words. Unmatched tokens are kept as leftovers for the
manual-curation report. :class:`~repro.aliasing.trie.TrieMatcher`
implements the scan; this module holds its vocabulary: the n-gram bound,
the soft descriptors and the match records.
"""

from __future__ import annotations

import dataclasses

from ..datamodel import Ingredient

#: Maximum n-gram length, per the paper.
MAX_NGRAM = 6

#: Descriptors that may legitimately remain unmatched next to a matched
#: ingredient ("dried oregano" matches oregano, "dried" is soft leftover).
#: Soft leftovers do not demote a phrase to a partial match.
SOFT_DESCRIPTORS: frozenset[str] = frozenset(
    """
    dried ground whole sweet baby raw wild organic instant light dark mini
    premium quality style real homemade natural pure genuine authentic
    regular reduced fat low sodium free skinned boned flat leaf italian
    extra hot split
    english french virgin
    """.split()
)


@dataclasses.dataclass(frozen=True, slots=True)
class TokenMatch:
    """One matched n-gram within a token sequence."""

    start: int
    length: int
    surface: str
    ingredient: Ingredient


@dataclasses.dataclass(frozen=True, slots=True)
class MatchOutcome:
    """Everything the matcher found in one token sequence."""

    matches: tuple[TokenMatch, ...]
    leftover_tokens: tuple[str, ...]

    @property
    def hard_leftovers(self) -> tuple[str, ...]:
        """Leftover tokens that are not soft descriptors."""
        return tuple(
            token
            for token in self.leftover_tokens
            if token not in SOFT_DESCRIPTORS
        )

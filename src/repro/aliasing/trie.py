"""Token-trie greedy longest-match: the aliasing matcher.

The paper's matcher probes n-grams longest-first, joining one candidate
string per length at every position and looking each up. The trie
compiles the normalised vocabulary once into nested token dictionaries
and then walks each token sequence left to right, tracking the deepest
terminal node seen. Longest-match resolution therefore needs **zero**
candidate-string allocations — the only strings built are the surfaces
of actual matches, and even those are interned at compile time.

The probing n-gram matcher is the specification. It lives on as a test
oracle (``tests/oracles.py``), and a hypothesis property
(``tests/test_aliasing_trie.py``) asserts the two agree — same matches,
same leftovers, same surfaces, for any token sequence and any
``max_ngram``, including after curation updates via
:meth:`TrieMatcher.add_name`. Its recorded cost is in DESIGN.md §5.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..datamodel import Ingredient
from .matcher import MAX_NGRAM, MatchOutcome, TokenMatch

__all__ = ["TrieMatcher"]

#: Key under which a trie node stores its terminal payload. An empty
#: string can never collide with a real token (tokens are non-empty
#: words), so children and payload share one dict per node.
_TERMINAL = ""


class TrieMatcher:
    """Greedy longest-match via a token-level trie over the vocabulary.

    ``resolve`` maps a surface form to its ingredient (the trie
    snapshots the resolution at insert time — the pipeline never
    rebinds an existing key); ``known_names`` seeds the trie.
    """

    __slots__ = ("_resolve", "_root", "_max_ngram")

    def __init__(
        self,
        resolve: Callable[[str], Ingredient | None],
        known_names: frozenset[str],
        max_ngram: int = MAX_NGRAM,
    ) -> None:
        """
        Args:
            resolve: maps a candidate surface form to an ingredient, or
                ``None``; consulted once per inserted name.
            known_names: every resolvable surface form.
            max_ngram: longest token run to match (names longer than
                this are stored but can never match).
        """
        self._resolve = resolve
        self._root: dict = {}
        self._max_ngram = max_ngram
        for name in known_names:
            self.add_name(name)

    def add_name(self, name: str) -> None:
        """Insert a resolvable surface form (curation workflow).

        The ingredient is resolved now and stored at the terminal node;
        an unresolvable or empty name is ignored.
        """
        tokens = name.split(" ")
        if not name or not all(tokens):
            return
        ingredient = self._resolve(name)
        if ingredient is None:
            return
        node = self._root
        for token in tokens:
            child = node.get(token)
            if child is None:
                child = {}
                node[token] = child
            node = child
        # First write wins, matching the pipeline's canonical-precedence
        # rule (register_alias never rebinds an existing key either).
        node.setdefault(_TERMINAL, (name, ingredient))

    def match(self, tokens: Sequence[str]) -> MatchOutcome:
        """Scan ``tokens`` and return matches plus leftovers.

        At each position take the longest known name starting there
        (within ``max_ngram``), else emit the token as a leftover and
        advance one.
        """
        matches: list[TokenMatch] = []
        leftovers: list[str] = []
        root = self._root
        max_ngram = self._max_ngram
        position = 0
        count = len(tokens)
        while position < count:
            node = root.get(tokens[position])
            best: tuple[str, Ingredient] | None = None
            best_length = 0
            if node is not None and max_ngram >= 1:
                payload = node.get(_TERMINAL)
                if payload is not None:
                    best, best_length = payload, 1
                depth = 1
                limit = min(max_ngram, count - position)
                while depth < limit:
                    node = node.get(tokens[position + depth])
                    if node is None:
                        break
                    depth += 1
                    payload = node.get(_TERMINAL)
                    if payload is not None:
                        best, best_length = payload, depth
            if best is None:
                leftovers.append(tokens[position])
                position += 1
            else:
                matches.append(
                    TokenMatch(position, best_length, best[0], best[1])
                )
                position += best_length
        return MatchOutcome(tuple(matches), tuple(leftovers))

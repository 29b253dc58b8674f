"""The end-to-end ingredient aliasing pipeline.

Maps raw recipe records onto resolved :class:`~repro.datamodel.Recipe`
objects: each ingredient phrase is normalised
(:mod:`repro.aliasing.normalize`), matched against the catalog by greedy
longest-first token matching (:mod:`repro.aliasing.trie`), and
classified as exact / partial / unrecognised. Partial and unrecognised
phrases feed a :class:`MatchReport` that surfaces the most frequent
unmatched n-grams — the paper's mechanism for discovering ingredients
"either not present in the database or variations of existing entities"
for manual curation.

Cold-build fast path: normalisation memoises per whitespace chunk
(:mod:`repro.aliasing.normalize`), matching runs on the token trie, and
matching is memoised per content-token tuple: raw lines rarely repeat
(355k of the full corpus's 413k are distinct), but they reduce to about
1,000 distinct token tuples. A bounded memo maps each tuple to its match
(``repro_aliasing_phrase_cache_{hits,misses}_total`` count its traffic;
:class:`MatchReport` occurrence counting is never cached).
:meth:`AliasingPipeline.resolve_corpus` aliases a corpus in one process,
in corpus order, so its result depends only on the raw recipes and the
pipeline's catalog, aliases and options; ``--workers`` fans out Monte
Carlo sampling only and never reaches it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import threading
import time
from collections import Counter
from collections.abc import Iterable

from ..datamodel import Ingredient, RawRecipe, Recipe
from ..flavordb import IngredientCatalog, default_catalog
from ..obs import get_registry, span
from .matcher import MAX_NGRAM, MatchOutcome
from .normalize import normalize_phrase
from .trie import TrieMatcher

#: Default bound on the token-tuple memo. About 1,000 distinct content-
#: token tuples cover the full corpus, so a long-lived server has ample
#: room for phrases the corpus never produced; entries are tiny (a tuple
#: of tuples).
DEFAULT_PHRASE_CACHE = 65536


class MatchKind(enum.Enum):
    """Classification of one phrase's aliasing outcome."""

    EXACT = "exact"  # every content token consumed (soft leftovers allowed)
    PARTIAL = "partial"  # matched something, hard leftovers remain
    UNRECOGNIZED = "unrecognized"  # nothing matched


#: What the memo keeps per content-token tuple: the tokens after any
#: fuzzy correction, the ingredients, the leftover tokens and the kind —
#: a :class:`PhraseResolution` without its phrase.
_Match = tuple[
    tuple[str, ...], tuple[Ingredient, ...], tuple[str, ...], MatchKind
]


@dataclasses.dataclass(frozen=True, slots=True)
class PhraseResolution:
    """Result of aliasing one ingredient phrase."""

    phrase: str
    content_tokens: tuple[str, ...]
    ingredients: tuple[Ingredient, ...]
    leftover_tokens: tuple[str, ...]
    kind: MatchKind


class MatchReport:
    """Aggregate aliasing statistics plus a curation queue.

    Collects, per the paper's protocol, n-grams (up to 6) built from the
    leftover tokens of partial/unrecognised phrases, ranked by frequency,
    so a curator can spot missing ingredients or unmapped variants.
    """

    def __init__(self) -> None:
        self.phrase_counts: Counter[MatchKind] = Counter()
        self.recipes_total = 0
        self.recipes_resolved = 0
        self._unmatched_ngrams: Counter[str] = Counter()

    def record_phrase(self, resolution: PhraseResolution) -> None:
        self.record_match(resolution.kind, resolution.leftover_tokens)

    def record_match(
        self, kind: MatchKind, leftovers: tuple[str, ...]
    ) -> None:
        """:meth:`record_phrase` from a resolution's kind and leftovers."""
        self.phrase_counts[kind] += 1
        if kind is MatchKind.EXACT:
            return
        for length in range(1, min(MAX_NGRAM, len(leftovers)) + 1):
            for start in range(len(leftovers) - length + 1):
                self._unmatched_ngrams[
                    " ".join(leftovers[start : start + length])
                ] += 1

    def record_recipe(self, resolved: bool) -> None:
        self.recipes_total += 1
        if resolved:
            self.recipes_resolved += 1

    @property
    def phrases_total(self) -> int:
        return sum(self.phrase_counts.values())

    def exact_rate(self) -> float:
        """Fraction of phrases aliased exactly (0 when nothing processed)."""
        total = self.phrases_total
        if total == 0:
            return 0.0
        return self.phrase_counts[MatchKind.EXACT] / total

    def top_unmatched(self, limit: int = 20) -> list[tuple[str, int]]:
        """Most frequent unmatched n-grams, for manual curation."""
        return self._unmatched_ngrams.most_common(limit)

    def __repr__(self) -> str:
        return (
            f"MatchReport(phrases={self.phrases_total}, "
            f"exact={self.phrase_counts[MatchKind.EXACT]}, "
            f"partial={self.phrase_counts[MatchKind.PARTIAL]}, "
            f"unrecognized={self.phrase_counts[MatchKind.UNRECOGNIZED]}, "
            f"recipes={self.recipes_resolved}/{self.recipes_total})"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class AliasingResult:
    """Output of aliasing a corpus: resolved recipes plus the report."""

    recipes: tuple[Recipe, ...]
    report: MatchReport


class AliasingPipeline:
    """Normalise, match and resolve ingredient phrases against a catalog."""

    def __init__(
        self,
        catalog: IngredientCatalog | None = None,
        fuzzy: bool = False,
        phrase_cache_size: int = DEFAULT_PHRASE_CACHE,
    ) -> None:
        """
        Args:
            catalog: ingredient catalog (defaults to the shared one).
            fuzzy: enable conservative single-edit typo correction for
                tokens the exact matcher leaves over (see
                :mod:`repro.aliasing.fuzzy`).
            phrase_cache_size: bound on the memo from content tokens
                to their match; ``0`` disables memoisation entirely.
        """
        self._catalog = catalog if catalog is not None else default_catalog()
        # Key every resolvable surface form by its *normalised* token string
        # so names containing stopwords ("hearts of palm" -> "heart palm")
        # still match the normalised phrase stream. Canonical names take
        # precedence over synonyms on collision.
        self._normalized_map: dict[str, Ingredient] = {}
        canonical_names = [i.name for i in self._catalog.ingredients]
        synonyms = sorted(self._catalog.known_names() - set(canonical_names))
        for surface in canonical_names + synonyms:
            key = " ".join(normalize_phrase(surface))
            if key and key not in self._normalized_map:
                self._normalized_map[key] = self._catalog.get(surface)
        self._matcher = TrieMatcher(
            self._normalized_map.get, frozenset(self._normalized_map)
        )
        self._corrector = None
        if fuzzy:
            from .fuzzy import TokenCorrector, vocabulary_from_names

            self._corrector = TokenCorrector(
                vocabulary_from_names(self._normalized_map)
            )
        self._phrase_cache_size = max(0, phrase_cache_size)
        # functools.lru_cache is bounded and thread-safe; the thread-local
        # flag tells resolve_phrase whether its own lookup missed.
        self._memo = (
            functools.lru_cache(maxsize=self._phrase_cache_size)(
                self._resolve_tokens_on_miss
            )
            if self._phrase_cache_size
            else None
        )
        self._memo_lookup = threading.local()
        registry = get_registry()
        self._cache_hits = registry.counter(
            "repro_aliasing_phrase_cache_hits_total"
        )
        self._cache_misses = registry.counter(
            "repro_aliasing_phrase_cache_misses_total"
        )

    @property
    def catalog(self) -> IngredientCatalog:
        return self._catalog

    def normalized_names(self) -> frozenset[str]:
        """All normalised surface forms the matcher can resolve."""
        return frozenset(self._normalized_map)

    def phrase_cache_info(self) -> tuple[int, int]:
        """(entries, capacity) of the token memo — observability hook."""
        if self._memo is None:
            return 0, 0
        return self._memo.cache_info().currsize, self._phrase_cache_size

    def register_alias(self, normalized_key: str, ingredient: Ingredient) -> None:
        """Add a runtime alias: a normalised surface form -> ingredient.

        Used by the manual-curation workflow
        (:class:`repro.aliasing.curation.CurationSession`). Existing keys
        are not overwritten — canonical mappings win. Memoised matches
        are dropped: a new alias can change any phrase's outcome.
        """
        if normalized_key not in self._normalized_map:
            self._normalized_map[normalized_key] = ingredient
            self._matcher.add_name(normalized_key)
            if self._memo is not None:
                self._memo.cache_clear()

    def resolve_phrase(self, phrase: str) -> PhraseResolution:
        """Alias one raw ingredient line.

        The match depends only on the line's content tokens, so it is
        memoised per token tuple and wrapped around the caller's phrase;
        a hit means "these tokens were resolved before".
        :class:`MatchReport` counting happens per occurrence at the call
        sites, never here.
        """
        return PhraseResolution(phrase, *self._match(phrase))

    def _match(self, phrase: str) -> _Match:
        tokens = tuple(normalize_phrase(phrase))
        if self._memo is None:
            return self._resolve_tokens(tokens)
        lookup = self._memo_lookup
        lookup.missed = False
        match = self._memo(tokens)
        if lookup.missed:
            self._cache_misses.incr()
        else:
            self._cache_hits.incr()
        return match

    def _resolve_tokens_on_miss(self, tokens: tuple[str, ...]) -> _Match:
        self._memo_lookup.missed = True
        return self._resolve_tokens(tokens)

    def _resolve_tokens(self, tokens: tuple[str, ...]) -> _Match:
        outcome: MatchOutcome = self._matcher.match(tokens)
        if self._corrector is not None and outcome.hard_leftovers:
            corrected = self._correct_tokens(tokens, outcome)
            if corrected != tokens:
                retried = self._matcher.match(corrected)
                # Accept the correction only if it strictly improves the
                # match (paper: minimise false positives).
                if len(retried.matches) > len(outcome.matches) or (
                    len(retried.matches) == len(outcome.matches)
                    and len(retried.hard_leftovers)
                    < len(outcome.hard_leftovers)
                ):
                    tokens = corrected
                    outcome = retried
        ingredients = tuple(match.ingredient for match in outcome.matches)
        if not ingredients:
            kind = MatchKind.UNRECOGNIZED
        elif outcome.hard_leftovers:
            kind = MatchKind.PARTIAL
        else:
            kind = MatchKind.EXACT
        return tokens, ingredients, outcome.leftover_tokens, kind

    def _correct_tokens(
        self, tokens: tuple[str, ...], outcome: MatchOutcome
    ) -> tuple[str, ...]:
        """Fuzzy-correct only the tokens the matcher left over.

        Tokens inside a match are by definition vocabulary tokens, so
        correcting them is a guaranteed no-op — skipping them saves the
        corrector probes entirely.
        """
        assert self._corrector is not None
        consumed = bytearray(len(tokens))
        for match in outcome.matches:
            for index in range(match.start, match.start + match.length):
                consumed[index] = 1
        corrected = list(tokens)
        for index, token in enumerate(tokens):
            if consumed[index]:
                continue
            replacement = self._corrector.correct(token)
            if replacement is not None:
                corrected[index] = replacement
        return tuple(corrected)

    def resolve_recipe(
        self, raw: RawRecipe, report: MatchReport | None = None
    ) -> Recipe | None:
        """Alias one raw recipe; ``None`` when no ingredient resolved.

        Matched ingredients from partial phrases are kept (the paper
        maximises information retrieval while labelling partial matches for
        curation); duplicate ingredient mentions collapse.
        """
        ingredient_ids: set[int] = set()
        for phrase in raw.ingredient_phrases:
            _tokens, ingredients, leftovers, kind = self._match(phrase)
            if report is not None:
                report.record_match(kind, leftovers)
            ingredient_ids.update(
                ingredient.ingredient_id for ingredient in ingredients
            )
        resolved = bool(ingredient_ids)
        if report is not None:
            report.record_recipe(resolved)
        if not resolved:
            return None
        return Recipe(
            recipe_id=raw.recipe_id,
            region_code=raw.region_code,
            ingredient_ids=frozenset(ingredient_ids),
            title=raw.title,
            source=raw.source,
        )

    def resolve_corpus(self, raws: Iterable[RawRecipe]) -> AliasingResult:
        """Alias a whole corpus in order, collecting the curation report."""
        with span("aliasing.resolve_corpus") as trace:
            started = time.perf_counter()
            report = MatchReport()
            recipes = []
            for raw in raws:
                recipe = self.resolve_recipe(raw, report)
                if recipe is not None:
                    recipes.append(recipe)
            elapsed = time.perf_counter() - started
            registry = get_registry()
            for kind in MatchKind:
                count = report.phrase_counts[kind]
                trace.incr(f"phrases_{kind.value}", count)
                if count:
                    registry.counter(
                        "repro_aliasing_phrases_total", kind=kind.value
                    ).incr(count)
            trace.incr("recipes_resolved", report.recipes_resolved)
            trace.incr("recipes_total", report.recipes_total)
            if elapsed > 0:
                trace.set(
                    "recipes_per_sec", round(report.recipes_total / elapsed, 1)
                )
            registry.counter("repro_aliasing_recipes_total").incr(
                report.recipes_total
            )
            return AliasingResult(tuple(recipes), report)

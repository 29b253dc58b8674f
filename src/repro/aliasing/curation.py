"""Manual-curation workflow for unmatched ingredient phrases.

The paper's protocol (Section IV.A): partial matches and unrecognised
ingredients are "explicitly labeled for manual curation", and n-grams
built from them identify "commonly occurring ingredients which were
either not present in the database or were variations of existing
entities". :class:`CurationSession` implements the loop around that:

1. alias a corpus and collect the :class:`~repro.aliasing.MatchReport`;
2. review the most frequent unmatched n-grams
   (:meth:`CurationSession.queue`);
3. register each as an alias of an existing ingredient
   (:meth:`CurationSession.register_alias`) — the pipeline resolves it
   from then on;
4. re-resolve and measure the improvement
   (:meth:`CurationSession.reresolve`).

Registered aliases live on the pipeline (a runtime overlay over the
immutable catalog); :meth:`CurationSession.export_aliases` returns them
in the shape of :data:`repro.flavordb.SYNONYMS` so a curator can fold
them back into the catalog data.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

from ..datamodel import LookupFailure, RawRecipe, RawRecipeTable
from .normalize import normalize_phrase
from .pipeline import AliasingPipeline, AliasingResult, MatchKind


@dataclasses.dataclass(frozen=True, slots=True)
class CurationCandidate:
    """One unmatched n-gram awaiting a curator's decision."""

    surface: str
    occurrences: int


class CurationSession:
    """Iterative alias curation against one pipeline."""

    def __init__(self, pipeline: AliasingPipeline) -> None:
        self._pipeline = pipeline
        self._registered: dict[str, str] = {}
        self._last_result: AliasingResult | None = None

    @property
    def pipeline(self) -> AliasingPipeline:
        return self._pipeline

    @property
    def registered(self) -> dict[str, str]:
        """Aliases registered so far: surface form -> canonical name."""
        return dict(self._registered)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def resolve(
        self, raws: RawRecipeTable | Iterable[RawRecipe]
    ) -> AliasingResult:
        """Alias a corpus and remember the report for queue building."""
        self._raws = _table(raws)
        self._last_result = self._pipeline.resolve_corpus(self._raws)
        return self._last_result

    def queue(self, limit: int = 20) -> list[CurationCandidate]:
        """Most frequent unmatched n-grams from the last resolution.

        Raises:
            LookupFailure: when :meth:`resolve` has not run yet.
        """
        if self._last_result is None:
            raise LookupFailure("run resolve() before requesting the queue")
        return [
            CurationCandidate(surface=ngram, occurrences=count)
            for ngram, count in self._last_result.report.top_unmatched(limit)
        ]

    def register_alias(self, surface: str, canonical_name: str) -> None:
        """Map a new surface form onto an existing catalog ingredient.

        The surface is normalised through the standard pipeline steps so
        it matches the token stream ("Portobello Caps" and "portobello
        cap" register the same key).

        Raises:
            LookupFailure: when the canonical ingredient does not exist or
                the surface normalises to nothing.
        """
        ingredient = self._pipeline.catalog.resolve(canonical_name)
        if ingredient is None:
            raise LookupFailure(
                f"unknown canonical ingredient {canonical_name!r}"
            )
        key = " ".join(normalize_phrase(surface))
        if not key:
            raise LookupFailure(
                f"surface {surface!r} normalises to nothing"
            )
        self._pipeline.register_alias(key, ingredient)
        self._registered[key] = ingredient.name

    def reresolve(self) -> AliasingResult:
        """Re-alias the last corpus with the registered aliases applied."""
        if self._last_result is None:
            raise LookupFailure("run resolve() before reresolve()")
        self._last_result = self._pipeline.resolve_corpus(self._raws)
        return self._last_result

    def export_aliases(self) -> dict[str, str]:
        """Registered aliases in :data:`repro.flavordb.SYNONYMS` shape."""
        return dict(self._registered)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def exact_rate(self) -> float:
        """Exact-match rate of the last resolution."""
        if self._last_result is None:
            return 0.0
        return self._last_result.report.exact_rate()

    def unresolved_phrases(
        self, raws: RawRecipeTable | Iterable[RawRecipe] | None = None
    ):
        """Phrases still not exactly matched (for spot checks)."""
        source = _table(raws) if raws is not None else self._raws
        leftovers = []
        for phrase in source.phrases():
            resolution = self._pipeline.resolve_phrase(phrase)
            if resolution.kind is not MatchKind.EXACT:
                leftovers.append(resolution)
        return leftovers


def _table(raws: RawRecipeTable | Iterable[RawRecipe]) -> RawRecipeTable:
    """``raws`` as a table (a table passes through)."""
    if isinstance(raws, RawRecipeTable):
        return raws
    return RawRecipeTable.from_recipes(raws)

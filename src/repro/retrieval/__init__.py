"""``repro.retrieval`` — indexed top-k similarity & recommendation serving.

The pairing machinery answers "score this recipe"; the interactive
workload users actually generate is retrieval: most-similar ingredients,
best completions for a partial recipe, nearest cuisines. This package
turns those from O(universe) scans into index walks:

* :mod:`repro.retrieval.index` — :class:`RetrievalIndex`, the inverted
  molecule→ingredient postings plus precomputed sorted neighbor lists
  and cuisine prevalence vectors, built as the content-addressed
  ``retrieval_index`` engine stage.
* :mod:`repro.retrieval.queries` — the top-k kernels
  (:func:`similar_ingredients`, :func:`complete_recipe`,
  :func:`nearest_cuisines`) over the index, with deterministic
  tie-breaking; the brute-force scans they must match are test oracles.

Served at ``POST /similar``, ``/pairings``, ``/complete`` and
``/recommend`` (see :mod:`repro.service`) and from the ``repro similar``
/ ``repro recommend`` CLI subcommands.
"""

from .index import NEIGHBOR_LIST_LIMIT, RetrievalIndex, build_retrieval_index
from .queries import (
    DEFAULT_TOPK,
    MAX_TOPK,
    SIMILARITY_DECIMALS,
    Completion,
    CuisineMatch,
    SimilarMatch,
    complete_recipe,
    nearest_cuisines,
    similar_ingredients,
)

__all__ = [
    "NEIGHBOR_LIST_LIMIT",
    "RetrievalIndex",
    "build_retrieval_index",
    "DEFAULT_TOPK",
    "MAX_TOPK",
    "SIMILARITY_DECIMALS",
    "Completion",
    "CuisineMatch",
    "SimilarMatch",
    "complete_recipe",
    "nearest_cuisines",
    "similar_ingredients",
]

"""The retrieval index: inverted molecule postings + precomputed top-k lists.

The interactive workload is retrieval — "what pairs with X", "what
completes this recipe", "which cuisine is nearest" — and answering those
by scanning the full ingredient universe per query is O(n) set
intersections each time. :class:`RetrievalIndex` precomputes, once per
corpus build:

* **molecule postings**: molecule id → sorted array of index rows whose
  flavor profile contains it (the inverted index over the molecule
  universe). ``complete_recipe`` accumulates candidate overlap counts by
  walking the postings of the partial recipe's molecules instead of
  intersecting profiles against every catalog entry.
* **neighbor lists**: per ingredient, the positive-overlap partners
  sorted by ``(-shared molecules, name)`` and truncated to
  :data:`NEIGHBOR_LIST_LIMIT` — ``similar_ingredients`` becomes an array
  slice.
* **cuisine vectors**: L2-normalised ingredient-prevalence vectors per
  regional cuisine, so ``nearest_cuisines`` is one matrix-vector product
  (cosine similarity, the same measure as
  :func:`repro.analysis.authenticity.cuisine_similarity`).

The index is built as the fifth content-addressed engine stage
(``retrieval_index``; see :mod:`repro.engine.stages`), so a warm restart
loads it from the artifact store with builds=0 and its fingerprint never
depends on the worker count.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping

import numpy as np

from ..datamodel import Cuisine
from ..flavordb import IngredientCatalog, membership_matrix
from ..obs import span

__all__ = ["NEIGHBOR_LIST_LIMIT", "RetrievalIndex", "build_retrieval_index"]

#: Positive-overlap partners retained per ingredient. Comfortably above
#: the serving cap (``MAX_TOPK``); ``similar_ingredients`` scans the
#: catalog for a larger ``k`` so answers stay exact.
NEIGHBOR_LIST_LIMIT = 100


@dataclasses.dataclass(frozen=True)
class RetrievalIndex:
    """Precomputed retrieval structures over one catalog + cuisine set.

    Attributes:
        ingredient_ids: catalog ids of the pairable ingredients, ascending
            (one *row* of the index per id).
        names: canonical ingredient name per row.
        neighbor_rows: ``(rows, NEIGHBOR_LIST_LIMIT)`` int32 — partner row
            indices sorted by ``(-shared, name)``, ``-1``-padded.
        neighbor_shared: shared-molecule count aligned with
            ``neighbor_rows`` (0-padded).
        molecule_postings: molecule id → ascending int32 row array of the
            ingredients whose profile contains it.
        cuisine_codes: region codes covered by ``cuisine_vectors``, sorted.
        cuisine_vectors: ``(cuisines, catalog size)`` float64 — per-cuisine
            ingredient prevalence, L2-normalised so cosine similarity is a
            dot product.
    """

    ingredient_ids: np.ndarray
    names: tuple[str, ...]
    neighbor_rows: np.ndarray
    neighbor_shared: np.ndarray
    molecule_postings: dict[int, np.ndarray]
    cuisine_codes: tuple[str, ...]
    cuisine_vectors: np.ndarray

    @property
    def size(self) -> int:
        """Number of indexed (pairable) ingredients."""
        return len(self.names)

    @functools.cached_property
    def row_by_id(self) -> dict[int, int]:
        """Catalog ingredient id → index row."""
        return {
            int(ingredient_id): row
            for row, ingredient_id in enumerate(self.ingredient_ids)
        }

    @functools.cached_property
    def name_rank(self) -> np.ndarray:
        """Per row, the ingredient's position in name-sorted order.

        The deterministic tie-breaker every ranking uses: equal overlap
        counts order by ascending name.
        """
        order = sorted(range(self.size), key=self.names.__getitem__)
        rank = np.empty(self.size, dtype=np.int64)
        for position, row in enumerate(order):
            rank[row] = position
        return rank

    @functools.cached_property
    def cuisine_row(self) -> dict[str, int]:
        """Region code → row of ``cuisine_vectors``."""
        return {code: row for row, code in enumerate(self.cuisine_codes)}


def build_retrieval_index(
    catalog: IngredientCatalog, cuisines: Mapping[str, Cuisine]
) -> RetrievalIndex:
    """Build the index from a catalog and the regional cuisines.

    Deterministic: depends only on the catalog contents and the cuisines'
    ingredient usage (iteration order of ``cuisines`` is irrelevant — codes
    are sorted), so the stage artifact is byte-stable at any worker count.
    """
    pairable = [
        ingredient for ingredient in catalog if ingredient.has_flavor_profile
    ]
    rows = len(pairable)
    names = tuple(ingredient.name for ingredient in pairable)
    ingredient_ids = np.asarray(
        [ingredient.ingredient_id for ingredient in pairable], dtype=np.int64
    )
    with span("retrieval.build_index", ingredients=rows):
        membership = membership_matrix(pairable)
        shared = catalog.shared_molecule_counts(ingredient_ids).astype(
            np.int64
        )

        name_order = sorted(range(rows), key=names.__getitem__)
        name_rank = np.empty(rows, dtype=np.int64)
        for position, row in enumerate(name_order):
            name_rank[row] = position

        neighbor_rows = np.full((rows, NEIGHBOR_LIST_LIMIT), -1, np.int32)
        neighbor_shared = np.zeros((rows, NEIGHBOR_LIST_LIMIT), np.int32)
        for row in range(rows):
            counts = shared[row]
            order = np.lexsort((name_rank, -counts))
            order = order[counts[order] > 0][:NEIGHBOR_LIST_LIMIT]
            neighbor_rows[row, : len(order)] = order
            neighbor_shared[row, : len(order)] = counts[order]

        postings: dict[int, np.ndarray] = {}
        for molecule in range(membership.shape[1]):
            members = np.flatnonzero(membership[:, molecule])
            if len(members):
                postings[int(molecule)] = members.astype(np.int32)

        codes = tuple(sorted(cuisines))
        vectors = np.zeros((len(codes), len(catalog)), dtype=np.float64)
        for position, code in enumerate(codes):
            cuisine = cuisines[code]
            total = len(cuisine)
            if total == 0:
                continue
            ids, counts = cuisine.usage_arrays()
            vectors[position, ids] = counts / total
            norm = float(np.linalg.norm(vectors[position]))
            if norm > 0:
                vectors[position] /= norm

        return RetrievalIndex(
            ingredient_ids=ingredient_ids,
            names=names,
            neighbor_rows=neighbor_rows,
            neighbor_shared=neighbor_shared,
            molecule_postings=postings,
            cuisine_codes=codes,
            cuisine_vectors=vectors,
        )

"""Recipe assembly: popularity-driven draws with a flavor-affinity tilt.

Recipes are composed the way the paper's copy-mutate evolution literature
(ref [10]) suggests real recipes form: ingredients join a dish according to
how common they are in the cuisine, modulated by how well they blend with
what is already in the pot. The modulation is the cuisine's
``pairing_bias``:

* positive bias (uniform cuisines): candidates sharing flavor molecules
  with the current partial recipe are up-weighted,
* negative bias (contrasting cuisines): they are down-weighted,
* zero bias degenerates to the frequency-preserving null model.

The overlap matrix between all pantry ingredients is precomputed once per
region. :meth:`RecipeAssembler.assemble` draws one recipe, slot by slot,
with a handful of numpy operations on one pantry-length vector per slot.
:meth:`RecipeAssembler.assemble_many` draws a whole region's recipes in
lockstep instead: recipes sorted by size form blocks, and each slot is a
few operations on a (recipes × pantry) array, whose tilt is looked up
per integer affinity from a small per-slot table rather than
exponentiated cell by cell. The two consume the same random doubles in
the same order and return the same indices, bit for bit; ``assemble``
remains the live fallback for the one case the lockstep path does not
handle (see :meth:`RecipeAssembler.assemble_many`), and, still calling
``np.exp`` itself, the oracle the table is tested against.
"""

from __future__ import annotations

import numpy as np

from ..datamodel import Ingredient
from ..flavordb import membership_matrix, shared_molecule_counts
from .pantry import RegionPantry

#: Shared-molecule counts are squashed to ``min(overlap, OVERLAP_CAP)`` and
#: scaled by 1/OVERLAP_SCALE inside the exponential tilt, so a single
#: freakishly-overlapping pair cannot dominate the draw.
OVERLAP_CAP = 12.0
OVERLAP_SCALE = 4.0

#: Fraction of draws that ignore the affinity tilt entirely — culinary
#: noise (pantry leftovers, decoration, tradition) the bias cannot explain.
NOISE_RATE = 0.08

#: Recipes per lockstep block in :meth:`RecipeAssembler.assemble_many`.
#: A block holds a few (rows × pantry) float64 arrays; at the largest
#: pantry (612 ingredients) each is about 0.6 MB.
BLOCK_ROWS = 128


def overlap_matrix(ingredients: tuple[Ingredient, ...]) -> np.ndarray:
    """Pairwise shared-molecule counts |F_i ∩ F_j| (diagonal zeroed).

    The exact float32 membership matmul of
    :func:`repro.flavordb.shared_molecule_counts`, returned as int32 (a
    test keeps the int32 matmul as its oracle).
    """
    return shared_molecule_counts(membership_matrix(ingredients)).astype(
        np.int32
    )


class RecipeAssembler:
    """Draws recipes (as pantry-index arrays) for one region."""

    def __init__(self, pantry: RegionPantry) -> None:
        self._pantry = pantry
        self._popularity = pantry.popularity.astype(np.float64)
        self._overlap = overlap_matrix(pantry.ingredients).astype(np.float64)
        np.clip(self._overlap, 0.0, OVERLAP_CAP, out=self._overlap)
        self._bias = pantry.profile.pairing_bias

    @property
    def pantry(self) -> RegionPantry:
        return self._pantry

    @staticmethod
    def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
        """Inlined ``rng.choice(len(p), p=p)``: cumsum + searchsorted.

        ``Generator.choice`` builds the same cdf and consumes exactly one
        ``rng.random()`` — but spends several microseconds per call on
        argument coercion and p-validation (kahan sum, finfo, dtype
        checks), which dominates the whole assembly loop. This inline
        reproduces its draw bit-for-bit (same cdf arithmetic, same
        uniform variate, same ``side="right"`` search) without the
        per-call overhead; a test swaps ``rng.choice`` back in and
        compares whole assemblies.
        """
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))

    def assemble(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw one recipe of ``size`` distinct pantry indices.

        The first ingredient follows popularity alone; each subsequent one
        follows popularity times ``exp(bias * mean_overlap / scale)``
        against the partial recipe, except for a ``NOISE_RATE`` fraction of
        pure-popularity draws.
        """
        size = min(size, self._pantry.size)
        chosen = np.empty(size, dtype=np.int64)
        weights = self._popularity.copy()
        first = self._draw(rng, weights / weights.sum())
        chosen[0] = first
        weights[first] = 0.0
        if size == 1:
            return chosen
        affinity = self._overlap[first].copy()
        for slot in range(1, size):
            if self._bias == 0.0 or rng.random() < NOISE_RATE:
                tilt = weights
            else:
                mean_affinity = affinity / slot
                tilt = weights * np.exp(
                    self._bias * mean_affinity / OVERLAP_SCALE
                )
            total = tilt.sum()
            if total <= 0.0:
                remaining = np.flatnonzero(weights > 0)
                # rng.choice(remaining) draws its index via integers();
                # call it directly to keep the stream identical.
                pick = int(
                    remaining[
                        int(
                            rng.integers(
                                0, remaining.size, size=None, dtype=np.int64
                            )
                        )
                    ]
                )
            else:
                pick = self._draw(rng, tilt / total)
            chosen[slot] = pick
            weights[pick] = 0.0
            affinity += self._overlap[pick]
        return chosen

    def assemble_many(
        self, rng: np.random.Generator, sizes: np.ndarray
    ) -> list[np.ndarray]:
        """Draw one recipe per entry of ``sizes``, all in lockstep.

        Returns exactly what ``[self.assemble(rng, s) for s in sizes]``
        returns, and leaves ``rng`` in the same state. After clamping to
        the pantry, recipe *i* consumes ``1 + (size_i - 1) * k`` doubles
        of ``rng.random()``, ``k = 2`` with a bias (noise test, draw) and
        ``k = 1`` without, so all of them are drawn up front with one
        ``rng.random(total)``: the same doubles, in the same order. The
        recipes are then drawn in blocks, see :meth:`_draw_blocks`.

        A slot whose tilt sums to <= 0 draws with ``rng.integers``
        instead, which breaks the stream layout; if any block meets one,
        the generator is rewound to before the pre-draw and the whole
        region goes through ``assemble``.
        """
        sizes = np.minimum(
            np.asarray(sizes, dtype=np.int64), self._pantry.size
        )
        if len(sizes) == 0 or sizes.min() < 1:
            return [self.assemble(rng, int(size)) for size in sizes]
        per_slot = 1 if self._bias == 0.0 else 2
        consumed = 1 + (sizes - 1) * per_slot
        state = rng.bit_generator.state
        doubles = rng.random(int(consumed.sum()))
        recipes = self._draw_blocks(
            doubles, np.cumsum(consumed) - consumed, sizes, per_slot
        )
        if recipes is None:
            rng.bit_generator.state = state
            return [self.assemble(rng, int(size)) for size in sizes]
        return recipes

    def _draw_blocks(
        self,
        doubles: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        per_slot: int,
    ) -> list[np.ndarray] | None:
        """Lockstep draws; ``None`` when some slot's tilt sums to <= 0.

        Recipes are sorted by size (largest first) into blocks of
        :data:`BLOCK_ROWS`, so at slot ``k`` the recipes still drawing are
        a prefix of the block. Each row repeats ``assemble``'s arithmetic
        in its order: the tilt, then the row total (numpy's pairwise sum
        over one contiguous row, as for a 1-D ``sum``), the divide, the
        cumsum and the divide by the last entry. The pick is the count of
        cdf entries <= u, which on a non-decreasing cdf is
        ``searchsorted(u, side="right")``.

        Affinity stays an integer count: at slot ``k`` it is a sum of
        ``k`` capped overlaps, so it lies in 0 … ``OVERLAP_CAP * k``. The
        exponential factor of the tilt is read from a per-slot table over
        exactly that range, built by ``assemble``'s expression on the
        same float64 values, so each entry has the bits ``assemble``
        computes for that affinity, and no entry lies past what the slot
        can reach (which could overflow ``exp``).
        """
        popularity = self._popularity
        first_cdf = (popularity / popularity.sum()).cumsum()
        first_cdf /= first_cdf[-1]
        overlap = self._overlap.astype(np.intp)
        factors: list[np.ndarray] = []
        if per_slot == 2:
            # factors[k - 1][a] is exp(bias * (a / k) / scale) for every
            # affinity a that slot k can reach.
            cap = int(OVERLAP_CAP)
            factors = [
                np.exp(
                    self._bias
                    * (np.arange(cap * slot + 1, dtype=np.float64) / slot)
                    / OVERLAP_SCALE
                )
                for slot in range(1, int(sizes.max()))
            ]
        recipes: dict[int, np.ndarray] = {}
        order = np.argsort(-sizes, kind="stable")
        for start in range(0, len(order), BLOCK_ROWS):
            block = order[start : start + BLOCK_ROWS]
            block_sizes = sizes[block]
            base = offsets[block]
            rows = np.arange(len(block))
            chosen = np.empty((len(block), int(block_sizes[0])), np.int64)
            picks = first_cdf.searchsorted(doubles[base], side="right")
            chosen[:, 0] = picks
            weights = np.tile(popularity, (len(block), 1))
            weights[rows, picks] = 0.0
            affinity = overlap[picks]
            for slot in range(1, int(block_sizes[0])):
                active = int(np.count_nonzero(block_sizes > slot))
                live = weights[:active]
                draw_at = base[:active] + slot * per_slot
                if per_slot == 1:
                    tilt = live
                else:
                    tilt = live * factors[slot - 1][affinity[:active]]
                    noise = doubles[draw_at - 1] < NOISE_RATE
                    tilt[noise] = live[noise]
                total = tilt.sum(axis=1)
                if not np.all(total > 0.0):
                    return None
                cdf = (tilt / total[:, None]).cumsum(axis=1)
                cdf /= cdf[:, -1:].copy()
                picks = np.count_nonzero(
                    cdf <= doubles[draw_at][:, None], axis=1
                )
                chosen[:active, slot] = picks
                live[rows[:active], picks] = 0.0
                affinity[:active] += overlap[picks]
            for row, recipe in enumerate(block.tolist()):
                recipes[recipe] = chosen[row, : block_sizes[row]].copy()
        return [recipes[recipe] for recipe in range(len(sizes))]

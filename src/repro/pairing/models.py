"""The four randomised-cuisine null models (Section IV.B).

Every model preserves the cuisine's exact ingredient set and its recipe
size distribution (each random recipe copies the size — and for the
category models, the category composition — of a uniformly chosen real
"template" recipe):

* ``RANDOM`` — ingredients drawn uniformly from the cuisine's set,
* ``FREQUENCY`` — drawn with probability proportional to their frequency
  of use in the real cuisine,
* ``CATEGORY`` — the template's category composition is preserved;
  ingredients drawn uniformly within each category,
* ``FREQUENCY_CATEGORY`` — category composition preserved and ingredients
  drawn frequency-weighted within each category.

Sampling is vectorised with the Gumbel top-k trick: drawing ``m`` items
without replacement with weights ``w`` is equivalent to taking the top-m
of ``log w + Gumbel noise``, which turns per-recipe rejection loops into
dense numpy operations. The naive per-recipe ``rng.choice`` loop it
replaced is kept as a test oracle (``tests/oracles.py``); its recorded
cost is in DESIGN.md §5. The keys are drawn in bounded row blocks; the
one-shot draw they replaced is an oracle there too (DESIGN.md §23).

:func:`sample_model_batches` draws one batch of recipes grouped by
size, :func:`sample_model_scores` scores it in sample order, and
:func:`sample_model_moments` folds batches into the score moments the Z
statistic needs.
"""

from __future__ import annotations

import enum
import time

import numpy as np

from ..datamodel import ConfigurationError
from ..datamodel.entities import take_rows
from ..obs import get_logger, span
from .moments import StreamingMoments
from .score import batch_scores
from .views import CuisineView

#: Samples per chunk. Each chunk draws its templates, then its
#: ingredients, so the chunk size fixes how the stream's words are laid
#: out: another value would change the Z-score of every cell drawing
#: more than one chunk. It no longer bounds memory
#: (:data:`DRAW_BLOCK_ELEMENTS` and
#: :data:`~repro.pairing.score.BATCH_BLOCK_ELEMENTS` do); keep it 8192.
DEFAULT_CHUNK = 8192

#: Gumbel keys drawn at once by :func:`_gumbel_top_m` (512 KiB of
#: float64); a module constant, since the picks do not depend on it.
DRAW_BLOCK_ELEMENTS = 1 << 16

#: Seconds between progress heartbeat log records on long sampling loops.
HEARTBEAT_SECONDS = 5.0

_LOG = get_logger("repro.pairing")


class NullModel(enum.Enum):
    """The paper's four randomised-cuisine models."""

    RANDOM = "random"
    FREQUENCY = "frequency"
    CATEGORY = "category"
    FREQUENCY_CATEGORY = "frequency_category"

    @property
    def preserves_frequency(self) -> bool:
        return self in (NullModel.FREQUENCY, NullModel.FREQUENCY_CATEGORY)

    @property
    def preserves_category(self) -> bool:
        return self in (NullModel.CATEGORY, NullModel.FREQUENCY_CATEGORY)


def sample_model_moments(
    view: CuisineView,
    model: NullModel,
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = DEFAULT_CHUNK,
) -> StreamingMoments:
    """Streaming moments of ``n_samples`` random-recipe scores.

    Draws ``chunk`` recipes at a time with :func:`sample_model_scores`,
    folds their scores into a :class:`StreamingMoments` and discards
    them, so peak memory is one chunk of floats, never the score vector.
    Every Monte Carlo task runs this (see :mod:`repro.parallel`).
    """
    if n_samples <= 0:
        raise ConfigurationError("n_samples must be positive")
    with span(
        "pairing.sample_moments",
        model=model.value,
        region=view.region_code,
        n_samples=n_samples,
    ) as trace:
        started = time.perf_counter()
        heartbeat = _Heartbeat(view, model, n_samples, started)
        moments = StreamingMoments()
        position = 0
        while position < n_samples:
            take = min(chunk, n_samples - position)
            moments.update(sample_model_scores(view, model, take, rng))
            position += take
            heartbeat.tick(position)
        elapsed = time.perf_counter() - started
        trace.incr("samples", n_samples)
        if elapsed > 0:
            trace.set("samples_per_sec", round(n_samples / elapsed))
        return moments


class _Heartbeat:
    """Progress log records every few seconds on long sampling loops."""

    __slots__ = ("_view", "_model", "_total", "_started", "_last")

    def __init__(
        self,
        view: CuisineView,
        model: NullModel,
        total: int,
        started: float,
    ) -> None:
        self._view = view
        self._model = model
        self._total = total
        self._started = started
        self._last = started

    def tick(self, done: int) -> None:
        now = time.perf_counter()
        if now - self._last >= HEARTBEAT_SECONDS and done < self._total:
            self._last = now
            _LOG.info(
                "sampling.progress",
                model=self._model.value,
                region=self._view.region_code,
                done=done,
                total=self._total,
                samples_per_sec=round(done / (now - self._started)),
            )


def sample_model_recipes(
    view: CuisineView,
    model: NullModel,
    n_samples: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Draw ``n_samples`` random recipes (local-index arrays)."""
    recipes: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n_samples
    for rows, batch in sample_model_batches(view, model, n_samples, rng):
        for row, recipe in zip(rows.tolist(), batch):
            recipes[row] = recipe
    return recipes


def sample_model_scores(
    view: CuisineView,
    model: NullModel,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """N_s of ``n_samples`` random recipes, in sample order."""
    scores = np.empty(n_samples, dtype=np.float64)
    for rows, batch in sample_model_batches(view, model, n_samples, rng):
        scores[rows] = batch_scores(view.overlap, batch)
    return scores


def sample_model_batches(
    view: CuisineView,
    model: NullModel,
    n_samples: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw ``n_samples`` random recipes, grouped by size.

    Returns one ``(samples, recipes)`` pair per size, sizes ascending:
    the sample positions of that size, in order, and their recipes as a
    ``(len(samples), size)`` array of local indices.
    """
    templates = rng.integers(0, view.recipe_count, size=n_samples)
    sizes = view.recipe_sizes()[templates]
    if model.preserves_category:
        recipes = _sample_category_preserving(
            view, model, templates, sizes, rng
        )
        return [
            (rows, recipes[rows, :size])
            for rows, size in _size_groups(sizes)
        ]
    return _sample_size_preserving(view, model, sizes, rng)


def _size_groups(sizes: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Per distinct size, ascending: the positions holding it, in order."""
    return [
        (np.flatnonzero(sizes == size), size)
        for size in np.unique(sizes).tolist()
    ]


# ---------------------------------------------------------------------------
# size-preserving models (RANDOM, FREQUENCY)
# ---------------------------------------------------------------------------


def _sample_size_preserving(
    view: CuisineView,
    model: NullModel,
    sizes: np.ndarray,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    weights = (
        view.frequencies if model.preserves_frequency else None
    )
    log_weights = _log_weights(weights, view.ingredient_count)
    return [
        (rows, _gumbel_top_m(log_weights[None, :], len(rows), size, rng))
        for rows, size in _size_groups(sizes)
    ]


# ---------------------------------------------------------------------------
# category-preserving models (CATEGORY, FREQUENCY_CATEGORY)
# ---------------------------------------------------------------------------


def _sample_category_preserving(
    view: CuisineView,
    model: NullModel,
    templates: np.ndarray,
    sizes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(samples, largest size)`` local indices, ``-1`` past each size.

    Every (category, count) pair among the templates' specs is one
    vectorised Gumbel draw over that category's pool. Pairs are drawn in
    order of first appearance, walking the samples in order and each
    template's spec in category order, and each draw's rows are the
    samples holding the pair, in sample order.
    """
    pools = view.category_pools()
    out = np.full((len(templates), int(sizes.max())), -1, dtype=np.int64)

    # Every spec entry of every sample, samples in order.
    offsets, entries = take_rows(
        view.spec_offsets, np.arange(len(view.spec_counts)), templates
    )
    samples = np.repeat(np.arange(len(templates)), np.diff(offsets))
    categories = view.spec_categories[entries]
    counts = view.spec_counts[entries]
    starts = view.spec_starts[entries]

    # Group entries by (category, count); a stable sort keeps each
    # group's entries in sample order, and its first entry dates it.
    keys = categories * (int(counts.max(initial=0)) + 1) + counts
    order = np.argsort(keys, kind="stable")
    bounds = np.flatnonzero(np.diff(keys[order])) + 1
    groups = sorted(np.split(order, bounds), key=lambda group: group[0])

    weights = view.frequencies if model.preserves_frequency else None
    for group in groups:
        count = int(counts[group[0]])
        pool = pools[view.category_order[int(categories[group[0]])]]
        pool_weights = None if weights is None else weights[pool]
        log_weights = _log_weights(pool_weights, len(pool))
        picks = _gumbel_top_m(log_weights[None, :], len(group), count, rng)
        cols = starts[group][:, None] + np.arange(count)[None, :]
        out[samples[group][:, None], cols] = pool[picks]
    return out


# ---------------------------------------------------------------------------
# sampling primitives
# ---------------------------------------------------------------------------


def _log_weights(weights: np.ndarray | None, count: int) -> np.ndarray:
    if weights is None:
        return np.zeros(count, dtype=np.float64)
    if len(weights) != count or np.any(weights <= 0):
        raise ConfigurationError("weights must be positive and aligned")
    return np.log(weights)


def _gumbel_top_m(
    log_weights: np.ndarray, k: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``m`` items without replacement, ``k`` times, weights shared.

    The Gumbel keys are drawn in row blocks of at most
    :data:`DRAW_BLOCK_ELEMENTS`, so a draw holds one block of keys and
    the ``(k, m)`` picks, never ``k * P`` floats. Blocking is exact: the
    generator yields the same words in the same order however the rows
    are split, ``noise + log_weights`` has the bits of
    ``log_weights + noise``, and ``argpartition`` works row by row, so
    every pick equals the one-shot draw's (``tests/oracles.py``).

    Args:
        log_weights: ``(1, P)`` log-weight row.
        k: number of independent draws (rows).
        m: items per draw.

    Returns:
        ``(k, m)`` integer array of item indices.
    """
    pool_size = log_weights.shape[1]
    if m > pool_size:
        raise ConfigurationError(
            f"cannot draw {m} distinct items from a pool of {pool_size}"
        )
    picks = np.empty((k, m), dtype=np.intp)
    rows = max(1, DRAW_BLOCK_ELEMENTS // max(1, pool_size))
    for start in range(0, k, rows):
        stop = min(start + rows, k)
        # Drawn even when every item is picked: later draws in the
        # stream must see the same words.
        keys = rng.gumbel(size=(stop - start, pool_size))
        if m < pool_size:
            keys += log_weights
            picks[start:stop] = np.argpartition(keys, -m, axis=1)[:, -m:]
    if m == pool_size:
        picks[:] = np.arange(pool_size)
    return picks

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
cost is in DESIGN.md §5.

:func:`sample_model_recipes` draws one batch of recipes, and
:func:`sample_model_moments` folds batches into the score moments the Z
statistic needs.
"""

from __future__ import annotations

import enum
import time

import numpy as np

from ..datamodel import ConfigurationError
from ..obs import get_logger, span
from .moments import StreamingMoments
from .score import scores_for_recipes
from .views import CuisineView

#: Samples per chunk; bounds peak memory at ~chunk * ingredient_count floats.
DEFAULT_CHUNK = 8192

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

    Draws ``chunk`` recipes at a time with :func:`sample_model_recipes`,
    folds their scores into a :class:`StreamingMoments` and discards
    them, so peak memory is one chunk of floats, never the score vector.
    Every Monte Carlo shard runs this (see :mod:`repro.parallel`).
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
            batch = sample_model_recipes(view, model, take, rng)
            moments.update(scores_for_recipes(view.overlap, batch))
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
    templates = rng.integers(0, view.recipe_count, size=n_samples)
    if model.preserves_category:
        return _sample_category_preserving(view, model, templates, rng)
    return _sample_size_preserving(view, model, templates, rng)


# ---------------------------------------------------------------------------
# size-preserving models (RANDOM, FREQUENCY)
# ---------------------------------------------------------------------------


def _sample_size_preserving(
    view: CuisineView,
    model: NullModel,
    templates: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    sizes = view.recipe_sizes()[templates]
    weights = (
        view.frequencies if model.preserves_frequency else None
    )
    log_weights = _log_weights(weights, view.ingredient_count)
    out: list[np.ndarray | None] = [None] * len(templates)
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        picks = _gumbel_top_m(
            log_weights[None, :], len(rows), int(size), rng
        )
        for row, pick in zip(rows, picks):
            out[int(row)] = pick
    return [recipe for recipe in out if recipe is not None]


# ---------------------------------------------------------------------------
# category-preserving models (CATEGORY, FREQUENCY_CATEGORY)
# ---------------------------------------------------------------------------


def _sample_category_preserving(
    view: CuisineView,
    model: NullModel,
    templates: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    # Category pools and per-template specs (category counts + in-recipe
    # offsets, canonical order) are cached on the view: computed once per
    # cuisine, not once per sampling chunk.
    pools = view.category_pools()
    category_order = view.category_order
    template_specs = view.template_specs()

    sizes = view.recipe_sizes()[templates]
    max_size = int(sizes.max())
    out = np.full((len(templates), max_size), -1, dtype=np.int64)

    # Group (sample, category, count, offset) tuples by (category, count):
    # each group is one vectorised Gumbel draw.
    groups: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for sample, template in enumerate(templates):
        for cat_id, count, offset in template_specs[int(template)]:
            rows, offsets = groups.setdefault((cat_id, count), ([], []))
            rows.append(sample)
            offsets.append(offset)

    weights = view.frequencies if model.preserves_frequency else None
    for (cat_id, count), (rows, offsets) in groups.items():
        pool = pools[category_order[cat_id]]
        pool_weights = None if weights is None else weights[pool]
        log_weights = _log_weights(pool_weights, len(pool))
        picks = _gumbel_top_m(log_weights[None, :], len(rows), count, rng)
        rows_arr = np.asarray(rows)[:, None]
        cols = np.asarray(offsets)[:, None] + np.arange(count)[None, :]
        out[rows_arr, cols] = pool[picks]

    return [out[sample, : sizes[sample]] for sample in range(len(templates))]


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
    noise = rng.gumbel(size=(k, pool_size))
    keys = log_weights + noise
    if m == pool_size:
        return np.tile(np.arange(pool_size), (k, 1))
    return np.argpartition(keys, -m, axis=1)[:, -m:]

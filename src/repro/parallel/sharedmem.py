"""Zero-copy cuisine views over ``multiprocessing.shared_memory``.

The sampling workloads are dominated by reads of a few per-cuisine
arrays — the O(ingredients²) overlap matrix above all. Pickling those
into every task payload would copy the matrix once per shard; instead the
parent publishes each cuisine's numeric arrays into named shared-memory
blocks once (:class:`SharedViewStore`) and task payloads carry only a
:class:`SharedViewSpec` — block names, shapes and dtypes plus the region
code and category names — which is about a kilobyte however large the
cuisine.

Workers attach with :class:`AttachedView`, which maps the blocks and
rebuilds the :class:`~repro.pairing.views.CuisineView`: every array of
the view, the recipe rows and template specs included, is a numpy view
directly over the shared buffers (zero copy), so a worker rebuilds
nothing per task.

Only pooled sweeps publish (:func:`repro.parallel.executor.runs_pooled`):
tasks that run in the calling process — ``workers=1``, a single task,
or a served ``/montecarlo`` request — sample the caller's own view, so
server threads never attach.

Lifetime: the store owns the blocks and unlinks them on ``close()`` (or
context-manager exit); attachments only ever ``close()`` their mapping.
Attachments in other processes bypass ``resource_tracker`` registration
because the creating process is the sole owner — otherwise every
worker's tracker would try to unlink its blocks at interpreter shutdown.
The creating process still attaches in two cases: a pooled task that
failed is retried serially there, and a pool that cannot be created
falls back to running every task there. Such an attachment registers
as usual: the tracker already holds each name in a set, so nothing
changes, and the process-wide registration hook is never swapped in
the process that created the blocks.
"""

from __future__ import annotations

import dataclasses
import os
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..pairing.views import CuisineView


@dataclasses.dataclass(frozen=True)
class BlockSpec:
    """One shared-memory block: its name and array layout."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclasses.dataclass(frozen=True)
class SharedViewSpec:
    """Everything a worker needs to attach one cuisine view.

    Deliberately tiny: one block descriptor per array field of the view,
    plus the region code and the category-name order.
    """

    region_code: str
    category_order: tuple[str, ...]
    blocks: dict[str, BlockSpec]
    #: Pid of the process that created (and will unlink) the blocks.
    owner_pid: int


class SharedViewStore:
    """Parent-side owner of the shared blocks for a set of cuisine views."""

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def publish(self, view: CuisineView) -> SharedViewSpec:
        """Copy a view's arrays into shared memory once."""
        blocks = {
            field.name: self._create_block(getattr(view, field.name))
            for field in dataclasses.fields(view)
            if isinstance(getattr(view, field.name), np.ndarray)
        }
        return SharedViewSpec(
            region_code=view.region_code,
            category_order=view.category_order,
            blocks=blocks,
            owner_pid=os.getpid(),
        )

    def _create_block(self, array: np.ndarray) -> BlockSpec:
        array = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        self._segments.append(segment)
        if array.size:
            destination = np.ndarray(
                array.shape, dtype=array.dtype, buffer=segment.buf
            )
            destination[...] = array
        return BlockSpec(
            name=segment.name,
            shape=tuple(array.shape),
            dtype=array.dtype.str,
        )

    def close(self) -> None:
        """Unmap and unlink every published block."""
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - arrays still exported
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedViewStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AttachedView:
    """Worker-side attachment: a ``CuisineView`` over shared blocks.

    The arrays of :attr:`view` alias the shared buffers — drop every
    reference to the view before (or via) :meth:`close`.
    """

    def __init__(self, spec: SharedViewSpec) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        arrays: dict[str, np.ndarray] = {}
        owner = spec.owner_pid == os.getpid()
        for key, block in spec.blocks.items():
            segment = (
                shared_memory.SharedMemory(name=block.name)
                if owner
                else _attach_untracked(block.name)
            )
            self._segments.append(segment)
            arrays[key] = np.ndarray(
                block.shape, dtype=np.dtype(block.dtype), buffer=segment.buf
            )
        self.view = CuisineView(
            region_code=spec.region_code,
            category_order=spec.category_order,
            **arrays,
        )

    def close(self) -> None:
        """Drop the view and unmap the blocks (never unlinks)."""
        self.view = None  # type: ignore[assignment]
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - lingering array ref
                pass
        self._segments = []

    def __enter__(self) -> "AttachedView":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a block without registering it with the resource tracker.

    ``SharedMemory(name=...)`` registers even plain attachments, so every
    worker's tracker would race the parent to unlink blocks it doesn't
    own (and spam ``KeyError`` warnings once the parent unlinks them
    first). Python 3.13 grew ``track=False`` for exactly this; here the
    registration hook is silenced for the duration of the attach instead.
    Swapping a process-wide hook is safe only where no other thread can
    attach meanwhile: in pool workers, which run one task at a time,
    never in the process that created the blocks.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original

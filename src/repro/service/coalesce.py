"""Request coalescing: N identical in-flight requests, one computation.

The engine's :class:`~repro.engine.locks.KeyedLocks` deduplicates
concurrent *builds* by serialising per key — the second caller waits,
then rebuilds and finds the cache warm. Serving traffic wants something
stronger: when N identical cacheable requests are in flight at once (a
hot key going viral, a retry storm, a cache entry expiring under load),
exactly one of them should run the handler and the other N-1 should
receive the *same computed result* without ever touching the handler.

:class:`RequestCoalescer` provides that as a transport-independent,
thread-safe primitive: the first caller for a key becomes the **leader**
and runs the compute function; every caller that arrives while the
leader is still computing becomes a **follower**, blocks on the leader's
completion event, and returns the leader's result. The entry is removed
the moment the leader publishes, so the table is bounded by the number
of *concurrently distinct* in-flight keys — the same self-cleaning
property as ``KeyedLocks``.

The asyncio transport reaches it through :meth:`ServiceApp.dispatch`
on its executor threads, where a follower blocks until the leader
publishes, and every coalesced response increments
``repro_service_coalesced_total{endpoint=...}`` so a load test can
*prove* the reduction in handler compute.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, TypeVar

from ..obs.metrics import MetricsRegistry
from .metrics import COALESCED

__all__ = ["COALESCED", "RequestCoalescer"]

T = TypeVar("T")


class _Flight:
    """One in-flight computation: the leader's pending result."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None


class RequestCoalescer:
    """Deduplicates concurrent computations of the same key.

    Args:
        registry: where the coalesced-response counter is registered;
            pass the owning app's registry so ``/metrics`` exports it.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def __len__(self) -> int:
        """Keys currently being computed (0 when the system is idle)."""
        with self._lock:
            return len(self._flights)

    def coalesced_total(self, endpoint: str) -> int:
        """How many responses this endpoint served via coalescing."""
        return int(self._registry.counter(COALESCED, endpoint=endpoint).value)

    def run(
        self,
        key: str,
        compute: Callable[[], T],
        endpoint: str = "(unknown)",
    ) -> tuple[T, bool]:
        """Compute ``key``'s value once across concurrent callers.

        Returns:
            ``(result, leader)`` — ``leader`` is True for the caller
            that actually ran ``compute``. Followers return the leader's
            result (or re-raise the leader's exception) and increment
            the coalesced counter.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                leading = True
            else:
                leading = False
        if leading:
            try:
                flight.result = compute()
            except BaseException as error:
                flight.error = error
                raise
            finally:
                # Publish before followers wake; remove the entry so the
                # next identical request (after this one) leads afresh —
                # by then the result cache answers it anyway.
                with self._lock:
                    self._flights.pop(key, None)
                flight.done.set()
            return flight.result, True
        flight.done.wait()
        self._registry.counter(COALESCED, endpoint=endpoint).incr()
        if flight.error is not None:
            raise flight.error
        return flight.result, False

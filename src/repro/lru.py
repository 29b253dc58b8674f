"""The process's one in-memory cache: a bounded LRU with single flight.

:class:`ResultCache` backs every in-process cache that holds computed
values: the engine's artifact memory tier, each database's SQL plan
cache and the service's result cache. It is a thread-safe LRU with an
optional per-entry TTL, and :meth:`ResultCache.get_or_compute` adds
*single flight*: concurrent callers that miss on one key run the
computation once and share its result.

Three rules make single flight sound:

* **One critical section decides.** The lookup and the check for an
  in-flight computation run under the cache's lock together, so a
  caller can never miss the cache just before a leader stores its value
  and then miss the leader's flight just after it is removed.
* **Publish order.** The leader stores the value and removes its flight
  in one critical section, then wakes the followers. The lock is never
  held while ``compute`` (or ``keep``) runs, so a computation may call
  ``get_or_compute`` on other keys of the same cache.
* **Failures are shared, not cached.** When ``compute`` raises, every
  follower waiting on that flight re-raises the same exception, nothing
  is stored and the flight is gone; the next call computes afresh.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any, Callable

from .datamodel import ConfigurationError

__all__ = ["MISSING", "CacheStats", "ResultCache"]

#: Returned by lookups on a miss; ``None`` is a valid cached value so a
#: sentinel is needed.
MISSING = object()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters.

    Attributes:
        size: entries currently stored.
        capacity: maximum entries stored.
        hits: lookups answered from the cache.
        misses: lookups that found nothing (or only an expired entry).
        evictions: entries dropped to respect capacity.
        expirations: entries dropped because their TTL elapsed.
    """

    size: int
    capacity: int
    hits: int
    misses: int
    evictions: int
    expirations: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Flight:
    """One in-flight computation: the leader's pending outcome."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = MISSING
        self.error: BaseException | None = None


class ResultCache:
    """A bounded LRU cache with optional per-entry TTL; safe under threads.

    Every operation takes one lock, so the cache is linearisable; the
    lock is never held while a value is computed.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """
        Args:
            capacity: maximum number of entries (must be positive).
            ttl: entry lifetime in seconds; ``None`` disables expiry.
            clock: monotonic time source (injectable for tests).
        """
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity}"
            )
        if ttl is not None and ttl <= 0:
            raise ConfigurationError(f"cache ttl must be positive, got {ttl}")
        self._capacity = capacity
        self._ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self._flights: dict[Hashable, _Flight] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The cached value, or :data:`MISSING`; refreshes LRU recency."""
        with self._lock:
            value = self._live(key)
            if value is MISSING:
                self._misses += 1
            return value

    def probe(self, key: Hashable) -> Any:
        """Like :meth:`get`, but a miss is not counted.

        For a fast path that falls back to a counted lookup on a miss,
        so each request counts one hit or one miss, never two.
        """
        with self._lock:
            return self._live(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Store a value, evicting the LRU entry beyond capacity."""
        with self._lock:
            self._store(key, value)

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        keep: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, str]:
        """The cached value for ``key``, computing it once on a miss.

        The first caller to miss leads: it runs ``compute`` and stores
        the result unless ``keep(result)`` is false. Callers that miss
        while the leader computes follow: they wait and return the
        leader's result, or re-raise its exception. A hit counts one
        hit; a leader or follower counts one miss.

        Returns:
            ``(value, source)``, ``source`` being ``"hit"``,
            ``"computed"`` (this caller led) or ``"shared"`` (this
            caller followed another's computation).
        """
        with self._lock:
            value = self._live(key)
            if value is not MISSING:
                return value, "hit"
            self._misses += 1
            flight = self._flights.get(key)
            leading = flight is None
            if leading:
                flight = self._flights[key] = _Flight()
        if not leading:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, "shared"
        store = False
        try:
            flight.value = compute()
            store = keep is None or keep(flight.value)
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._lock:
                if store:
                    self._store(key, flight.value)
                del self._flights[key]
            flight.done.set()
        return flight.value, "computed"

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                size=len(self._entries),
                capacity=self._capacity,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
            )

    # ------------------------------------------------------------------
    # internals: call with the lock held
    # ------------------------------------------------------------------
    def _live(self, key: Hashable) -> Any:
        """The unexpired value (counted as a hit), or :data:`MISSING`.

        An expired entry is dropped.
        """
        entry = self._entries.get(key)
        if entry is None:
            return MISSING
        stored_at, value = entry
        if self._ttl is not None and self._clock() - stored_at >= self._ttl:
            del self._entries[key]
            self._expirations += 1
            return MISSING
        self._entries.move_to_end(key)
        self._hits += 1
        return value

    def _store(self, key: Hashable, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (self._clock(), value)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

"""Thread-safe LRU+TTL result cache for the serving layer.

Handler results are pure functions of ``(endpoint, request payload)`` for
a fixed workspace, so the app can cache them aggressively: the cache key
is the canonicalised request (:func:`canonical_key`), the value is the
ready-to-serialise response body. Entries expire after an optional TTL
and the least-recently-used entry is evicted beyond capacity, so a
long-running server's memory stays bounded no matter the query mix.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable

from ..datamodel import ConfigurationError

#: Returned by :meth:`ResultCache.get` on a miss; ``None`` is a valid
#: cached value so a sentinel is needed.
MISSING = object()


def canonical_key(endpoint: str, payload: Any) -> str:
    """Canonical cache key for one request.

    Two payloads that differ only in dict ordering produce the same key;
    the endpoint name is prefixed so handlers never collide.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{endpoint}:{body}"


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


class ResultCache:
    """A bounded LRU cache with optional per-entry TTL; safe under threads.

    All operations take one lock, so the cache is linearisable; the lock
    is never held while computing a value — callers do look-aside caching
    (``get``, compute on miss, ``put``).
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
        self._entries: OrderedDict[str, tuple[float, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def ttl(self) -> float | None:
        return self._ttl

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Any:
        """The cached value, or :data:`MISSING`; refreshes LRU recency."""
        with self._lock:
            value = self._live(key)
            if value is MISSING:
                self._misses += 1
            return value

    def probe(self, key: str) -> Any:
        """Like :meth:`get`, but a miss is not counted.

        For a fast path that falls back to :meth:`get` on a miss, so each
        request counts one hit or one miss, never two.
        """
        with self._lock:
            return self._live(key)

    def _live(self, key: str) -> Any:
        """The unexpired value (counted as a hit), or :data:`MISSING`.

        Call with the lock held; an expired entry is dropped.
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

    def put(self, key: str, value: Any) -> None:
        """Store a value, evicting the LRU entry beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (self._clock(), value)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop one entry; True if it was present."""
        with self._lock:
            return self._entries.pop(key, None) is not None

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

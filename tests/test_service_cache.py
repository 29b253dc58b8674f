"""Tests for the result cache primitive, :class:`repro.lru.ResultCache`.

One bounded LRU with optional TTL and single flight backs the service's
result cache, the engine's artifact memory tier and each database's
plan cache. Covered here: LRU order, TTL, counters (including a
hypothesis sequence test against a plain-list model), thread safety,
single flight, and the service's canonical keys.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import ConfigurationError
from repro.lru import MISSING, ResultCache
from repro.service.cache import canonical_key


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SignallingCache(ResultCache):
    """Releases ``entered`` once per lookup, from inside the lock.

    ``_live`` runs in the critical section that makes a
    ``get_or_compute`` caller a hit, a leader or a follower, and a leader
    needs that lock to publish. So once a test has seen N signals, all N
    callers have taken their roles, and no sleep is needed to make
    "exactly one computation" deterministic.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Semaphore(0)

    def _live(self, key):
        value = super()._live(key)
        self.entered.release()
        return value

    def await_entries(self, count):
        for _ in range(count):
            assert self.entered.acquire(timeout=10), "caller never entered"


def _start(target, count):
    threads = [
        threading.Thread(target=target, args=(slot,)) for slot in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


def _join(threads):
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestCanonicalKey:
    def test_dict_order_does_not_matter(self):
        assert canonical_key("score", {"a": 1, "b": 2}) == canonical_key(
            "score", {"b": 2, "a": 1}
        )

    def test_endpoint_prefix_prevents_collisions(self):
        payload = {"ingredients": ["garlic"]}
        assert canonical_key("score", payload) != canonical_key(
            "classify", payload
        )

    def test_none_payload_is_a_valid_key(self):
        assert canonical_key("regions", None) == "regions:null"


class TestLRU:
    def test_get_miss_returns_sentinel(self):
        cache = ResultCache(capacity=2)
        assert cache.get("k") is MISSING

    def test_put_get_roundtrip(self):
        cache = ResultCache(capacity=2)
        cache.put("k", {"value": 1})
        assert cache.get("k") == {"value": 1}

    def test_none_is_cacheable(self):
        cache = ResultCache(capacity=2)
        cache.put("k", None)
        assert cache.get("k") is None

    def test_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes 'a'
        cache.put("c", 3)  # evicts 'b'
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_overwrite_does_not_grow(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ResultCache(capacity=0)

    def test_ttl_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ResultCache(ttl=0)


class TestTTL:
    def test_entry_expires(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.99)
        assert cache.get("a") == 1
        clock.advance(0.02)
        assert cache.get("a") is MISSING
        assert cache.stats().expirations == 1

    def test_put_refreshes_ttl(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(8.0)
        cache.put("a", 2)
        clock.advance(8.0)
        assert cache.get("a") == 2

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, clock=clock)
        cache.put("a", 1)
        clock.advance(1e9)
        assert cache.get("a") == 1


class TestStats:
    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_idle_hit_rate_is_zero(self):
        assert ResultCache().stats().hit_rate == 0.0

    def test_as_dict_is_json_ready(self):
        body = ResultCache(capacity=7).stats().as_dict()
        assert body["capacity"] == 7
        assert set(body) == {
            "size", "capacity", "hits", "misses",
            "evictions", "expirations", "hit_rate",
        }


class ListModel:
    """The cache's specification: a list in LRU order, oldest first."""

    def __init__(self, capacity, ttl, clock):
        self.capacity = capacity
        self.ttl = ttl
        self.clock = clock
        self.entries = []  # [key, stored_at, value]
        self.hits = self.misses = self.evictions = self.expirations = 0

    def live(self, key):
        for index, (stored_key, stored_at, value) in enumerate(self.entries):
            if stored_key != key:
                continue
            del self.entries[index]
            if self.ttl is not None and self.clock() - stored_at >= self.ttl:
                self.expirations += 1
                return MISSING
            self.entries.append([key, stored_at, value])
            self.hits += 1
            return value
        return MISSING

    def store(self, key, value):
        self.entries = [entry for entry in self.entries if entry[0] != key]
        self.entries.append([key, self.clock(), value])
        while len(self.entries) > self.capacity:
            del self.entries[0]
            self.evictions += 1


class Boom(Exception):
    pass


_KEYS = st.integers(0, 5)
_OPS = st.one_of(
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.just("probe"), _KEYS),
    st.tuples(st.just("put"), _KEYS, st.integers()),
    st.tuples(st.just("compute"), _KEYS, st.integers(), st.booleans()),
    st.tuples(st.just("fail"), _KEYS),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("clear")),
)


class TestListModel:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        ttl=st.sampled_from([None, 1.0, 2.5]),
        ops=st.lists(_OPS, max_size=60),
    )
    def test_matches_list_model(self, capacity, ttl, ops):
        clock = FakeClock()
        cache = ResultCache(capacity=capacity, ttl=ttl, clock=clock)
        model = ListModel(capacity, ttl, clock)
        for op in ops:
            kind = op[0]
            if kind == "get":
                expected = model.live(op[1])
                model.misses += expected is MISSING
                assert cache.get(op[1]) == expected
            elif kind == "probe":
                assert cache.probe(op[1]) == model.live(op[1])
            elif kind == "put":
                cache.put(op[1], op[2])
                model.store(op[1], op[2])
            elif kind == "compute":
                _, key, value, keep = op
                expected = model.live(key)
                if expected is MISSING:
                    model.misses += 1
                    if keep:
                        model.store(key, value)
                    expected = (value, "computed")
                else:
                    expected = (expected, "hit")
                got = cache.get_or_compute(
                    key, lambda: value, keep=lambda _: keep
                )
                assert got == expected
            elif kind == "fail":
                if model.live(op[1]) is MISSING:
                    model.misses += 1
                    with pytest.raises(Boom):
                        cache.get_or_compute(op[1], self._boom)
                else:
                    assert cache.get_or_compute(op[1], self._boom)[1] == "hit"
            elif kind == "advance":
                clock.advance(op[1])
            else:
                cache.clear()
                model.entries.clear()
            assert [
                [key, stored_at, value]
                for key, (stored_at, value) in cache._entries.items()
            ] == model.entries
            assert len(cache) == len(model.entries)
            stats = cache.stats()
            assert (
                stats.hits, stats.misses, stats.evictions, stats.expirations
            ) == (model.hits, model.misses, model.evictions, model.expirations)

    @staticmethod
    def _boom():
        raise Boom("boom")


class TestSingleFlight:
    N = 6

    def test_one_key_computes_once(self):
        cache = SignallingCache(capacity=4)
        gate = threading.Event()
        calls = []
        results = [None] * self.N

        def compute():
            calls.append(1)
            assert gate.wait(timeout=10)
            return "value"

        def call(slot):
            results[slot] = cache.get_or_compute("k", compute)

        threads = _start(call, self.N)
        cache.await_entries(self.N)
        gate.set()
        _join(threads)
        assert len(calls) == 1
        assert sorted(source for _, source in results) == (
            ["computed"] + ["shared"] * (self.N - 1)
        )
        assert {value for value, _ in results} == {"value"}
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, self.N)
        assert cache.get_or_compute("k", compute) == ("value", "hit")

    def test_followers_reraise_and_nothing_is_left(self):
        cache = SignallingCache(capacity=4)
        gate = threading.Event()
        raised = [None] * self.N

        def compute():
            assert gate.wait(timeout=10)
            raise Boom("leader failed")

        def call(slot):
            try:
                cache.get_or_compute("k", compute)
            except Boom as error:
                raised[slot] = error

        threads = _start(call, self.N)
        cache.await_entries(self.N)
        gate.set()
        _join(threads)
        assert raised[0] is not None
        assert all(error is raised[0] for error in raised)
        assert len(cache) == 0
        assert not cache._flights
        assert cache.get_or_compute("k", lambda: 1) == (1, "computed")

    def test_keep_false_shares_but_stores_nothing(self):
        cache = SignallingCache(capacity=4)
        gate = threading.Event()
        results = [None] * self.N

        def compute():
            assert gate.wait(timeout=10)
            return {"status": 500}

        def call(slot):
            results[slot] = cache.get_or_compute(
                "k", compute, keep=lambda value: value["status"] == 200
            )

        threads = _start(call, self.N)
        cache.await_entries(self.N)
        gate.set()
        _join(threads)
        assert sorted(source for _, source in results) == (
            ["computed"] + ["shared"] * (self.N - 1)
        )
        assert all(value == {"status": 500} for value, _ in results)
        assert len(cache) == 0
        assert not cache._flights

    def test_value_is_stored_before_followers_wake(self):
        # Publish order: store the value and remove the flight in one
        # critical section, then wake the followers. A caller arriving
        # after the flight is gone must find the value.
        seen = []

        class RecordingCache(ResultCache):
            def _store(self, key, value):
                flight = self._flights.get(key)
                seen.append(flight is not None and not flight.done.is_set())
                super()._store(key, value)

        cache = RecordingCache(capacity=4)
        assert cache.get_or_compute("k", lambda: 1) == (1, "computed")
        assert seen == [True]
        assert not cache._flights

    def test_distinct_keys_compute_in_parallel(self):
        cache = ResultCache(capacity=4)
        # Each computation waits for the other to start, so this only
        # completes if the two run at the same time.
        both_running = threading.Barrier(2, timeout=10)
        results = [None, None]

        def call(slot):
            def compute():
                both_running.wait()
                return slot

            results[slot] = cache.get_or_compute(slot, compute)

        _join(_start(call, 2))
        assert results == [(0, "computed"), (1, "computed")]

    def test_compute_may_resolve_other_keys(self):
        cache = ResultCache(capacity=4)
        results = []

        def outer():
            inner, _ = cache.get_or_compute("inner", lambda: 1)
            return inner + 1

        def call(slot):
            results.append(cache.get_or_compute("outer", outer))

        _join(_start(call, 1))
        assert results == [(2, "computed")]
        assert cache.get("inner") == 1
        assert cache.get("outer") == 2


class TestThreadSafety:
    def test_concurrent_mixed_workload(self):
        cache = ResultCache(capacity=64)
        errors = []

        def worker(worker_id):
            try:
                for i in range(500):
                    key = f"k{(worker_id * 7 + i) % 100}"
                    if cache.get(key) is MISSING:
                        cache.put(key, (worker_id, i))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert len(cache) <= 64
        assert stats.hits + stats.misses == 8 * 500

    def test_every_key_computes_once_under_contention(self):
        # 50 keys fit in the cache, so single flight computes each once.
        cache = ResultCache(capacity=64)
        computed = []
        wrong = []

        def worker(worker_id):
            for i in range(300):
                key = (worker_id * 7 + i) % 50
                value, _ = cache.get_or_compute(
                    key, lambda: computed.append(key) or key
                )
                if value != key:  # pragma: no cover - failure path
                    wrong.append((key, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _join(_start(worker, 8))
        finally:
            sys.setswitchinterval(interval)
        assert not wrong
        assert sorted(computed) == list(range(50))
        stats = cache.stats()
        assert stats.hits + stats.misses == 8 * 300
        assert not cache._flights

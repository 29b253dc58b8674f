"""The seeded request sequences of the two serving mixes.

The mix is synthetic. No request log of the service exists, so the
endpoint weights, the Zipf exponent and the payload shapes below are
assumptions, not measurements; a gain measured on these mixes holds for
this traffic only.

Each mix is one fixed traffic profile, and ``--seed`` decides its order.
A run is a warm-up part, sent before timing starts, and a timed part.
Each part holds a fixed number of requests of every payload: for
``serve_unique`` the next distinct payloads of a fixed pool, for
``serve_zipf`` each payload's share of the part under Zipf(1.1) over a
fixed popularity ranking of 4,096 payloads (four times the result
cache). The seed shuffles the order within each part, dealing endpoints
so that each block of 100 requests holds exactly the weighted number of
each. One seed always replays the same bytes.

The profile is fixed because the payloads' costs are not alike: a
``/montecarlo`` request costs 10 to 140 ms, depending on its region and
null model. Drawing payloads per seed made the seed, not the program,
set the run-to-run spread. Over 200 seeds, the handler time of a
2,800-request timed part varied by 0.13 (interquartile range over
median) with independent Zipf draws, and by 0.03 with the fixed profile.

Fixed pools also let the harness compute every payload's reference
answer once per checkout.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from collections.abc import Callable, Iterator, Sequence
from typing import Any

#: The server's result-cache capacity (passed as ``--cache-size``).
CACHE_CAPACITY = 1024
#: Payloads ranked by popularity behind ``serve_zipf``: four times the cache.
ZIPF_POOL = 4 * CACHE_CAPACITY
#: Distinct payloads of ``serve_unique``: its warm-up and timed parts.
UNIQUE_POOL = 1_600
ZIPF_EXPONENT = 1.1
#: Keep-alive connections of the serving mixes (at most nproc).
CONNECTIONS = 2
#: Timed requests per ``--seconds`` of run length: about the rate each
#: mix sustains on a 2-core host, so the timed part takes about that long.
REQUESTS_PER_SECOND = {"serve_zipf": 1500, "serve_unique": 375}
#: Requests sent after ``/readyz`` and before timing starts: about one
#: cache's worth for ``serve_zipf``, so the timed part starts from a
#: settled hit ratio; one block of the mix for ``serve_unique``, so every
#: handler has run before timing.
WARMUP = {"serve_zipf": 1000, "serve_unique": 100}

#: Request kind -> share of every 100 requests (assumed, see above).
MIX: dict[str, int] = {
    "score": 25,
    "classify": 15,
    "similar": 15,
    "complete": 10,
    "alias": 8,
    "pairings": 7,
    "sql_agg": 5,
    "sql_join": 5,
    "recommend": 5,
    "montecarlo": 5,
}

#: Request kind -> endpoint path.
PATHS: dict[str, str] = {
    kind: "/sql" if kind.startswith("sql_") else f"/{kind}" for kind in MIX
}

AGG_SQL = (
    "SELECT region_code, COUNT(*) AS recipes, AVG(n_ingredients) AS mean_size, "
    "MAX(n_ingredients) AS largest FROM recipes WHERE n_ingredients >= ? "
    "GROUP BY region_code ORDER BY recipes DESC, region_code"
)
JOIN_SQL = (
    "SELECT region_code, COUNT(*) AS uses FROM recipe_ingredients "
    "JOIN recipes ON recipe_id = recipes.recipe_id WHERE ingredient_id = ? "
    "GROUP BY region_code ORDER BY uses DESC, region_code"
)
MONTECARLO_SAMPLES = 1000
QUANTITIES = ("", "1 ", "2 cups ", "1 tbsp ", "3 ", "a pinch of ", "chopped ")


def canonical(body: Any) -> str:
    """JSON with sorted keys and no spaces: one text per value."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def cache_key(path: str, payload: Any) -> str:
    """The result-cache identity of one request (endpoint + sorted JSON)."""
    return f"{path.lstrip('/')}:{canonical(payload)}"


@dataclasses.dataclass(frozen=True)
class Request:
    kind: str
    payload: dict[str, Any]

    @property
    def path(self) -> str:
        return PATHS[self.kind]

    @property
    def key(self) -> str:
        return cache_key(self.path, self.payload)


@dataclasses.dataclass(frozen=True)
class Universe:
    """The program's vocabulary the payloads draw from."""

    names: tuple[str, ...]
    ingredient_ids: tuple[int, ...]
    regions: tuple[str, ...]
    models: tuple[str, ...]

    @staticmethod
    def from_program() -> "Universe":
        from repro.datamodel import region_codes
        from repro.flavordb import default_catalog
        from repro.pairing import NullModel

        pairable = sorted(
            default_catalog().pairable_ingredients(), key=lambda i: i.name
        )
        return Universe(
            names=tuple(i.name for i in pairable),
            ingredient_ids=tuple(i.ingredient_id for i in pairable),
            regions=tuple(region_codes()),
            models=tuple(model.value for model in NullModel),
        )


def _deck(rng: random.Random, items: Sequence[Any]) -> Iterator[Any]:
    """Endless shuffled passes over ``items``."""
    while True:
        deal = list(items)
        rng.shuffle(deal)
        yield from deal


class _Payloads:
    """Random valid payloads for each request kind."""

    def __init__(self, rng: random.Random, universe: Universe) -> None:
        self.rng = rng
        self.u = universe
        self.mc_cells = _deck(
            rng, [(region, model) for region in universe.regions for model in universe.models]
        )
        self.recommend_regions = _deck(rng, universe.regions)

    def _names(self, low: int, high: int) -> list[str]:
        return self.rng.sample(self.u.names, self.rng.randint(low, high))

    def make(self, kind: str) -> dict[str, Any]:
        rng = self.rng
        if kind == "score":
            return {"ingredients": self._names(2, 8)}
        if kind == "classify":
            return {"ingredients": self._names(2, 8), "top": rng.randint(1, 5)}
        if kind == "similar":
            if rng.random() < 0.2:
                return {"cuisine": rng.choice(self.u.regions), "k": rng.randint(1, 20)}
            return {"ingredient": rng.choice(self.u.names), "k": rng.randint(1, 20)}
        if kind == "complete":
            return {"ingredients": self._names(1, 5), "k": rng.randint(1, 20)}
        if kind == "alias":
            return {"phrase": rng.choice(QUANTITIES) + rng.choice(self.u.names)}
        if kind == "pairings":
            return {"ingredient": rng.choice(self.u.names), "limit": rng.randint(1, 50)}
        if kind == "sql_agg":
            return {
                "query": AGG_SQL,
                "params": [rng.randint(1, 20)],
                "max_rows": rng.randint(1, 1000),
            }
        if kind == "sql_join":
            return {
                "query": JOIN_SQL,
                "params": [rng.choice(self.u.ingredient_ids)],
                "max_rows": rng.randint(1, 1000),
            }
        if kind == "recommend":
            return {
                "region": next(self.recommend_regions),
                "count": 2,
                "seed": rng.randrange(2**31),
            }
        if kind == "montecarlo":
            region, model = next(self.mc_cells)
            return {
                "region": region,
                "model": model,
                "n_samples": MONTECARLO_SAMPLES,
                "seed": rng.randrange(2**31),
            }
        raise ValueError(f"unknown request kind {kind!r}")

    def distinct(self, kind: str, seen: set[str]) -> Request:
        """A request of ``kind`` whose cache key is not in ``seen`` (added)."""
        while True:
            request = Request(kind, self.make(kind))
            if request.key not in seen:
                seen.add(request.key)
                return request


def _kinds(rng: random.Random, count: int) -> list[str]:
    deck = [kind for kind, share in MIX.items() for _ in range(share)]
    kinds: list[str] = []
    while len(kinds) < count:
        rng.shuffle(deck)
        kinds.extend(deck)
    return kinds[:count]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _by_kind(requests: list[Request]) -> dict[str, list[Request]]:
    grouped: dict[str, list[Request]] = {kind: [] for kind in MIX}
    for request in requests:
        grouped[request.kind].append(request)
    return grouped


def _allocate(total: int, weights: Sequence[float]) -> list[int]:
    """``total`` split in proportion to ``weights``, by largest remainder."""
    exact = [total * weight / sum(weights) for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def pool_sizes(total: int = ZIPF_POOL) -> dict[str, int]:
    """Distinct payloads per kind: the mix shares of ``total``, summing to it."""
    return dict(zip(MIX, _allocate(total, list(MIX.values()))))


@dataclasses.dataclass(frozen=True)
class Pools:
    """The fixed payload pools every sequence draws from."""

    #: ``serve_unique``'s payloads, distinct, in the weighted mix.
    unique: list[Request]
    #: ``serve_zipf``'s payloads, distinct; within a kind, in popularity
    #: order, and per-kind sizes in the mix's proportions.
    zipf: list[Request]

    @staticmethod
    def generate(universe: Universe) -> "Pools":
        rng = _rng("serve_unique:pool", 0)
        payloads = _Payloads(rng, universe)
        seen: set[str] = set()
        unique = [payloads.distinct(kind, seen) for kind in _kinds(rng, UNIQUE_POOL)]
        payloads = _Payloads(_rng("serve_zipf:pool", 0), universe)
        seen = set()
        zipf = [
            payloads.distinct(kind, seen)
            for kind, size in pool_sizes().items()
            for _ in range(size)
        ]
        return Pools(unique, zipf)

    def distinct(self) -> list[Request]:
        """Every payload any workload sends, each once."""
        return list({r.key: r for r in self.unique + self.zipf}.values())

    def to_json(self) -> dict[str, Any]:
        return {
            name: [[r.kind, r.payload] for r in getattr(self, name)]
            for name in ("unique", "zipf")
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "Pools":
        return Pools(
            *([Request(kind, payload) for kind, payload in data[name]]
              for name in ("unique", "zipf"))
        )


def _part(
    rng: random.Random, count: int, take: Callable[[str, int], list[Request]]
) -> list[Request]:
    """``count`` requests in the weighted mix: ``take(kind, n)`` gives the
    ``n`` requests of each kind, which are dealt in a shuffled order."""
    kinds = _kinds(rng, count)
    streams = {}
    for kind in MIX:
        stream = take(kind, kinds.count(kind))
        rng.shuffle(stream)
        streams[kind] = stream
    return [streams[kind].pop() for kind in kinds]


def unique_sequence(seed: int, count: int, pools: Pools) -> list[Request]:
    """The warm-up and ``count`` timed requests; no cache key repeats."""
    warmup = WARMUP["serve_unique"]
    if warmup + count > UNIQUE_POOL:
        raise ValueError(f"serve_unique sends at most {UNIQUE_POOL - warmup} requests")
    rng = _rng("serve_unique", seed)
    unsent = {kind: iter(entries) for kind, entries in _by_kind(pools.unique).items()}

    def take(kind: str, n: int) -> list[Request]:
        return list(itertools.islice(unsent[kind], n))

    return _part(rng, warmup, take) + _part(rng, count, take)


def zipf_sequence(seed: int, count: int, pools: Pools) -> list[Request]:
    """The warm-up and ``count`` timed requests: in each part, every
    payload's Zipf(1.1) share of its kind's requests, by popularity rank."""
    rng = _rng("serve_zipf", seed)
    ranked = _by_kind(pools.zipf)

    def take(kind: str, n: int) -> list[Request]:
        entries = ranked[kind]
        weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(entries) + 1)]
        return [
            request
            for request, copies in zip(entries, _allocate(n, weights))
            for _ in range(copies)
        ]

    return _part(rng, WARMUP["serve_zipf"], take) + _part(rng, count, take)


def sequence(workload: str, seed: int, count: int, pools: Pools) -> list[Request]:
    """``WARMUP[workload]`` warm-up requests, then ``count`` timed ones."""
    if workload == "serve_zipf":
        return zipf_sequence(seed, count, pools)
    if workload == "serve_unique":
        return unique_sequence(seed, count, pools)
    raise ValueError(f"{workload!r} has no request sequence")

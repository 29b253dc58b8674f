"""Load harness for the serving stack (``repro loadtest``).

A concurrent keep-alive HTTP client that replays configurable endpoint
mixes against a running server and reports throughput, latency
percentiles and error fractions — the measurement half of the serving
stack, sharing nothing with the server side so it measures the
transport from the outside.

Mixes:

* ``smoke`` — every serving endpoint once per cycle (health, metrics,
  analysis and SQL endpoints; ``/montecarlo`` at its minimum sample
  count). CI uses it to prove the server answers the whole API
  with zero 5xx and drains cleanly.
* ``hot`` — one identical cacheable ``/score`` request, repeated. With
  the cache cleared this is the coalescing torture test: N connections,
  one hot key, and ``handler_calls`` should stay far below ``requests``.
* ``spread`` — ``/score`` with rotating ingredient permutations, so
  every request is a distinct cache key (the anti-coalescing control).

The client is a plain ``asyncio`` implementation over
``open_connection`` — one coroutine per connection, strict HTTP/1.1
keep-alive, no third-party dependencies — so a single process can hold
hundreds of concurrent connections, which threads could not.

Results serialise to the ``BENCH_service_load.json`` schema consumed by
``repro obs check``. Metric naming note: the error share is reported as
``error_fraction`` (never "error_rate" — the watchdog classifies
``*_rate`` leaves as higher-is-better).
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import time
from typing import Any, Callable, Sequence
from urllib.parse import urlsplit

from ..obs.metrics import percentile

__all__ = [
    "MIXES",
    "LoadClient",
    "LoadReport",
    "build_mix",
    "run_loadtest",
]

#: (method, path, JSON payload or None)
RequestSpec = tuple[str, str, Any]

#: Placeholder region code; replaced by the first populated region the
#: target server reports, so mixes work at any ``--scale``.
REGION_PLACEHOLDER = "__region__"

#: Ingredients present even at the smallest corpus scales (the same
#: trio the CI serve-smoke job has always used).
_STAPLES = ("garlic", "onion", "tomato")


def smoke_mix() -> list[RequestSpec]:
    """Every serving endpoint once (``/debug/profile`` excluded: it
    admits one capture at a time, so concurrent replay would 409)."""
    return [
        ("GET", "/healthz", None),
        ("GET", "/readyz", None),
        ("GET", "/regions", None),
        ("GET", "/stats", None),
        ("GET", "/metrics", None),
        ("POST", "/alias", {"phrase": "2 cloves garlic, minced"}),
        ("POST", "/score", {"ingredients": list(_STAPLES)}),
        ("POST", "/classify", {"ingredients": list(_STAPLES), "top": 3}),
        ("POST", "/pairings", {"ingredient": "garlic", "limit": 5}),
        ("POST", "/similar", {"ingredient": "garlic", "k": 5}),
        ("POST", "/complete", {"ingredients": ["garlic", "onion"], "k": 3}),
        (
            "POST",
            "/recommend",
            {"region": REGION_PLACEHOLDER, "count": 2, "seed": 7},
        ),
        (
            "POST",
            "/sql",
            {
                "query": (
                    "SELECT code, name, pairing FROM regions "
                    "ORDER BY code LIMIT 5"
                )
            },
        ),
        (
            "POST",
            "/montecarlo",
            {"region": REGION_PLACEHOLDER, "n_samples": 100, "seed": 7},
        ),
    ]


def hot_mix() -> list[RequestSpec]:
    """One identical cacheable request — the coalescing hot key."""
    return [("POST", "/score", {"ingredients": list(_STAPLES)})]


def spread_mix() -> list[RequestSpec]:
    """Distinct /score cache keys (ingredient-order permutations)."""
    return [
        ("POST", "/score", {"ingredients": list(perm)})
        for perm in itertools.permutations(_STAPLES)
    ]


MIXES: dict[str, Callable[[], list[RequestSpec]]] = {
    "smoke": smoke_mix,
    "hot": hot_mix,
    "spread": spread_mix,
}


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """One load-test run, JSON-ready (the BENCH_service_load schema)."""

    mix: str
    connections: int
    requests: int
    errors: int
    duration_s: float
    requests_per_sec: float
    p50_ms: float
    p99_ms: float
    status_counts: dict[str, int]

    @property
    def error_fraction(self) -> float:
        return self.errors / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "mix": self.mix,
            "connections": self.connections,
            "requests": self.requests,
            "errors": self.errors,
            "error_fraction": round(self.error_fraction, 6),
            "duration_s": round(self.duration_s, 4),
            "requests_per_sec": round(self.requests_per_sec, 2),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "status_counts": dict(sorted(self.status_counts.items())),
        }

    def render(self) -> str:
        statuses = " ".join(
            f"{status}:{count}"
            for status, count in sorted(self.status_counts.items())
        )
        return (
            f"mix={self.mix} connections={self.connections} "
            f"requests={self.requests} errors={self.errors} "
            f"throughput={self.requests_per_sec:.1f} req/s "
            f"p50={self.p50_ms:.2f} ms p99={self.p99_ms:.2f} ms "
            f"[{statuses}]"
        )


class LoadClient:
    """One keep-alive HTTP/1.1 connection issuing sequential requests.

    The measurement primitive: benchmarks drive bursts through a handful
    of these directly, and :func:`run_loadtest` runs one per simulated
    connection.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, Any]:
        """One round trip; reconnects when the server closed on us."""
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = b""
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}"]
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        head.append("Connection: keep-alive")
        self._writer.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body
        )
        await self._writer.drain()
        status, headers, raw = await asyncio.wait_for(
            self._read_response(), timeout=self.timeout
        )
        if headers.get("connection", "").lower() == "close":
            await self.aclose()
        try:
            decoded = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            decoded = raw.decode("utf-8", "replace")
        return status, decoded

    async def _read_response(self) -> tuple[int, dict[str, str], bytes]:
        assert self._reader is not None
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        return status, headers, raw


def build_mix(name: str) -> list[RequestSpec]:
    """The named mix with placeholders still in (see ``_materialize``)."""
    try:
        return MIXES[name]()
    except KeyError:
        raise ValueError(
            f"unknown mix {name!r} (expected one of {sorted(MIXES)})"
        ) from None


async def _materialize(
    mix: list[RequestSpec], client: LoadClient
) -> list[RequestSpec]:
    """Resolve region placeholders against the live server."""
    if not any(
        isinstance(payload, dict)
        and payload.get("region") == REGION_PLACEHOLDER
        for _, _, payload in mix
    ):
        return mix
    status, body = await client.request("GET", "/regions")
    region = None
    if status == 200 and isinstance(body, dict):
        for row in body.get("regions", []):
            if row.get("recipes"):
                region = row["code"]
                break
    if region is None:
        raise RuntimeError(
            "could not resolve a populated region from /regions"
        )
    resolved = []
    for method, path, payload in mix:
        if (
            isinstance(payload, dict)
            and payload.get("region") == REGION_PLACEHOLDER
        ):
            payload = {**payload, "region": region}
        resolved.append((method, path, payload))
    return resolved


async def _run_async(
    host: str,
    port: int,
    mix_name: str,
    connections: int,
    requests: int,
    timeout: float,
) -> LoadReport:
    mix = build_mix(mix_name)
    probe = LoadClient(host, port, timeout=timeout)
    await probe.connect()
    try:
        mix = await _materialize(mix, probe)
    finally:
        await probe.aclose()

    latencies: list[float] = []
    status_counts: dict[str, int] = {}
    errors = 0
    # Spread the total evenly; the remainder goes to the first workers.
    share, extra = divmod(requests, connections)

    async def worker(index: int) -> None:
        nonlocal errors
        count = share + (1 if index < extra else 0)
        if count == 0:
            return
        client = LoadClient(host, port, timeout=timeout)
        await client.connect()
        try:
            # Offset each worker so connections do not march in
            # lockstep through the mix.
            for step in range(count):
                method, path, payload = mix[(index + step) % len(mix)]
                started = time.perf_counter()
                try:
                    status, _ = await client.request(method, path, payload)
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    await client.aclose()
                    errors += 1
                    status_counts["(transport)"] = (
                        status_counts.get("(transport)", 0) + 1
                    )
                    continue
                latencies.append(time.perf_counter() - started)
                key = str(status)
                status_counts[key] = status_counts.get(key, 0) + 1
                if status >= 500:
                    errors += 1
        finally:
            await client.aclose()

    started = time.perf_counter()
    await asyncio.gather(*(worker(i) for i in range(connections)))
    duration = time.perf_counter() - started

    ordered = sorted(latencies)
    return LoadReport(
        mix=mix_name,
        connections=connections,
        requests=requests,
        errors=errors,
        duration_s=duration,
        requests_per_sec=requests / duration if duration > 0 else 0.0,
        p50_ms=percentile(ordered, 0.50) * 1000 if ordered else 0.0,
        p99_ms=percentile(ordered, 0.99) * 1000 if ordered else 0.0,
        status_counts=status_counts,
    )


def run_loadtest(
    url: str,
    mix: str = "smoke",
    connections: int = 8,
    requests: int = 200,
    timeout: float = 30.0,
) -> LoadReport:
    """Replay ``mix`` against ``url`` and measure.

    Runs its own event loop, so it must be called from a thread that is
    not already inside one (the CLI, tests and benchmarks all qualify).
    """
    parts = urlsplit(url if "//" in url else f"http://{url}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    if connections < 1:
        raise ValueError(f"connections must be positive, got {connections}")
    if requests < 1:
        raise ValueError(f"requests must be positive, got {requests}")
    return asyncio.run(
        _run_async(host, port, mix, connections, requests, timeout)
    )

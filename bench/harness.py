"""One benchmark run of one workload: measure, check, report.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
prints a ``record {...}`` line with everything the run saw, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics, measured with no
spans recorded; with ``--trace 1`` they are the per-layer metrics.
``BENCHMARK.json`` names the workloads and both metric lists.

``--seconds`` sets how many requests a serving mix sends: about as many
as a 2-core host answers in that time. ``paper_cold`` always runs one
pipeline, which takes longer than a serving run. A fixed count makes a
seed replay the same work, so output digests and counters repeat
exactly.

A per-layer metric is 0 on a workload that never enters that layer
(``paper_cold`` serves no request; the serving mixes build no stage).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

from . import client, program, stats, workloads
from .program import Children, Server
from .trace import Span, Tracer, chrome_events, write_chrome

#: The program's engine stages, in build order.
STAGES = ("corpus", "aliasing", "cuisines", "pairing_views", "retrieval_index")
#: The served POST endpoints, as the program names them.
ENDPOINTS = tuple(dict.fromkeys(p.lstrip("/") for p in workloads.PATHS.values()))
TABLE_EXPERIMENTS = ("table1", "fig2", "fig3a", "fig3b")

#: Fresh-interpreter imports timed for ``paper_cold``'s ``setup_s``.
SETUP_REPEATS = 3
#: Null-model samples at scale 1.0 (the paper draws 100,000).
PAPER_SAMPLES = 5_000
#: HTTP spans kept in a serving run's Chrome trace.
TRACE_HTTP_SPANS = 2000


def benchmark() -> dict[str, Any]:
    """``BENCHMARK.json``: the one list of workloads and metrics."""
    return json.loads(program.BENCHMARK.read_text(encoding="utf-8"))


def workload_names() -> list[str]:
    return [workload["name"] for workload in benchmark()["workloads"]]


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the ``kind`` list, "end_to_end" or "per_layer"."""
    return {metric["name"]: metric["unit"] for metric in benchmark()[kind]}


def paper_samples(scale: float) -> int:
    return max(1000, round(PAPER_SAMPLES * scale))


def stamp() -> dict[str, Any]:
    """What a result depends on besides the code: the host and toolchain."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=program.ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
    }


class Run:
    """State of one run: counts, checks, metrics and the record."""

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool, scale: float,
        children: Children,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.children = children
        self.dir = program.WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = dict.fromkeys(units("per_layer"), 0.0)
        self.tracer = Tracer()
        self.events: list[dict[str, Any]] = []
        self.record: dict[str, Any] = {"workload": workload, "seed": seed}

    def check(self, ok: bool, problem: str) -> bool:
        """One attempted verification; a failure counts and is recorded."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def run_layers(
        self, mode: str, *args: str, timeout: float = 150
    ) -> tuple[dict[str, Any], float, Any]:
        """Run ``bench.layers`` in a fresh process: (summary, wall, rusage)."""
        out = self.dir / f"layers-{mode}.json"
        log = self.dir / f"layers-{mode}.err"
        code, wall, usage = self.children.run(
            [sys.executable, "-m", "bench.layers", mode, "--scale", f"{self.scale:g}",
             "--out", str(out), *args],
            log,
            timeout=timeout,
        )
        if code != 0:
            raise program.exit_error(f"bench.layers {mode}", code, log)
        return json.loads(out.read_text(encoding="utf-8")), wall, usage

    def set_latencies(self, seconds: list[float]) -> None:
        """``latency_ms`` is the mean; median and tail go to the record.

        Two connections into one interpreter make a cheap request either
        run at once or wait for a costly one, so the median jumps between
        those two modes from run to run; the mean takes in both smoothly.
        """
        value, pct = stats.tail(seconds)
        self.e2e["latency_ms"] = statistics.fmean(seconds) * 1000
        self.record["latency"] = {
            "count": len(seconds),
            "p50_ms": statistics.median(seconds) * 1000,
            "tail_ms": value * 1000,
            "tail_percentile": pct,
        }

    def add_spans(self, spans: list[Span], pid: int) -> None:
        self.events.extend(chrome_events(spans, pid, origin=self.tracer.spans[0].start))


def _replay(
    run: Run, store: Path, requests: list[workloads.Request], timed: bool,
    timeout: float = 150,
) -> tuple[dict[str, Any], float, Any]:
    """``handle_*`` answers (and spans) for ``requests``, from bench.layers."""
    path = run.dir / "requests.json"
    path.write_text(json.dumps([[r.path, r.payload] for r in requests]), encoding="utf-8")
    args = ["--cache-dir", str(store), "--requests", str(path)]
    return run.run_layers(
        "replay", *args, *(["--timed"] if timed else []), timeout=timeout
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _body_digest(body: bytes) -> str:
    """A served body as a reference answer: its canonical form's digest,
    without the request id."""
    served = json.loads(body)
    served.pop("request_id", None)
    return _sha(workloads.canonical(served))


def prepare(run: Run) -> tuple[Path, workloads.Pools, dict[str, str]]:
    """The shared warm store, the payload pools and every pooled
    payload's answer, built on first use: ``(store, pools, answers)``.

    Every workload calls this first, so whichever run comes first in a
    checkout pays these one-off builds, never a timed phase. An answer
    is the SHA-256 of the canonical body of the payload's in-process
    ``QueryService.handle_*`` call, keyed by cache key. Every pooled
    payload is valid; one that raises fails the build.
    """
    with program.cache_lock():
        store = program.warm_store(run.scale, run.children)
        path = program.cached("pools", run.scale, ".json")
        if not path.exists():
            pools = workloads.Pools.generate(workloads.Universe.from_program())
            requests = pools.distinct()
            with run.tracer.span("build.reference"):
                summary, _, _ = _replay(run, store, requests, timed=False, timeout=900)
            built = {
                **pools.to_json(),
                "answers": {
                    request.key: _sha(body)
                    for request, body in zip(requests, summary["answers"])
                },
            }
            building = path.with_name("building-" + path.name)
            building.write_text(json.dumps(built), encoding="utf-8")
            building.rename(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    return store, workloads.Pools.from_json(data), data["answers"]


def _stage_layers(run: Run, spans: Tracer, summary: dict[str, Any]) -> None:
    """Engine, corpus, aliasing and import layers from a layer run's spans."""
    for stage in STAGES:
        run.layers[f"engine.resolve_s.{stage}"] = spans.seconds(f"engine.{stage}")
    run.layers["engine.builds"] = summary["builds"]
    run.layers["corpus.recipes_per_s"] = (
        summary["raw_recipes"] / spans.seconds("engine.corpus")
    )
    run.layers["aliasing.phrases_per_s"] = (
        summary["phrases"] / spans.seconds("engine.aliasing")
    )
    run.layers["program.import_s"] = spans.seconds("program.import")
    run.layers["parallel.shards"] = summary["shards"]


def _coverage(spans: Tracer, summary: dict[str, Any]) -> float:
    """Share of a layer run's own wall time its top-level spans cover."""
    return spans.top_level_seconds() / summary["wall"]


# ---------------------------------------------------------------------------
# paper_cold
# ---------------------------------------------------------------------------
def _setup_imports(run: Run) -> None:
    """``paper_cold``'s ``setup_s``: the median time of a fresh
    interpreter importing the program. It proves the program imports and
    leaves its bytecode and files warm for the timed pipeline."""
    walls = []
    for number in range(SETUP_REPEATS):
        log = run.dir / f"setup-{number}.err"
        with run.tracer.span("setup.import"):
            code, wall, _ = run.children.run(
                [sys.executable, "-c", "import repro.cli, repro.service"],
                log, timeout=60,
            )
        if code != 0:
            raise program.exit_error("importing the program", code, log)
        walls.append(wall)
    run.e2e["setup_s"] = statistics.median(walls)


def _table_rows(text: str) -> list[list[str]]:
    """The body rows of a rendered table: lines after the dashes rule."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def _check_paper_facts(run: Run, out: Path) -> None:
    """Table 1 equals the paper; Fig 4 has 16/6 signs and the frequency
    model explains every cuisine."""
    rows = _table_rows((out / "table1.txt").read_text(encoding="utf-8"))
    run.check(
        len(rows) == 22 and all(row[-1] == "yes" for row in rows),
        "table1: a row differs from the paper",
    )
    fig4 = (out / "fig4.txt").read_text(encoding="utf-8")
    run.check("uniform: 16, contrasting: 6" in fig4, "fig4: signs are not 16/6")
    explains = all(
        abs(float(row[3])) < abs(float(row[2])) for row in _table_rows(fig4)
    )
    run.check(explains, "fig4: frequency model does not explain every cuisine")


def _report_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.txt")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _remembered_digest(run: Run, digest: str) -> bool:
    """True when ``digest`` equals the first one this code ever produced."""
    with program.cache_lock():
        path = program.cached("report", run.scale, f"-{paper_samples(run.scale)}.sha256")
        if not path.exists():
            path.write_text(digest, encoding="utf-8")
        return path.read_text(encoding="utf-8") == digest


def paper_cold(run: Run) -> None:
    prepare(run)
    _setup_imports(run)

    def pipeline_args(cache: Path) -> list[str]:
        return ["--workers", str(program.WORKERS),
                "--n-samples", str(paper_samples(run.scale)), "--cache-dir", str(cache)]

    cache, out = run.dir / "cache", run.dir / "report"
    log = run.dir / "report.err"
    client_cpu = time.process_time()
    with run.tracer.span("op.report"):
        code, wall, usage = run.children.run(
            program.repro_args("report", "--scale", f"{run.scale:g}",
                               *pipeline_args(cache), "--out", str(out)),
            log, timeout=150,
        )
    client_cpu = time.process_time() - client_cpu
    if code != 0:
        raise program.exit_error("repro report", code, log)
    run.e2e["latency_ms"] = wall * 1000
    run.e2e["peak_rss_mb"] = usage.ru_maxrss / 1024
    run.record["program_cpu_s"] = usage.ru_utime + usage.ru_stime
    run.record["store_bytes"] = program.store_bytes(cache)
    shutil.rmtree(cache)
    if run.scale == 1.0:
        _check_paper_facts(run, out)
    digest = _report_digest(out)
    run.check(_remembered_digest(run, digest), "report outputs differ from earlier runs")
    run.record["report_sha256"] = digest

    if not run.trace:
        return
    cache = run.dir / "cache-traced"
    with run.tracer.span("op.traced_report"):
        summary, traced_wall, usage = run.run_layers("pipeline", *pipeline_args(cache))
    for name, render in summary["renders"].items():
        text = (out / f"{name}.txt").read_text(encoding="utf-8")
        run.check(text.endswith(render + "\n"), f"traced {name} differs from the report")
    spans = Tracer.from_dicts(summary["spans"])
    _stage_layers(run, spans, summary)
    run.layers["engine.store_bytes"] = program.store_bytes(cache)
    run.layers["experiments.tables_s"] = sum(
        spans.seconds(f"experiments.{name}") for name in TABLE_EXPERIMENTS
    )
    run.layers["parallel.fig4_s"] = spans.seconds("experiments.fig4")
    run.layers["parallel.fig5_s"] = spans.seconds("experiments.fig5")
    run.layers["parallel.samples_per_s"] = (
        summary["fig4_samples"] / run.layers["parallel.fig4_s"]
    )
    run.layers["program.cpu_s"] = usage.ru_utime + usage.ru_stime
    run.layers["bench.client_cpu_s"] = client_cpu
    run.layers["trace.coverage"] = _coverage(spans, summary)
    run.layers["trace.overhead"] = traced_wall / wall - 1
    run.add_spans(spans.spans, pid=1)
    shutil.rmtree(cache)


# ---------------------------------------------------------------------------
# serve_zipf / serve_unique
# ---------------------------------------------------------------------------
def _warm_load(prometheus: str) -> bool:
    """No stage was built and every stage was loaded from the disk store."""
    loaded = set()
    for line in prometheus.splitlines():
        if line.startswith("engine_stage_build_total{") and float(line.split()[-1]) > 0:
            return False
        if line.startswith("engine_stage_hit_total{") and 'tier="disk"' in line:
            loaded |= {stage for stage in STAGES if f'stage="{stage}"' in line}
    return loaded == set(STAGES)


def _service_layers(run: Run, spans: Tracer) -> dict[str, list[float]]:
    """Start-up and per-endpoint handler layers from a replay's spans."""
    run.layers["culinarydb.build_s"] = spans.seconds("culinarydb.build")
    run.layers["service.preload_s"] = spans.seconds("service.preload")
    by_endpoint: dict[str, list[float]] = {}
    for span in spans.spans:
        if span.name == "handler":
            by_endpoint.setdefault(span.attrs["endpoint"], []).append(span.seconds)
    for endpoint, seconds in by_endpoint.items():
        run.layers[f"service.handler_ms.{endpoint}"] = statistics.median(seconds) * 1000
        run.layers[f"service.handler_s.{endpoint}"] = sum(seconds)
    return by_endpoint


@dataclasses.dataclass
class _Pass:
    #: Every request's exchange, warm-up first, in request order.
    exchanges: list[client.Exchange]
    #: Spawn to ``/readyz`` 200.
    boot: float
    #: Spawn to the last warm-up answer: when timing starts.
    setup: float
    #: Wall time of the timed requests.
    wall: float
    server_cpu: float
    client_cpu: float
    #: Serving counters over the timed requests.
    counts: dict[str, float]
    peak_rss_mb: float
    spans: list[Span]


def _counts(port: int) -> dict[str, float]:
    """The server's cache and serving counters, from ``/metrics``."""
    metrics = client.get_json(port, "/metrics")
    serving = metrics["serving"]
    return {
        "handler_calls": sum(
            n for endpoint, n in serving["handler_calls"].items() if endpoint in ENDPOINTS
        ),
        "evictions": metrics["cache"]["evictions"],
        "coalesced": sum(serving["coalesced"].values()),
        "rejected": sum(
            n for reasons in serving["rejected"].values() for n in reasons.values()
        ),
    }


def _serve_pass(run: Run, store: Path, encoded: list[bytes], kinds: list[str],
                warmup: int, traced: bool) -> _Pass:
    """Boot a server, send ``encoded[:warmup]`` untimed, then time the rest."""
    spans: list[Span] = []

    def on_exchange(exchange: client.Exchange) -> None:
        index = warmup + exchange.index
        spans.append(Span(kinds[index], exchange.sent, exchange.received, None,
                          {"connection": exchange.connection, "index": index}))

    label = "traced" if traced else "plain"
    with run.tracer.span(f"setup.boot_{label}"):
        server = Server(
            run.children, store, run.scale, run.dir / f"server-{label}.err"
        )
        server.wait_banner()
        server.ready()
        boot = time.perf_counter() - server.started
    with run.tracer.span(f"setup.warmup_{label}"):
        warm = client.closed_loop(server.port, encoded[:warmup], workloads.CONNECTIONS)
    setup = time.perf_counter() - server.started
    before = _counts(server.port)
    server_cpu = server.cpu_seconds()
    client_cpu = time.process_time()
    with run.tracer.span(f"op.load_{label}") as load:
        timed = client.closed_loop(
            server.port, encoded[warmup:], workloads.CONNECTIONS,
            on_exchange=on_exchange if traced else None,
        )
    server_cpu = server.cpu_seconds() - server_cpu
    client_cpu = time.process_time() - client_cpu
    after = _counts(server.port)
    for exchange in timed:
        exchange.index += warmup
    _, text = client.request(server.port, client.encode_get("/metrics?format=prometheus"))
    run.check(_warm_load(text.decode()), "boot was not a warm load from disk")
    result = _Pass(
        exchanges=warm + timed,
        boot=boot,
        setup=setup,
        wall=load.seconds,
        server_cpu=server_cpu,
        client_cpu=client_cpu,
        counts={name: after[name] - before[name] for name in after},
        peak_rss_mb=server.peak_rss_mb(),
        spans=spans,
    )
    run.check(server.stop(), "server did not drain cleanly")
    run.layers["program.tracebacks"] += server.tracebacks()
    return result


def _lru_hits(keys: list[str], capacity: int) -> list[bool]:
    cache: OrderedDict[str, None] = OrderedDict()
    hits = []
    for key in keys:
        hit = key in cache
        hits.append(hit)
        cache[key] = None
        cache.move_to_end(key)
        if len(cache) > capacity:
            cache.popitem(last=False)
    return hits


def serve(run: Run) -> None:
    store, pools, answers = prepare(run)
    warmup = workloads.WARMUP[run.workload]
    count = max(1, round(run.seconds * workloads.REQUESTS_PER_SECOND[run.workload]))
    requests = workloads.sequence(run.workload, run.seed, count, pools)
    encoded = [client.encode_post(r.path, r.payload) for r in requests]
    kinds = [r.path.lstrip("/") for r in requests]

    plain = _serve_pass(run, store, encoded, kinds, warmup, traced=False)
    run.e2e["setup_s"] = plain.setup
    run.set_latencies([e.seconds for e in plain.exchanges[warmup:]])
    run.e2e["peak_rss_mb"] = plain.peak_rss_mb
    passes = [plain]
    if run.trace:
        passes.append(_serve_pass(run, store, encoded, kinds, warmup, traced=True))

    digest = hashlib.sha256()
    for done in passes:
        run.check(len(done.exchanges) == len(requests), "requests went unanswered")
        for exchange in done.exchanges:
            served = _body_digest(exchange.body) if exchange.status == 200 else ""
            run.check(
                served == answers[requests[exchange.index].key],
                f"request {exchange.index} answered {exchange.status} or wrongly",
            )
            if done is plain:
                digest.update(f"{exchange.index}:{served}\n".encode())
    timed = requests[warmup:]
    distinct = list({r.key: r for r in timed}.values())
    run.record.update(
        warmup=warmup,
        requests=count,
        distinct=len(distinct),
        boot_s=plain.boot,
        throughput_per_s=count / plain.wall,
        response_sha256=digest.hexdigest(),
        handler_calls=plain.counts["handler_calls"],
        cache_hit_ratio=1 - plain.counts["handler_calls"] / count,
        store_bytes=program.store_bytes(store),
    )
    if not run.trace:
        return

    traced = passes[1]
    with run.tracer.span("op.traced_replay"):
        summary, _, _ = _replay(run, store, distinct, timed=True)
    spans = Tracer.from_dicts(summary["spans"])
    _stage_layers(run, spans, summary)
    by_endpoint = _service_layers(run, spans)
    for template in ("agg", "join"):
        for step in ("prepare", "execute"):
            seconds = [s.seconds for s in spans.spans
                       if s.name == f"db.{step}" and s.attrs["template"] == template]
            if seconds:
                run.layers[f"db.{step}_ms.{template}"] = statistics.median(seconds) * 1000
    mc = by_endpoint.get("montecarlo", [])
    if mc:
        run.layers["parallel.samples_per_s"] = (
            len(mc) * workloads.MONTECARLO_SAMPLES / sum(mc)
        )
    dispatch = summary["dispatch"]
    run.layers["service.dispatch_hit_us"] = dispatch["hit_us"]
    run.layers["service.dispatch_overhead_us"] = dispatch["overhead_us"]
    handler_seconds = {
        r.key: s.seconds
        for r, s in zip(distinct, (s for s in spans.spans if s.name == "handler"))
    }
    hits = _lru_hits([r.key for r in requests], workloads.CACHE_CAPACITY)
    residuals = [
        e.seconds - (dispatch["hit_us"] / 1e6 if hits[e.index]
                     else handler_seconds[requests[e.index].key]
                     + dispatch["overhead_us"] / 1e6)
        for e in traced.exchanges[warmup:]
    ]
    run.layers.update({
        "engine.store_bytes": run.record["store_bytes"],
        "service.boot_s": plain.boot,
        "service.p50_ms": run.record["latency"]["p50_ms"],
        "service.tail_ms": run.record["latency"]["tail_ms"],
        "service.transport_ms": statistics.median(residuals) * 1000,
        "service.handler_calls": plain.counts["handler_calls"],
        "service.cache_hit_ratio": run.record["cache_hit_ratio"],
        "service.cache_evictions": plain.counts["evictions"],
        "service.coalesced": plain.counts["coalesced"],
        "service.rejected": plain.counts["rejected"],
        "program.cpu_s": traced.server_cpu,
        "bench.client_cpu_s": traced.client_cpu,
        "trace.coverage": sum(s.seconds for s in traced.spans)
        / (workloads.CONNECTIONS * traced.wall),
        "trace.overhead": traced.wall / plain.wall - 1,
    })
    run.add_spans(traced.spans[:TRACE_HTTP_SPANS], pid=2)
    run.add_spans(spans.spans, pid=1)


def _phase_seconds(tracer: Tracer) -> dict[str, float]:
    phases: dict[str, float] = {}
    for span in tracer.spans:
        if span.parent is not None:
            phases[span.name] = phases.get(span.name, 0.0) + span.seconds
    return phases


RUNNERS = {
    "paper_cold": paper_cold,
    "serve_zipf": serve,
    "serve_unique": serve,
}


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One run: ``(result, record)``; the result is the last stdout line."""
    calibration = stats.calibrate()
    with Children() as children:
        run = Run(workload, seed, seconds, trace, scale, children)
        try:
            with run.tracer.span(f"run.{workload}"):
                RUNNERS[workload](run)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    values = run.layers if trace else run.e2e
    expected = units("per_layer" if trace else "end_to_end")
    if set(values) != set(expected):
        raise ValueError(
            f"measured {sorted(values)} but BENCHMARK.json lists {sorted(expected)}"
        )
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in expected.items()
    }
    record = {
        **run.record,
        "trace": trace,
        "scale": scale,
        "seconds": seconds,
        "calibration_s": calibration,
        "stamp": stamp(),
        "problems": run.problems[:20],
        "phases": _phase_seconds(run.tracer),
    }
    if trace:
        run.add_spans(run.tracer.spans, pid=0)
        trace_path = program.WORK / "traces" / f"{workload}-s{seed}.json"
        write_chrome(trace_path, run.events)
        record["trace_file"] = str(trace_path.relative_to(program.ROOT))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="corpus scale; below 1.0 the paper's Table 1/Fig 4 checks are skipped",
    )
    args = parser.parse_args(argv)
    if not program.program_present():
        print(f"bench: no program at {program.SRC / 'repro'}", file=sys.stderr)
        return 2
    result, record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1

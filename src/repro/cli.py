"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — list available experiments.
* ``run <id>`` — run one experiment and print its table
  (``--scale``/``--samples`` control corpus size and null-model samples).
* ``fig4`` / ``fig5`` — shortcuts for ``run fig4`` / ``run fig5``.
* ``build-db --out DIR`` — generate the corpus, alias it, build CulinaryDB
  and persist it as CSV.
* ``query --db DIR "SELECT ..."`` — run SQL against a persisted database.
* ``serve`` — build a workspace once and serve it over the HTTP JSON API
  (see :mod:`repro.service`) from an asyncio front door with admission
  control and graceful drain; ``--preload`` fully warms the service
  before the socket binds.
* ``loadtest URL`` — drive a running server with keep-alive
  connections (``--mix smoke|hot|spread``) and report throughput and
  latency percentiles; exits nonzero on any transport error or 5xx.
* ``similar TARGET`` — top-k flavor-sharing ingredients from the
  retrieval index (``--cuisine`` ranks nearest cuisines instead; see
  :mod:`repro.retrieval`).
* ``recommend --region X`` — index-backed novel recipe proposals plus
  the region's nearest cuisines.
* ``cache ls|info|clear`` — inspect or empty the stage-artifact disk
  cache (see :mod:`repro.engine`).
* ``obs check`` — the perf-regression watchdog: compare fresh
  ``BENCH_*.json`` results against the committed baselines and exit
  nonzero on a regression (see :mod:`repro.obs.watchdog`).

Every run parameter flows through one :class:`repro.engine.RunConfig`:
the ``--seed``/``--scale``/``--samples``/``--workers``/``--cache-dir``
flags are *generated* from its field metadata
(:func:`repro.engine.config_parent_parser`), so each flag has a single
definition shared by all subcommands. ``fig5``, ``build-db``,
``similar``, ``recommend`` and ``serve`` take only the flags that select
their workspace: ``--seed``, ``--scale``, ``--cache-dir`` and
``--no-disk-cache``. Passing ``--cache-dir`` (or
setting ``$REPRO_CACHE_DIR``) enables the on-disk stage-artifact cache:
a second run warm-loads the corpus/aliasing/cuisines/pairing-view
artifacts instead of rebuilding them, and prints a cache summary line to
stderr (``engine cache: hits=... builds=...``).

``--workers N`` fans the Monte Carlo tasks, one per (region, model),
across a process pool (``0`` = one per CPU core) for the sampling
commands (``run``/``fig4``/``report``; see :mod:`repro.parallel`).
Stage builds and Fig 5's exact sweep always run in one process, so
stage artifacts are byte-identical with or without ``--workers``.
Each task draws its cell's root seed stream wherever it runs, so
``fig4 --z-out PATH`` writes full-precision Z-scores that depend only on
``(seed, samples)``: without ``--workers`` and at every ``N`` the file
is the same — which is what the CI determinism checks diff.
``--seed 20180417`` (the paper seed) samples the same streams as no
``--seed``.

Every command accepts the global observability flags (see
:mod:`repro.obs`): ``--trace`` prints a span timing tree on exit,
``--trace-out PATH`` writes the trace artifact (``.json`` = Chrome
trace-event format, anything else = JSONL), ``--log-json`` switches the
structured logs to JSON lines, and ``--log-level`` sets their threshold.
``--profile`` runs the whole command under the sampling profiler
(:mod:`repro.obs.profile`) and prints the hottest stacks on exit;
``--profile-out PATH`` writes the capture (``.json`` = speedscope,
anything else = collapsed stacks). ``--metrics-out PATH`` dumps the
final metrics-registry snapshot as JSON; each histogram's window is
reported in the unit its name states. With ``--trace`` and
``--workers N`` together, worker-side spans are harvested back into the
parent (see :mod:`repro.obs.snapshot`), so the printed tree is complete
at any worker count. Workers record no metric series: the Monte Carlo
sweep counts each task from its result, so the metrics dump reads the
same without ``--workers`` and at every ``N``.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections.abc import Callable, Sequence
from typing import Any

from .engine import (
    RunConfig,
    config_from_args,
    config_parent_parser,
    nonnegative_int,
    positive_float,
    positive_int,
)
from .experiments import EXPERIMENTS, workspace_for
from .experiments.fig4 import run_fig4
from .obs import configure_logging, configure_tracing, get_tracer


def _observability_flags() -> argparse.ArgumentParser:
    """Shared parent parser: the global tracing/logging flags."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "--trace",
        action="store_true",
        help="collect spans and print the timing tree on exit",
    )
    group.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write the trace to PATH (.json = Chrome trace-event format, "
            "otherwise JSONL); implies --trace"
        ),
    )
    group.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON lines instead of key=value",
    )
    group.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum structured-log level (default: info)",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help=(
            "sample the command under the wall-clock profiler and print "
            "the hottest stacks on exit"
        ),
    )
    group.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help=(
            "write the profile to PATH (.json = speedscope, otherwise "
            "collapsed stacks); implies --profile"
        ),
    )
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the final metrics-registry snapshot as JSON",
    )
    return common


def _build_parser() -> argparse.ArgumentParser:
    obs_flags = _observability_flags()
    # One generated parent per flag set; every subcommand below reuses
    # these, so flag names/validators/help live only on RunConfig.
    run_flags = config_parent_parser()
    # fig5, build-db, similar, recommend and serve sample nothing from
    # the config: a served /montecarlo draws its one cell in process.
    workspace_flags = config_parent_parser(
        fields=("seed", "recipe_scale", "cache_dir", "no_disk_cache")
    )
    cache_flags = config_parent_parser(fields=("cache_dir",))

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Data-driven investigations of culinary "
            "patterns in traditional recipes across the world' (ICDE 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list available experiments", parents=[obs_flags]
    )

    run = sub.add_parser(
        "run",
        help="run one experiment",
        parents=[obs_flags, run_flags],
    )
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))

    fig4 = sub.add_parser(
        "fig4",
        help="shortcut for 'run fig4' (Z-scores vs the null models)",
        parents=[obs_flags, run_flags],
    )
    fig4.add_argument(
        "--z-out",
        metavar="PATH",
        default=None,
        help=(
            "write the full-precision Z-scores as JSON (the same for "
            "every --workers N; used by the CI determinism check)"
        ),
    )

    sub.add_parser(
        "fig5",
        help="shortcut for 'run fig5' (top contributing ingredients)",
        parents=[obs_flags, workspace_flags],
    )

    build = sub.add_parser(
        "build-db",
        help="generate corpus and persist CulinaryDB as CSV",
        parents=[obs_flags, workspace_flags],
    )
    build.add_argument("--out", required=True, help="output directory")

    query = sub.add_parser(
        "query", help="run SQL against a persisted DB", parents=[obs_flags]
    )
    query.add_argument("--db", required=True, help="database directory")
    query.add_argument("sql", help="SELECT statement")

    report = sub.add_parser(
        "report",
        help="run every experiment and write text tables",
        parents=[obs_flags, run_flags],
    )
    report.add_argument("--out", required=True, help="output directory")
    report.add_argument(
        "--csv",
        action="store_true",
        help="also write the raw figure series as CSV",
    )

    alias = sub.add_parser(
        "alias",
        help="alias a raw ingredient phrase against the catalog",
        parents=[obs_flags],
    )
    alias.add_argument("phrase", nargs="+", help="the ingredient line")
    alias.add_argument(
        "--fuzzy", action="store_true", help="enable typo correction"
    )

    serve = sub.add_parser(
        "serve",
        help="serve the workspace over an HTTP JSON API",
        parents=[obs_flags, workspace_flags],
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 picks a free port)",
    )
    serve.add_argument(
        "--cache-size",
        type=positive_int,
        default=1024,
        help="result-cache capacity in entries",
    )
    serve.add_argument(
        "--ttl",
        type=positive_float,
        default=None,
        help="result-cache entry lifetime in seconds (default: no expiry)",
    )
    serve.add_argument(
        "--no-warm",
        action="store_true",
        help="skip pre-building the classifier and CulinaryDB at start-up",
    )
    serve.add_argument(
        "--preload",
        action="store_true",
        help=(
            "fully warm the service (workspace, classifier, CulinaryDB, "
            "every region's pairing view) before binding the socket"
        ),
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print the per-endpoint metrics summary on shutdown",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--max-connections",
        type=positive_int,
        default=1024,
        help="concurrent connections before shedding",
    )
    serve.add_argument(
        "--max-inflight",
        type=positive_int,
        default=64,
        help="per-endpoint concurrent executions",
    )
    serve.add_argument(
        "--queue-depth",
        type=nonnegative_int,
        default=256,
        help=(
            "per-endpoint admission queue beyond --max-inflight (0: no "
            "waiting room); excess requests get 503 overloaded"
        ),
    )
    serve.add_argument(
        "--rate-limit",
        type=positive_float,
        default=None,
        help=(
            "per-endpoint requests/second token bucket; excess gets "
            "429 rate_limited (default: off)"
        ),
    )
    serve.add_argument(
        "--drain-timeout",
        type=positive_float,
        default=10.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    serve.add_argument(
        "--executor-workers",
        type=positive_int,
        default=None,
        help="dispatch thread-pool size (default: auto)",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="replay an endpoint mix against a running server",
        parents=[obs_flags],
    )
    loadtest.add_argument(
        "url", help="server base URL (e.g. http://127.0.0.1:8080)"
    )
    loadtest.add_argument(
        "--mix",
        choices=("smoke", "hot", "spread"),
        default="smoke",
        help=(
            "request mix: every endpoint (smoke), one hot cacheable "
            "key (hot), or distinct cache keys (spread)"
        ),
    )
    loadtest.add_argument(
        "--connections",
        type=positive_int,
        default=8,
        help="concurrent keep-alive connections",
    )
    loadtest.add_argument(
        "--requests",
        type=positive_int,
        default=200,
        help="total requests across all connections",
    )
    loadtest.add_argument(
        "--timeout",
        type=positive_float,
        default=30.0,
        help="per-request timeout in seconds",
    )
    loadtest.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the report as a BENCH-style JSON document",
    )

    similar = sub.add_parser(
        "similar",
        help="top-k similar ingredients (or cuisines, with --cuisine)",
        parents=[obs_flags, workspace_flags],
    )
    similar.add_argument(
        "target",
        nargs="+",
        help="ingredient phrase (or a region code with --cuisine)",
    )
    similar.add_argument(
        "--cuisine",
        action="store_true",
        help="treat TARGET as a region code and rank nearest cuisines",
    )
    similar.add_argument(
        "-k",
        "--top",
        type=int,
        help="results to show (/similar's k)",
    )
    similar.add_argument(
        "--fuzzy", action="store_true", help="enable typo correction"
    )

    recommend = sub.add_parser(
        "recommend",
        help="index-backed novel recipe proposals for one region",
        parents=[obs_flags, workspace_flags],
    )
    recommend.add_argument(
        "--region", required=True, help="region code (e.g. ITA)"
    )
    recommend.add_argument(
        "--count", type=int, help="proposals to generate (/recommend's count)"
    )
    recommend.add_argument(
        "--size",
        type=int,
        help="recipe size (default: sampled from the cuisine's own sizes)",
    )
    recommend.add_argument(
        "--proposal-seed",
        type=int,
        help="RNG seed for the proposals (/recommend's seed)",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect or empty the stage-artifact disk cache",
        parents=[obs_flags, cache_flags],
    )
    cache.add_argument(
        "action",
        choices=("ls", "info", "clear"),
        help="ls = list artifacts, info = summary, clear = remove all",
    )

    obs = sub.add_parser(
        "obs",
        help="observability utilities (perf-regression watchdog)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    check = obs_sub.add_parser(
        "check",
        help="compare fresh BENCH_*.json results against baselines",
        parents=[obs_flags],
    )
    check.add_argument(
        "--baseline-dir",
        default=".",
        help="directory holding the committed BENCH_*.json (default: .)",
    )
    check.add_argument(
        "--results-dir",
        default=None,
        help=(
            "directory holding fresh results; default is the baseline "
            "directory itself (self-comparison, trivially passing)"
        ),
    )
    check.add_argument(
        "--tolerance",
        type=positive_float,
        default=None,
        help="allowed relative slip in the bad direction (default 0.30)",
    )
    check.add_argument(
        "--tolerance-for",
        metavar="METRIC=FRACTION",
        action="append",
        default=[],
        help=(
            "per-metric tolerance override (dotted path or leaf name); "
            "repeatable"
        ),
    )
    check.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the machine-readable verdict JSON to PATH",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    profiler = None
    if args.profile or args.profile_out:
        from .obs import SamplingProfiler

        profiler = SamplingProfiler().start()
    try:
        exit_code = _run_traced(args)
    finally:
        if profiler is not None:
            profiler.stop()
            print(f"\n# profile\n{profiler.render_top()}", file=sys.stderr)
            if args.profile_out:
                profiler.write(args.profile_out)
                print(
                    f"profile written to {args.profile_out}", file=sys.stderr
                )
    if args.metrics_out:
        _write_metrics_snapshot(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return exit_code


def _run_traced(args: argparse.Namespace) -> int:
    """Run the command, under the span tracer when ``--trace`` asks."""
    tracing = bool(args.trace or args.trace_out)
    if not tracing:
        return _run_command(args)
    tracer = configure_tracing(True)
    tracer.reset()
    try:
        with tracer.span(f"cli.{args.command}"):
            exit_code = _run_command(args)
        print(f"\n# trace\n{tracer.render_tree()}", file=sys.stderr)
        if args.trace_out:
            tracer.write(args.trace_out)
            print(f"trace written to {args.trace_out}", file=sys.stderr)
        return exit_code
    finally:
        configure_tracing(False)
        tracer.reset()


def _write_metrics_snapshot(path: str) -> None:
    """The final registry snapshot as sorted JSON (CI diffs these)."""
    import json

    from .obs import get_registry

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            get_registry().snapshot(), handle, indent=2, sort_keys=True
        )
        handle.write("\n")


def _print_cache_summary(config: RunConfig) -> None:
    """One stderr line summarising engine cache traffic (CI greps it)."""
    if not config.disk_cache_enabled:
        return
    from .engine import engine_cache_summary

    print(engine_cache_summary(), file=sys.stderr)


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name, (_runner, description) in sorted(EXPERIMENTS.items()):
            print(f"{name:8s} {description}")
        return 0

    if args.command in ("run", "fig4", "fig5"):
        experiment = (
            args.experiment if args.command == "run" else args.command
        )
        started = time.perf_counter()
        config = config_from_args(args)
        workspace = workspace_for(config)
        runner, description = EXPERIMENTS[experiment]
        print(f"# {experiment}: {description}")
        result = _run_experiment(runner, workspace, config)
        print(result.render())
        z_out = getattr(args, "z_out", None)
        if z_out is not None:
            _write_z_scores(result, z_out)
            print(f"z-scores written to {z_out}")
        print(f"\n[{time.perf_counter() - started:.1f}s]")
        _print_cache_summary(config)
        return 0

    if args.command == "build-db":
        from .culinarydb import CulinaryDB, build_culinarydb

        config = config_from_args(args)
        workspace = workspace_for(config)
        database = build_culinarydb(
            workspace.recipes,
            workspace.catalog,
            instructions=workspace.corpus.raw_recipes.instructions,
        )
        CulinaryDB(database).save(args.out)
        print(f"wrote {database!r} to {args.out}")
        _print_cache_summary(config)
        return 0

    if args.command == "query":
        from .culinarydb import CulinaryDB
        from .reporting import render_dict_table

        culinary = CulinaryDB.load(args.db)
        rows = culinary.db.sql(args.sql)
        print(render_dict_table(rows))
        return 0

    if args.command == "report":
        from pathlib import Path

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        config = config_from_args(args)
        workspace = workspace_for(config)
        csv_exporters = {}
        if args.csv:
            from .reporting import (
                export_fig2,
                export_fig3a,
                export_fig3b,
                export_fig4,
                export_fig5,
            )

            csv_exporters = {
                "fig2": export_fig2,
                "fig3a": export_fig3a,
                "fig3b": export_fig3b,
                "fig4": export_fig4,
                "fig5": export_fig5,
            }
        for name, (runner, description) in sorted(EXPERIMENTS.items()):
            started = time.perf_counter()
            result = _run_experiment(runner, workspace, config)
            text = f"# {name}: {description}\n\n{result.render()}\n"
            (out / f"{name}.txt").write_text(text, encoding="utf-8")
            exporter = csv_exporters.get(name)
            if exporter is not None:
                exporter(result, out)
            print(f"{name}: written ({time.perf_counter() - started:.1f}s)")
        _print_cache_summary(config)
        return 0

    if args.command == "alias":
        from .aliasing import AliasingPipeline

        pipeline = AliasingPipeline(fuzzy=args.fuzzy)
        resolution = pipeline.resolve_phrase(" ".join(args.phrase))
        names = ", ".join(i.name for i in resolution.ingredients) or "(none)"
        print(f"kind: {resolution.kind.value}")
        print(f"ingredients: {names}")
        if resolution.leftover_tokens:
            print(f"leftover: {' '.join(resolution.leftover_tokens)}")
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "loadtest":
        return _run_loadtest(args)

    if args.command == "similar":
        return _run_similar(args)

    if args.command == "recommend":
        return _run_recommend(args)

    if args.command == "cache":
        return _run_cache(args)

    if args.command == "obs":
        return _run_obs(args)

    return 1  # pragma: no cover - argparse enforces the choices


def _run_obs(args: argparse.Namespace) -> int:
    """``repro obs check`` — the perf-regression watchdog."""
    import json

    from .obs.watchdog import DEFAULT_TOLERANCE, check_benchmarks

    overrides: dict[str, float] = {}
    for spec in args.tolerance_for:
        metric, _, value = spec.partition("=")
        if not metric or not value:
            print(
                f"error: --tolerance-for expects METRIC=FRACTION, "
                f"got {spec!r}",
                file=sys.stderr,
            )
            return 2
        try:
            overrides[metric] = float(value)
        except ValueError:
            print(
                f"error: invalid tolerance {value!r} for {metric!r}",
                file=sys.stderr,
            )
            return 2
    tolerance = (
        DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    )
    report = check_benchmarks(
        baseline_dir=args.baseline_dir,
        results_dir=args.results_dir,
        tolerance=tolerance,
        overrides=overrides,
    )
    print(report.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"verdict written to {args.out}", file=sys.stderr)
    return 0 if report.ok else 1


def _run_serve(args: argparse.Namespace) -> int:
    from .service import QueryService, ResultCache, ServiceApp

    config = config_from_args(args)
    started = time.perf_counter()
    print(
        f"building workspace (scale={config.recipe_scale}) ...", flush=True
    )
    workspace = workspace_for(config)
    service = QueryService(workspace, config)
    if args.preload:
        service.preload()
    elif not args.no_warm:
        service.warm()
    warm_seconds = time.perf_counter() - started
    app = ServiceApp(
        service,
        cache=ResultCache(capacity=args.cache_size, ttl=args.ttl),
    )
    # The warm heap lives as long as the server: move it to the
    # permanent generation so no full collection during serving
    # traverses it again (cycles created at boot are never collected).
    gc.collect()
    gc.freeze()

    # Warm-up happens entirely before the socket binds: the first
    # request never pays a build, and with --cache-dir a restart
    # warm-loads the stage artifacts instead of regenerating them.
    def banner(url: str) -> None:
        print(
            f"serving {len(workspace.recipes)} recipes at {url} "
            f"({warm_seconds:.1f}s to warm); "
            "Ctrl-C to stop",
            flush=True,
        )
        _print_cache_summary(config)

    code = _serve_async(args, app, banner)
    if args.stats:
        print("\n" + app.metrics.render_summary())
    return code


def _serve_async(args: argparse.Namespace, app: Any, banner: Any) -> int:
    import asyncio

    from .service import AdmissionLimits, AsyncServiceServer

    server = AsyncServiceServer(
        app,
        host=args.host,
        port=args.port,
        limits=AdmissionLimits(
            max_inflight=args.max_inflight,
            max_queue=args.queue_depth,
            rate_limit=args.rate_limit,
        ),
        max_connections=args.max_connections,
        executor_workers=args.executor_workers,
        drain_timeout=args.drain_timeout,
        verbose=args.verbose,
    )
    try:
        clean = asyncio.run(
            server.run(on_started=lambda: banner(server.url))
        )
    except KeyboardInterrupt:
        # Loops without signal-handler support (or a second Ctrl-C
        # during drain) land here; the socket is gone either way.
        return 1
    print(
        "drained cleanly"
        if clean
        else "drain timed out; in-flight requests were abandoned",
        flush=True,
    )
    return 0 if clean else 1


def _run_loadtest(args: argparse.Namespace) -> int:
    """``repro loadtest`` — replay a mix against a running server."""
    import json

    from .service.loadtest import run_loadtest

    report = run_loadtest(
        args.url,
        mix=args.mix,
        connections=args.connections,
        requests=args.requests,
        timeout=args.timeout,
    )
    print(report.render())
    if args.output:
        # Mix reports nest under "mixes" so the top level stays free
        # for the BENCH-doc conventions (e.g. the "smoke" bool flag).
        doc = {"benchmark": "service_load", "mixes": {args.mix: report.as_dict()}}
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.output}", file=sys.stderr)
    return 0 if report.errors == 0 else 1


def _answer(
    args: argparse.Namespace,
    handler_name: str,
    payload: dict[str, Any],
    render: Callable[[dict[str, Any]], None],
) -> int:
    """Print one service handler's answer over the command's workspace.

    Unset flags (``None``) leave their field to the request spec. An
    error the service would send as an envelope exits 2.
    """
    from .datamodel import ReproError
    from .service import QueryService
    from .service.requests import parse

    handler = getattr(QueryService, handler_name)
    payload = {key: val for key, val in payload.items() if val is not None}
    config = config_from_args(args)
    try:
        parse(handler.spec, payload)  # refuse bad flags before any build
        body = handler(QueryService(workspace_for(config), config), payload)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    render(body)
    _print_cache_summary(config)
    return 0


def _run_similar(args: argparse.Namespace) -> int:
    """``repro similar`` — ``/similar`` off the retrieval index."""

    def render(body: dict[str, Any]) -> None:
        if "cuisine" in body:
            print(f"# cuisines nearest {body['cuisine']}")
            for match in body["matches"]:
                print(f"{match['region_code']:6s} {match['similarity']:.6f}")
            return
        print(f"# ingredients most similar to {body['ingredient']}")
        for match in body["matches"]:
            print(f"{match['shared_molecules']:4d}  {match['name']}")

    target = "cuisine" if args.cuisine else "ingredient"
    payload = {
        target: " ".join(args.target),
        "k": args.top,
        "fuzzy": args.fuzzy,
    }
    return _answer(args, "handle_similar", payload, render)


def _run_recommend(args: argparse.Namespace) -> int:
    """``repro recommend`` — ``/recommend`` for one region."""

    def render(body: dict[str, Any]) -> None:
        print(
            f"# {len(body['proposals'])} proposal(s) for {body['region']} "
            f"(seed {body['seed']})"
        )
        for number, proposal in enumerate(body["proposals"], 1):
            print(
                f"\n[{number}] N_s={proposal['pairing_score']:.3f} "
                f"style={proposal['style_score']:.3f} "
                f"novelty={proposal['novelty']:.2f}"
            )
            print("    " + ", ".join(proposal["ingredients"]))
        if body["similar_cuisines"]:
            print("\n# nearest cuisines")
            for match in body["similar_cuisines"]:
                print(f"{match['region_code']:6s} {match['similarity']:.6f}")

    payload = {
        "region": args.region,
        "count": args.count,
        "size": args.size,
        "seed": args.proposal_seed,
    }
    return _answer(args, "handle_recommend", payload, render)


def _run_cache(args: argparse.Namespace) -> int:
    """``repro cache ls|info|clear`` over the artifact store."""
    import json

    from .engine import ArtifactStore

    config = config_from_args(args)
    store = ArtifactStore(config.resolved_cache_dir)
    if args.action == "ls":
        entries = sorted(
            store.entries(), key=lambda entry: (entry.stage, -entry.modified)
        )
        if not entries:
            print(f"(empty) {store.root}")
            return 0
        for entry in entries:
            print(
                f"{entry.stage:16s} {entry.fingerprint[:16]} "
                f"{entry.size:>12,d} B  "
                f"{time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(entry.modified))}"
            )
        print(f"{len(entries)} artifact(s), {store.total_bytes():,d} B total")
        return 0
    if args.action == "info":
        print(json.dumps(store.info(), indent=2, sort_keys=True))
        return 0
    removed = store.clear()
    print(f"removed {removed} artifact(s) from {store.root}")
    return 0


def _run_experiment(runner, workspace, config: RunConfig):
    """Invoke one experiment runner with the flags it understands."""
    if runner is run_fig4:
        return runner(
            workspace,
            n_samples=config.n_samples,
            parallel=config.parallel(),
            seed=config.sampling_seed,
        )
    return runner(workspace)


def _write_z_scores(result, path: str) -> None:
    """Full-precision fig4 Z-scores as JSON, for determinism diffs.

    Deliberately records the sampling inputs (``n_samples``) but nothing
    about the execution (worker count, shard scheduling), so two runs
    with different ``--workers`` produce byte-identical files.
    """
    import json

    from .pairing import NullModel

    payload = {
        "n_samples": result.n_samples,
        "regions": {
            code: {
                model.value: detail.comparisons[model].z_score
                for model in NullModel
                if model in detail.comparisons
            }
            for code, detail in sorted(result.details.items())
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

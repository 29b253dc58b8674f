"""In-process runs that time the program layer by layer.

``python -m bench.layers pipeline|replay ... --out FILE`` runs in a fresh
process started by the harness. It calls the layers' public functions
itself, in the order the CLI would, and brackets each call with a span
(see :mod:`bench.trace`); nothing inside the program is patched.

* ``pipeline`` repeats ``repro report``: import, each engine stage in
  ``STAGE_ORDER`` (so each span is that stage's own build), every
  experiment, and each result's rendering.
* ``replay`` repeats a warm ``repro serve --preload`` and then answers
  each given request with the ``QueryService.handle_*`` method its route
  names. Those answers are the reference the served responses must
  equal. Every pooled payload is valid, so a handler that raises ends
  the run with an error. ``--timed`` adds SQL prepare/execute spans and
  the dispatch costs of a :class:`ServiceApp` around the same handlers.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the wall clock starts before any import
import json  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from .trace import Tracer  # noqa: E402
from .workloads import AGG_SQL, canonical  # noqa: E402

#: Cheap request kinds whose handler time is small and steady enough to
#: subtract from a dispatch and leave the dispatch overhead visible.
OVERHEAD_PATHS = ("/alias", "/score", "/classify", "/similar")
OVERHEAD_SAMPLE = 200


def _counter(name: str) -> float:
    from repro.obs import get_registry

    return sum(
        series.metric.value
        for series in get_registry().collect()
        if series.name == name and series.kind == "counter"
    )


def _resolve_stages(tracer: Tracer, config: Any) -> None:
    from repro.engine import STAGE_ORDER, Engine

    engine = Engine(config)
    for stage in STAGE_ORDER:
        with tracer.span(f"engine.{stage}"):
            engine.artifact(stage)


def pipeline(args: argparse.Namespace) -> dict[str, Any]:
    tracer = Tracer()
    with tracer.span("program.import"):
        import repro.cli  # noqa: F401 - the import is what is timed
        from repro.datamodel import REGIONS
        from repro.engine import RunConfig
        from repro.experiments import EXPERIMENTS, run_fig4, run_fig5, workspace_for
        from repro.pairing import NullModel
    config = RunConfig(
        recipe_scale=args.scale,
        workers=args.workers,
        n_samples=args.n_samples,
        cache_dir=args.cache_dir,
    )
    shards_before = _counter("repro_montecarlo_shards_total")
    _resolve_stages(tracer, config)
    with tracer.span("workspace.assemble"):
        workspace = workspace_for(config)
    renders: dict[str, str] = {}
    for name, (runner, _) in sorted(EXPERIMENTS.items()):
        with tracer.span(f"experiments.{name}"):
            if runner is run_fig4:
                result = runner(
                    workspace,
                    n_samples=config.n_samples,
                    parallel=config.parallel(),
                    seed=config.sampling_seed,
                )
            elif runner is run_fig5:
                result = runner(workspace, parallel=config.parallel())
            else:
                result = runner(workspace)
        with tracer.span("report.render", experiment=name):
            renders[name] = result.render()
    return {
        "wall": time.perf_counter() - STARTED,
        "spans": tracer.as_dicts(),
        "renders": renders,
        "raw_recipes": len(workspace.corpus.raw_recipes),
        "phrases": workspace.report.phrases_total,
        "fig4_samples": config.n_samples * len(REGIONS) * len(NullModel),
        "shards": _counter("repro_montecarlo_shards_total") - shards_before,
        "builds": _counter("engine_stage_build_total"),
    }


def _time_sql(tracer: Tracer, database: Any, payloads: list[dict]) -> None:
    for payload in payloads:
        template = "agg" if payload["query"] == AGG_SQL else "join"
        with tracer.span("db.prepare", template=template):
            plan = database.prepare(payload["query"])
        with tracer.span("db.execute", template=template):
            plan.execute(database, payload.get("params", []))


def _dispatch_costs(service: Any, requests: list[Any]) -> dict[str, float]:
    """Median microseconds of a cache-miss dispatch beyond its handler,
    and of a cache hit, over cheap requests."""
    from repro.service import ResultCache, ServiceApp
    from repro.service.app import ROUTES

    sample = [r for r in requests if r[0] in OVERHEAD_PATHS][:OVERHEAD_SAMPLE]
    if not sample:
        return {"overhead_us": 0.0, "hit_us": 0.0}
    app = ServiceApp(service, cache=ResultCache(capacity=len(sample) + 1))
    overheads, hits = [], []
    for path, payload in sample:
        handler = getattr(service, ROUTES[path].handler)
        handler(payload)
        started = time.perf_counter()
        handler(payload)
        handled = time.perf_counter() - started
        started = time.perf_counter()
        app.dispatch("POST", path, payload)
        dispatched = time.perf_counter() - started
        started = time.perf_counter()
        app.dispatch_cached("POST", path, payload)
        hits.append(time.perf_counter() - started)
        overheads.append(dispatched - handled)
    return {
        "overhead_us": statistics.median(overheads) * 1e6,
        "hit_us": statistics.median(hits) * 1e6,
    }


def replay(args: argparse.Namespace) -> dict[str, Any]:
    requests = json.loads(Path(args.requests).read_text(encoding="utf-8"))
    tracer = Tracer()
    with tracer.span("program.import"):
        import repro.cli  # noqa: F401 - the import is what is timed
        from repro.engine import RunConfig
        from repro.experiments import workspace_for
        from repro.service import QueryService
        from repro.service.app import ROUTES
    config = RunConfig(recipe_scale=args.scale, cache_dir=args.cache_dir)
    _resolve_stages(tracer, config)
    with tracer.span("workspace.assemble"):
        workspace = workspace_for(config)
    service = QueryService(workspace, config)
    with tracer.span("culinarydb.build"):
        database = service.database()
    with tracer.span("service.preload"):
        service.preload()
    shards_before = _counter("repro_montecarlo_shards_total")
    answers = []
    for path, payload in requests:
        handler = getattr(service, ROUTES[path].handler)
        with tracer.span("handler", endpoint=path.lstrip("/")):
            answers.append(canonical(handler(payload)))
    result: dict[str, Any] = {
        "wall": time.perf_counter() - STARTED,
        "answers": answers,
        "shards": _counter("repro_montecarlo_shards_total") - shards_before,
        "builds": _counter("engine_stage_build_total"),
        "raw_recipes": len(workspace.corpus.raw_recipes),
        "phrases": workspace.report.phrases_total,
    }
    if args.timed:
        _time_sql(tracer, database, [p for path, p in requests if path == "/sql"])
        result["dispatch"] = _dispatch_costs(service, requests)
    result["spans"] = tracer.as_dicts()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.layers")
    parser.add_argument("mode", choices=("pipeline", "replay"))
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--n-samples", type=int, default=None)
    parser.add_argument("--requests", help="JSON list of [path, payload]")
    parser.add_argument("--timed", action="store_true")
    args = parser.parse_args()
    result = pipeline(args) if args.mode == "pipeline" else replay(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()

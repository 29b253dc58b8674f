"""The artifact engine: two-tier cached resolution of the stage graph.

``Engine(config).artifact(name)`` returns the named stage's output for
that :class:`~repro.engine.config.RunConfig`, resolving dependencies
recursively and consulting two tiers before building:

1. an in-process memory tier of recently used artifacts (one
   :class:`~repro.lru.ResultCache` shared by every engine instance,
   keyed by fingerprint — two configs that agree on the fields a stage
   reads share its artifact), then
2. the content-addressed disk store, when the config enables it.

Every resolution is traced (``engine.stage`` spans) and counted in the
metrics registry: ``engine_stage_hit_total{stage,tier}``,
``engine_stage_miss_total{stage}``, ``engine_stage_build_total{stage}``
and the ``engine_stage_load_ms``/``engine_stage_build_ms`` histograms —
which is how a warm restart can *prove* it built nothing.

Concurrent callers asking for the same artifact load or build it exactly
once: the memory tier's single flight makes every other caller wait for
the first and share its artifact. When that load or build raises, the
waiting callers re-raise the same exception rather than retrying in
turn; nothing is stored, so the next call builds again.
"""

from __future__ import annotations

import time
from typing import Any

from ..lru import MISSING, ResultCache
from ..obs import get_logger, get_registry, span
from .config import RunConfig
from .fingerprint import stage_fingerprint
from .stages import STAGE_ORDER, get_stage
from .store import ArtifactStore

__all__ = [
    "MAX_MEMORY_ARTIFACTS",
    "Engine",
    "clear_memory_tier",
    "engine_cache_summary",
    "memory_tier_len",
]

_LOG = get_logger("repro.engine")

#: Artifacts retained in the shared in-memory tier: the stage sets of
#: four recent configs.
MAX_MEMORY_ARTIFACTS = 4 * len(STAGE_ORDER)

#: (stage name, fingerprint) -> artifact.
_MEMORY = ResultCache(capacity=MAX_MEMORY_ARTIFACTS)


def clear_memory_tier() -> None:
    """Drop every in-memory artifact (tests use this to force disk/build)."""
    _MEMORY.clear()


def memory_tier_len() -> int:
    return len(_MEMORY)


class Engine:
    """Resolves stage artifacts for one :class:`RunConfig`."""

    def __init__(
        self, config: RunConfig, store: ArtifactStore | None = None
    ) -> None:
        """
        Args:
            config: the run configuration artifacts derive from.
            store: explicit disk tier; defaults to the config's cache
                dir when the config enables disk caching, else no disk
                tier at all.
        """
        self._config = config
        if store is not None:
            self._store: ArtifactStore | None = store
        elif config.disk_cache_enabled:
            self._store = ArtifactStore(config.resolved_cache_dir)
        else:
            self._store = None
        self._fingerprints: dict[str, str] = {}
        self._registry = get_registry()

    @property
    def config(self) -> RunConfig:
        return self._config

    @property
    def store(self) -> ArtifactStore | None:
        return self._store

    # ------------------------------------------------------------------
    # fingerprints
    # ------------------------------------------------------------------
    def fingerprint(self, name: str) -> str:
        """The content address of one stage output under this config."""
        cached = self._fingerprints.get(name)
        if cached is not None:
            return cached
        stage = get_stage(name)
        upstream = {dep: self.fingerprint(dep) for dep in stage.deps}
        fingerprint = stage_fingerprint(stage, self._config, upstream)
        self._fingerprints[name] = fingerprint
        return fingerprint

    def fingerprints(self) -> dict[str, str]:
        """Stage name -> fingerprint for the whole graph, build order."""
        return {name: self.fingerprint(name) for name in STAGE_ORDER}

    def cache_states(self) -> list[dict[str, Any]]:
        """Per-stage readiness: fingerprint plus the warmest tier holding it.

        Non-resolving by design — probes the memory tier and the disk
        store without loading or building anything, so ``/readyz`` can
        call it on every poll. ``tier`` is ``memory``, ``disk`` or
        ``cold``; ``warm`` collapses that to a boolean.
        """
        states: list[dict[str, Any]] = []
        for name in STAGE_ORDER:
            fingerprint = self.fingerprint(name)
            if _MEMORY.probe((name, fingerprint)) is not MISSING:
                tier = "memory"
            elif self._store is not None and self._store.contains(
                name, fingerprint
            ):
                tier = "disk"
            else:
                tier = "cold"
            states.append(
                {
                    "stage": name,
                    "fingerprint": fingerprint,
                    "tier": tier,
                    "warm": tier != "cold",
                }
            )
        return states

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def artifact(self, name: str) -> Any:
        """The stage's output: memory tier, then disk tier, then build."""
        stage = get_stage(name)
        fingerprint = self.fingerprint(name)
        value, source = _MEMORY.get_or_compute(
            (name, fingerprint),
            lambda: self._load_or_build(stage, fingerprint),
        )
        if source != "computed":
            self._count_hit(name, "memory")
        return value

    def _load_or_build(self, stage, fingerprint: str) -> Any:
        with span(
            "engine.stage", stage=stage.name, fingerprint=fingerprint[:12]
        ) as trace:
            if self._store is not None:
                started = time.perf_counter()
                value = self._store.get(stage.name, fingerprint)
                if value is not MISSING:
                    elapsed = time.perf_counter() - started
                    self._count_hit(stage.name, "disk")
                    self._registry.histogram(
                        "engine_stage_load_ms", stage=stage.name
                    ).observe(elapsed * 1000)
                    trace.set("outcome", "disk")
                    _LOG.info(
                        "engine.stage.loaded",
                        stage=stage.name,
                        fingerprint=fingerprint[:12],
                        seconds=round(elapsed, 3),
                    )
                    return value
            self._registry.counter(
                "engine_stage_miss_total", stage=stage.name
            ).incr()
            inputs = {dep: self.artifact(dep) for dep in stage.deps}
            started = time.perf_counter()
            value = stage.build(self._config, inputs)
            elapsed = time.perf_counter() - started
            self._registry.counter(
                "engine_stage_build_total", stage=stage.name
            ).incr()
            self._registry.histogram(
                "engine_stage_build_ms", stage=stage.name
            ).observe(elapsed * 1000)
            trace.set("outcome", "built")
            _LOG.info(
                "engine.stage.built",
                stage=stage.name,
                fingerprint=fingerprint[:12],
                seconds=round(elapsed, 3),
            )
            if self._store is not None:
                self._store.put(stage.name, fingerprint, value)
            return value

    def _count_hit(self, stage_name: str, tier: str) -> None:
        self._registry.counter(
            "engine_stage_hit_total", stage=stage_name, tier=tier
        ).incr()


def _sum_counter(name: str, **fixed_labels: str) -> float:
    """Sum one counter across every label combination it has."""
    registry = get_registry()
    total = 0.0
    for series in registry.collect():
        if series.name != name or series.kind != "counter":
            continue
        if any(
            series.labels.get(key) != value
            for key, value in fixed_labels.items()
        ):
            continue
        total += series.metric.value
    return total


def engine_cache_summary() -> str:
    """One line summarising this process's stage-cache activity.

    The CLI prints it after disk-cached runs; CI greps ``builds=0`` on
    the warm run to prove the whole graph loaded from the artifact
    store.
    """
    memory_hits = int(_sum_counter("engine_stage_hit_total", tier="memory"))
    disk_hits = int(_sum_counter("engine_stage_hit_total", tier="disk"))
    builds = int(_sum_counter("engine_stage_build_total"))
    return (
        f"engine cache: hits={memory_hits + disk_hits} "
        f"(memory {memory_hits}, disk {disk_hits}) builds={builds}"
    )

"""``repro.engine`` — the staged artifact pipeline behind every workload.

The monolithic workspace build is decomposed into five declarative
stages (``corpus → aliasing → cuisines → pairing_views →
retrieval_index``), each a pure function whose output is
content-addressed by *(stage name, code version tag, upstream
fingerprints, the RunConfig fields it reads)* and cached in two tiers: a
shared in-process LRU with single flight, then an on-disk artifact store with atomic writes, checksum validation and size-bounded LRU
eviction. A second CLI run — or a service restart — warm-loads the whole
graph in seconds instead of paying the ~minute cold build.

Entry points build one :class:`RunConfig` (from argparse via the
generated parent parser, from service request params, or from script
flags) and every layer below consumes it; no more hand-plumbed keyword
trails. See :mod:`repro.engine.stages` for the graph,
:mod:`repro.engine.store` for the disk format, and ``repro cache
ls|info|clear`` for the operator surface.
"""

from .config import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    RunConfig,
    config_from_args,
    config_parent_parser,
    nonnegative_int,
    positive_float,
    positive_int,
)
from .engine import (
    MAX_MEMORY_ARTIFACTS,
    Engine,
    clear_memory_tier,
    engine_cache_summary,
    memory_tier_len,
)
from .fingerprint import stage_fingerprint
from .stages import (
    STAGE_ORDER,
    STAGES,
    Stage,
    get_stage,
)
from .store import (
    DEFAULT_MAX_BYTES,
    MISSING,
    ArtifactStore,
    StoreEntry,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "ENV_CACHE_DIR",
    "MAX_MEMORY_ARTIFACTS",
    "MISSING",
    "ArtifactStore",
    "Engine",
    "RunConfig",
    "STAGES",
    "STAGE_ORDER",
    "Stage",
    "StoreEntry",
    "clear_memory_tier",
    "config_from_args",
    "config_parent_parser",
    "engine_cache_summary",
    "get_stage",
    "memory_tier_len",
    "nonnegative_int",
    "positive_float",
    "positive_int",
    "stage_fingerprint",
]

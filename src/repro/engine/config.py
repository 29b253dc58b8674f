"""The unified run configuration: one frozen dataclass, one flow.

Every run parameter — corpus seed and scale, Monte Carlo fan-out, null
model sample count, artifact-cache location — lives in :class:`RunConfig`.
It is built exactly once per entry point (from argparse in ``repro``,
from request params in the service, from script flags in
``run_full_experiments.py``) and handed down; no layer re-plumbs loose
keyword arguments.

Each field carries CLI metadata, so the shared argparse parent parser is
*generated* from the dataclass (:func:`config_parent_parser`) — flag
names, validators, defaults and help text have one definition for all
subcommands, and :func:`config_from_args` maps the parsed namespace
straight back to a :class:`RunConfig`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from ..corpus.generator import DEFAULT_SEED
from ..datamodel import ConfigurationError
from ..parallel.executor import (
    DEFAULT_SHARD_SIZE,
    ParallelConfig,
    resolve_workers,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "RunConfig",
    "config_from_args",
    "config_parent_parser",
    "positive_float",
    "positive_int",
    "nonnegative_int",
]

#: Default on-disk artifact cache location (used when neither
#: ``--cache-dir`` nor :data:`ENV_CACHE_DIR` names one).
DEFAULT_CACHE_DIR = "~/.cache/repro"

#: Environment variable that supplies a cache dir (and thereby enables
#: the disk tier) without a CLI flag.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


# ---------------------------------------------------------------------------
# argparse value validators (shared by every generated flag)
# ---------------------------------------------------------------------------
def positive_float(text: str) -> float:
    """Argparse type: a strictly positive float (``--scale 0`` is an error)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}"
        )
    return value


def positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text}"
        )
    return value


def nonnegative_int(text: str) -> int:
    """Argparse type: an integer >= 0 (``--workers 0`` means one per core)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text}"
        )
    return value


def _cfg(default: Any, **cli: Any) -> Any:
    """A RunConfig field with its CLI exposure described in metadata."""
    return dataclasses.field(
        default=default, metadata={"cli": cli} if cli else {}
    )


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every parameter a run can take, in one immutable value.

    Attributes:
        seed: corpus/sampling seed; ``None`` keeps the paper-default
            corpus seed *and* the legacy ``"default"`` sampling stream.
        recipe_scale: recipe-count scale factor (1.0 = 45,772 recipes).
        include_world_only: also generate the WORLD-only mini-regions.
        workers: worker processes for Monte Carlo sampling and for the
            cold corpus/aliasing stage builds (``None`` = everything
            serial, ``0`` = one per CPU core). Never part of any stage
            fingerprint: artifacts are byte-identical for any value.
        shard_size: Monte Carlo samples per shard (results depend on
            this, never on ``workers``).
        n_samples: random recipes per null model (fig4).
        cache_dir: artifact disk-cache directory; setting it enables the
            disk tier (see also :data:`ENV_CACHE_DIR`).
        no_disk_cache: force the disk tier off even when a cache dir is
            configured.
    """

    seed: int | None = _cfg(
        None,
        flags=("--seed",),
        type=int,
        help="corpus seed (default: the paper seed, 20180417)",
    )
    recipe_scale: float = _cfg(
        1.0,
        flags=("--scale", "--recipe-scale"),
        type=positive_float,
        help="recipe-count scale factor (1.0 = full 45,772-recipe corpus)",
    )
    include_world_only: bool = _cfg(True)
    workers: int | None = _cfg(
        None,
        flags=("--workers",),
        type=nonnegative_int,
        metavar="N",
        help=(
            "fan null-model sampling and cold corpus/aliasing builds "
            "across N worker processes (0 = one per CPU core). Omit it "
            "to build serially and sample fig4 as one unsharded shard "
            "per region and model, whose Z-scores differ from any "
            "--workers N run"
        ),
    )
    shard_size: int = _cfg(
        DEFAULT_SHARD_SIZE,
        flags=("--shard-size",),
        type=positive_int,
        metavar="N",
        help=(
            "samples per Monte Carlo shard (default: "
            f"{DEFAULT_SHARD_SIZE}); results depend on this, not on "
            "--workers"
        ),
    )
    n_samples: int = _cfg(
        100_000,
        flags=("--samples", "--n-samples"),
        type=positive_int,
        help="random recipes per null model (fig4 only)",
    )
    cache_dir: str | None = _cfg(
        None,
        flags=("--cache-dir",),
        type=str,
        metavar="DIR",
        help=(
            "artifact disk-cache directory; enables the two-tier stage "
            "cache (default location when enabled via $REPRO_CACHE_DIR: "
            f"{DEFAULT_CACHE_DIR})"
        ),
    )
    no_disk_cache: bool = _cfg(
        False,
        action="store_true",
        flags=("--no-disk-cache",),
        help="disable the artifact disk cache even when a dir is configured",
    )

    def __post_init__(self) -> None:
        if not self.recipe_scale > 0:
            raise ConfigurationError("recipe_scale must be positive")
        if self.shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError("workers must be >= 0 (or None)")

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    @property
    def corpus_seed(self) -> int:
        """The effective corpus-generation seed."""
        return DEFAULT_SEED if self.seed is None else self.seed

    @property
    def sampling_seed(self) -> int | None:
        """Seed mixed into the Monte Carlo shard generators.

        ``None`` selects the deterministic ``"default"`` stream — the
        same streams the pre-RunConfig CLI produced, so existing z-score
        artifacts stay byte-identical. Naming the paper seed
        (:data:`DEFAULT_SEED`) is the same run as naming no seed, so it
        selects that stream too.
        """
        return None if self.seed == DEFAULT_SEED else self.seed

    def parallel(self, cap: int | None = None) -> ParallelConfig | None:
        """The Monte Carlo fan-out this config requests, or ``None``.

        Args:
            cap: optional upper bound on resolved workers (the service
                uses this so one request cannot monopolise the host).
        """
        if self.workers is None:
            return None
        workers = resolve_workers(self.workers)
        if cap is not None:
            workers = max(1, min(workers, cap))
        return ParallelConfig(workers=workers, shard_size=self.shard_size)

    @property
    def disk_cache_enabled(self) -> bool:
        """Whether stage artifacts should persist to (and load from) disk."""
        if self.no_disk_cache:
            return False
        return self.cache_dir is not None or bool(
            os.environ.get(ENV_CACHE_DIR)
        )

    @property
    def resolved_cache_dir(self) -> Path:
        """The disk-cache directory this config would use."""
        raw = (
            self.cache_dir
            or os.environ.get(ENV_CACHE_DIR)
            or DEFAULT_CACHE_DIR
        )
        return Path(raw).expanduser()

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


def config_parent_parser(
    fields: Sequence[str] | None = None,
) -> argparse.ArgumentParser:
    """An ``add_help=False`` parent parser generated from RunConfig.

    Args:
        fields: RunConfig field names to expose; ``None`` exposes every
            field that carries CLI metadata. Fields without metadata
            (``include_world_only``) are never exposed.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("run configuration")
    wanted = None if fields is None else set(fields)
    for field in dataclasses.fields(RunConfig):
        cli = dict(field.metadata.get("cli", ()))
        flags = cli.pop("flags", ())
        if not flags or (wanted is not None and field.name not in wanted):
            continue
        group.add_argument(
            *flags, dest=field.name, default=field.default, **cli
        )
    return parent


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig a parsed namespace describes.

    Fields a subcommand did not expose keep their dataclass defaults, so
    one function serves every subcommand.
    """
    kwargs = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(RunConfig)
        if hasattr(args, field.name)
    }
    return RunConfig(**kwargs)

"""The unified run configuration: one frozen dataclass, one flow.

Every run parameter — corpus seed and scale, Monte Carlo fan-out, null
model sample count, artifact-cache location — lives in :class:`RunConfig`.
It is built exactly once per entry point (from argparse in ``repro``,
from request params in the service) and handed down; no layer
re-plumbs loose keyword arguments. The full-scale results in
``results/full_scale`` come from
``repro report --scale 1 --samples 100000 --workers 0 --out
results/full_scale``.

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
from ..parallel.executor import ParallelConfig, resolve_workers

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
        workers: worker processes for Monte Carlo sampling (``None`` =
            in this process, ``0`` = one per CPU core). No result
            depends on it, and stage builds run in one process whatever
            its value, so it is never part of any stage fingerprint.
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
            "fan null-model sampling across N worker processes, one "
            "task per region and model (0 = one per CPU core). Every N, "
            "and no --workers, gives the same results. Stage builds "
            "always run in one process"
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
        """Seed mixed into the Monte Carlo generators.

        ``None`` selects the deterministic ``"default"`` stream — the
        same streams the pre-RunConfig CLI produced, so existing z-score
        artifacts stay byte-identical. Naming the paper seed
        (:data:`DEFAULT_SEED`) is the same run as naming no seed, so it
        selects that stream too.
        """
        return None if self.seed == DEFAULT_SEED else self.seed

    def parallel(self) -> ParallelConfig | None:
        """The Monte Carlo fan-out this config requests, or ``None``."""
        if self.workers is None:
            return None
        return ParallelConfig(workers=resolve_workers(self.workers))

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

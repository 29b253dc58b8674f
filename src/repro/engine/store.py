"""Content-addressed artifact store: the engine's disk tier.

Each stage output persists as one file, ``<stage>--<fingerprint>.art``,
written atomically (tmp file + :func:`os.replace`) so a crashed writer
can never leave a half-written artifact under its final name. Every file
carries a JSON header with the payload's length and SHA-256; a
truncated, bit-flipped or otherwise unreadable entry is detected on
load, removed, and reported as a miss — the engine simply rebuilds.
A load streams the file through one handle: it hashes the payload in
1 MiB reads, checks it, then unpickles from the same handle, so no
whole-file buffer is ever allocated (DESIGN.md §23).

The store is size-bounded: after every write, least-recently-used
entries (by file access order, maintained via ``os.utime`` on load) are
evicted until the directory fits ``max_bytes`` again. ``repro cache
ls|info|clear`` expose the same directory for operators.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, BinaryIO

from ..lru import MISSING
from ..obs import get_logger, get_registry

__all__ = [
    "ARTIFACT_SUFFIX",
    "DEFAULT_MAX_BYTES",
    "ENV_MAX_BYTES",
    "MISSING",
    "ArtifactStore",
    "StoreEntry",
]

_LOG = get_logger("repro.engine.store")

ARTIFACT_SUFFIX = ".art"
_MAGIC = b"repro-artifact/1\n"

#: Longest header line a read accepts; a header is ~200 bytes, and a
#: line with no newline within the bound marks the entry corrupt.
_HEADER_LIMIT = 4096

#: Bytes read per step while hashing a payload.
_HASH_CHUNK = 1 << 20

#: Default size bound for the disk cache (4 GiB).
DEFAULT_MAX_BYTES = 4 << 30

#: Environment override for the size bound, in bytes.
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One artifact file as listed by :meth:`ArtifactStore.entries`."""

    stage: str
    fingerprint: str
    size: int
    modified: float
    path: Path


def _resolve_max_bytes(max_bytes: int | None) -> int:
    if max_bytes is not None:
        return max_bytes
    raw = os.environ.get(ENV_MAX_BYTES)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            _LOG.warning("store.bad_max_bytes", value=raw)
    return DEFAULT_MAX_BYTES


class ArtifactStore:
    """A directory of checksummed, LRU-evicted stage artifacts.

    Every operation degrades gracefully: an unwritable directory, a
    corrupt file or a racing writer turns into a logged miss, never an
    exception on the build path.
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None) -> None:
        self.root = Path(root).expanduser()
        self.max_bytes = _resolve_max_bytes(max_bytes)
        self._registry = get_registry()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, stage: str, fingerprint: str) -> Any:
        """The stored artifact, or :data:`MISSING`.

        Corrupt or truncated entries are removed and counted in
        ``engine_store_corrupt_total`` so the caller rebuilds. A read
        that fails with an ``OSError`` is logged as ``store.read_failed``
        and is a miss too, but the file stays: the disk failed, not the
        entry.
        """
        path = self._path(stage, fingerprint)
        try:
            with path.open("rb") as handle:
                value = self._decode(stage, fingerprint, path, handle)
        except FileNotFoundError:
            return MISSING
        except OSError as error:
            _LOG.warning(
                "store.read_failed", path=str(path), error=str(error)
            )
            return MISSING
        if value is MISSING:
            return MISSING
        try:  # refresh recency for LRU eviction
            os.utime(path)
        except OSError:
            pass
        return value

    def contains(self, stage: str, fingerprint: str) -> bool:
        """Whether the artifact file exists on disk.

        A pure existence probe — no decode, no checksum, no recency
        touch — cheap enough for readiness endpoints to call per stage
        on every poll. A corrupt entry can therefore report ``True``
        until a real :meth:`get` detects and removes it.
        """
        try:
            return self._path(stage, fingerprint).is_file()
        except OSError:
            return False

    def _decode(
        self, stage: str, fingerprint: str, path: Path, handle: BinaryIO
    ) -> Any:
        """Check the entry on ``handle``, then unpickle it from there.

        Two passes over one open file, and never the whole file in one
        buffer: the first hashes the payload in :data:`_HASH_CHUNK`
        reads, the second seeks back and unpickles, so arrays are read
        straight into their own buffers. The store only replaces
        (:func:`os.replace`) or unlinks files and never rewrites one in
        place, so both passes read the same inode. ``OSError`` passes
        through to :meth:`get`; any other failure is damage.
        """
        try:
            if handle.read(len(_MAGIC)) != _MAGIC:
                raise ValueError("bad magic")
            line = handle.readline(_HEADER_LIMIT)
            if not line.endswith(b"\n"):
                raise ValueError(
                    f"no header line within {_HEADER_LIMIT} bytes"
                )
            header = json.loads(line)
            if header.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch")
            start = handle.tell()
            digest = hashlib.sha256()
            size = 0
            while chunk := handle.read(_HASH_CHUNK):
                digest.update(chunk)
                size += len(chunk)
            if header.get("size") != size:
                raise ValueError(
                    f"truncated payload: {size} of "
                    f"{header.get('size')} bytes"
                )
            if header.get("sha256") != digest.hexdigest():
                raise ValueError("checksum mismatch")
            handle.seek(start)
            return pickle.load(handle)
        except OSError:
            raise
        except Exception as error:  # noqa: BLE001 - any damage => rebuild
            self._registry.counter(
                "engine_store_corrupt_total", stage=stage
            ).incr()
            _LOG.warning(
                "store.corrupt_entry",
                stage=stage,
                path=str(path),
                error=f"{type(error).__name__}: {error}",
            )
            try:
                path.unlink()
            except OSError:
                pass
            return MISSING

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, stage: str, fingerprint: str, value: Any) -> Path | None:
        """Persist one artifact atomically; returns its path (or None).

        I/O failures are logged and swallowed — the disk tier is an
        optimisation, never a correctness dependency.
        """
        path = self._path(stage, fingerprint)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            header = json.dumps(
                {
                    "stage": stage,
                    "fingerprint": fingerprint,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "size": len(payload),
                },
                sort_keys=True,
            ).encode("utf-8")
            handle = tempfile.NamedTemporaryFile(
                dir=self.root, prefix=".tmp-", delete=False
            )
            try:
                with handle:
                    handle.write(_MAGIC)
                    handle.write(header)
                    handle.write(b"\n")
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(handle.name, path)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        except Exception as error:  # noqa: BLE001 - disk tier is optional
            _LOG.warning(
                "store.write_failed",
                stage=stage,
                path=str(path),
                error=f"{type(error).__name__}: {error}",
            )
            return None
        self._evict(keep=path)
        self._registry.gauge("engine_store_bytes").set(self.total_bytes())
        return path

    def _evict(self, keep: Path | None = None) -> None:
        """Drop LRU entries until the store fits ``max_bytes`` again."""
        entries = sorted(self.entries(), key=lambda e: e.modified)
        total = sum(entry.size for entry in entries)
        for entry in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and entry.path == keep:
                continue  # never evict the artifact just written
            try:
                entry.path.unlink()
            except OSError:
                continue
            total -= entry.size
            self._registry.counter("engine_store_evicted_total").incr()
            _LOG.info(
                "store.evicted",
                stage=entry.stage,
                size=entry.size,
                path=str(entry.path),
            )

    # ------------------------------------------------------------------
    # operator surface (repro cache ls|clear|info)
    # ------------------------------------------------------------------
    def _path(self, stage: str, fingerprint: str) -> Path:
        return self.root / f"{stage}--{fingerprint}{ARTIFACT_SUFFIX}"

    def entries(self) -> list[StoreEntry]:
        """Every artifact currently on disk (unsorted)."""
        found: list[StoreEntry] = []
        try:
            candidates = list(self.root.glob(f"*{ARTIFACT_SUFFIX}"))
        except OSError:
            return found
        for path in candidates:
            stage, separator, fingerprint = path.stem.partition("--")
            if not separator:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append(
                StoreEntry(
                    stage=stage,
                    fingerprint=fingerprint,
                    size=stat.st_size,
                    modified=stat.st_mtime,
                    path=path,
                )
            )
        return found

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())

    def clear(self) -> int:
        """Remove every artifact (and stray tmp file); returns the count."""
        removed = 0
        for entry in self.entries():
            try:
                entry.path.unlink()
                removed += 1
            except OSError:
                continue
        try:
            for stray in self.root.glob(".tmp-*"):
                stray.unlink(missing_ok=True)
        except OSError:
            pass
        return removed

    def info(self) -> dict[str, Any]:
        """JSON-ready summary for ``repro cache info``."""
        entries = self.entries()
        return {
            "cache_dir": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(entry.size for entry in entries),
            "max_bytes": self.max_bytes,
            "stages": sorted({entry.stage for entry in entries}),
        }

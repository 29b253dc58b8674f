"""Tests for the on-disk artifact store: atomicity, corruption
detection, read failures, streamed loads and size-bounded eviction."""

import errno
import io
import os
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from repro.engine import MISSING, ArtifactStore
from repro.engine import store as store_module
from repro.obs import get_registry
from repro.obs.logs import configure_logging


def _counter_total(name: str, **labels: str) -> float:
    total = 0.0
    for series in get_registry().collect():
        if series.name != name or series.kind != "counter":
            continue
        if any(
            series.labels.get(key) != value
            for key, value in labels.items()
        ):
            continue
        total += series.metric.value
    return total


FP = "a" * 64


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestRoundTrip:
    def test_put_get(self, store):
        value = {"rows": [1, 2, 3], "label": "corpus"}
        path = store.put("corpus", FP, value)
        assert path is not None
        assert path.name == f"corpus--{FP}.art"
        assert store.get("corpus", FP) == value

    def test_missing_entry(self, store):
        assert store.get("corpus", FP) is MISSING

    def test_none_is_a_valid_artifact(self, store):
        store.put("corpus", FP, None)
        assert store.get("corpus", FP) is None

    def test_identical_values_write_identical_files(self, tmp_path):
        value = {"rows": list(range(50)), "label": "corpus"}
        first = ArtifactStore(tmp_path / "one").put("corpus", FP, value)
        time.sleep(0.01)  # a wall-clock header field would now differ
        second = ArtifactStore(tmp_path / "two").put("corpus", FP, value)
        assert first.read_bytes() == second.read_bytes()

    def test_no_tmp_files_left_behind(self, store):
        store.put("corpus", FP, list(range(100)))
        strays = list(store.root.glob(".tmp-*"))
        assert strays == []

    def test_unwritable_root_degrades_to_none(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = ArtifactStore(blocked / "sub")
        assert store.put("corpus", FP, 1) is None
        assert store.get("corpus", FP) is MISSING


class TestCorruption:
    def _entry_path(self, store):
        paths = list(store.root.glob("*.art"))
        assert len(paths) == 1
        return paths[0]

    def test_truncated_payload_detected_and_removed(self, store):
        store.put("corpus", FP, list(range(1000)))
        path = self._entry_path(store)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 50])
        before = _counter_total("engine_store_corrupt_total")
        assert store.get("corpus", FP) is MISSING
        assert _counter_total("engine_store_corrupt_total") == before + 1
        assert not path.exists(), "corrupt entry must be unlinked"

    def test_bit_flip_detected(self, store):
        store.put("corpus", FP, list(range(1000)))
        path = self._entry_path(store)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get("corpus", FP) is MISSING
        assert not path.exists()

    def test_bad_magic_detected(self, store):
        store.put("corpus", FP, "value")
        path = self._entry_path(store)
        path.write_bytes(b"not an artifact at all")
        assert store.get("corpus", FP) is MISSING

    def test_fingerprint_mismatch_detected(self, store):
        # A file renamed to the wrong address must not be trusted.
        store.put("corpus", FP, "value")
        path = self._entry_path(store)
        other = store.root / f"corpus--{'b' * 64}.art"
        os.rename(path, other)
        assert store.get("corpus", "b" * 64) is MISSING

    def test_empty_file_detected_and_removed(self, store):
        store.put("corpus", FP, "value")
        path = self._entry_path(store)
        path.write_bytes(b"")
        before = _counter_total("engine_store_corrupt_total")
        assert store.get("corpus", FP) is MISSING
        assert _counter_total("engine_store_corrupt_total") == before + 1
        assert not path.exists()

    def test_header_without_newline_within_bound_detected(self, store):
        # A header line longer than the bound is never read whole.
        store.put("corpus", FP, "value")
        path = self._entry_path(store)
        path.write_bytes(
            store_module._MAGIC
            + b"{" + b" " * store_module._HEADER_LIMIT + b"}\n"
        )
        before = _counter_total("engine_store_corrupt_total")
        assert store.get("corpus", FP) is MISSING
        assert _counter_total("engine_store_corrupt_total") == before + 1
        assert not path.exists()

    def test_rebuild_after_corruption_round_trips(self, store):
        store.put("corpus", FP, "original")
        path = self._entry_path(store)
        path.write_bytes(b"garbage")
        assert store.get("corpus", FP) is MISSING
        store.put("corpus", FP, "rebuilt")
        assert store.get("corpus", FP) == "rebuilt"


class _FailingRead:
    """A file handle whose reads raise ``EIO`` once ``fails()`` says so."""

    def __init__(self, handle, fails):
        self._handle = handle
        self._fails = fails
        self.seeks = 0

    def _check(self):
        if self._fails(self):
            raise OSError(errno.EIO, "Input/output error")

    def read(self, *args):
        self._check()
        return self._handle.read(*args)

    def readinto(self, buffer):
        self._check()
        return self._handle.readinto(buffer)

    def seek(self, *args):
        self.seeks += 1
        return self._handle.seek(*args)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


class TestReadFailure:
    """An ``OSError`` while reading is a miss, not damage: the file stays."""

    @pytest.fixture()
    def log_stream(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        yield stream
        configure_logging(level="info", json_mode=False, stream=None)

    @pytest.mark.parametrize(
        "fails",
        [
            # while hashing the payload, past the magic and header
            lambda handle: handle.tell() > len(store_module._MAGIC),
            # while unpickling, after the check seeked back
            lambda handle: handle.seeks > 0,
        ],
        ids=["hashing", "unpickling"],
    )
    def test_os_error_mid_read_keeps_the_file(
        self, store, monkeypatch, log_stream, fails
    ):
        value = np.arange(4096, dtype=np.int64)
        path = store.put("pairing_views", FP, value)
        real_open = pathlib.Path.open

        def failing_open(self, *args, **kwargs):
            return _FailingRead(real_open(self, *args, **kwargs), fails)

        monkeypatch.setattr(pathlib.Path, "open", failing_open)
        before = _counter_total("engine_store_corrupt_total")
        assert store.get("pairing_views", FP) is MISSING
        assert _counter_total("engine_store_corrupt_total") == before
        assert "event=store.read_failed" in log_stream.getvalue()
        monkeypatch.undo()
        assert path.exists()
        assert np.array_equal(store.get("pairing_views", FP), value)


class TestStreamedLoad:
    def test_load_holds_no_copy_of_the_file(self, store):
        """A load reads arrays straight into their own buffers: it peaks
        at about one array, not the file plus the array."""
        array = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        store.put("pairing_views", FP, {"overlap": array})
        tracemalloc.start()
        try:
            loaded = store.get("pairing_views", FP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded["overlap"], array)
        assert peak < 1.5 * array.nbytes


class TestEviction:
    def test_eviction_respects_size_bound(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)
        store.put("corpus", "a" * 64, list(range(500)))
        time.sleep(0.01)
        store.put("cuisines", "b" * 64, list(range(500)))
        # The just-written artifact survives even over the bound; the
        # older one is evicted.
        entries = store.entries()
        assert [entry.stage for entry in entries] == ["cuisines"]

    def test_recently_read_entry_survives(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1 << 30)
        payload = list(range(2000))
        store.put("corpus", "a" * 64, payload)
        # Bound to two-and-a-half artifacts: the third put must evict
        # exactly one entry — the least recently *used*, not written.
        store.max_bytes = int(store.total_bytes() * 2.5)
        time.sleep(0.01)
        store.put("aliasing", "b" * 64, payload)
        time.sleep(0.01)
        assert store.get("corpus", "a" * 64) == payload  # refresh LRU
        time.sleep(0.01)
        store.put("cuisines", "c" * 64, payload)
        stages = {entry.stage for entry in store.entries()}
        assert stages == {"corpus", "cuisines"}

    def test_everything_fits_no_eviction(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1 << 20)
        before = _counter_total("engine_store_evicted_total")
        for index in range(5):
            store.put("corpus", str(index) * 64, index)
        assert len(store.entries()) == 5
        assert _counter_total("engine_store_evicted_total") == before

    def test_env_var_sets_bound(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert ArtifactStore(tmp_path).max_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        assert ArtifactStore(tmp_path).max_bytes == ArtifactStore(
            tmp_path, max_bytes=None
        ).max_bytes


class TestOperatorSurface:
    def test_entries_parse_stage_and_fingerprint(self, store):
        store.put("pairing_views", FP, {"x": 1})
        (entry,) = store.entries()
        assert entry.stage == "pairing_views"
        assert entry.fingerprint == FP
        assert entry.size > 0

    def test_entries_skip_foreign_files(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        (store.root / "README.art").write_text("no separator")
        (store.root / "notes.txt").write_text("not an artifact")
        assert store.entries() == []

    def test_clear_removes_everything(self, store):
        store.put("corpus", "a" * 64, 1)
        store.put("cuisines", "b" * 64, 2)
        (store.root / ".tmp-stray").write_bytes(b"half-written")
        assert store.clear() == 2
        assert store.entries() == []
        assert list(store.root.glob(".tmp-*")) == []

    def test_info(self, store):
        store.put("corpus", FP, list(range(10)))
        info = store.info()
        assert info["entries"] == 1
        assert info["stages"] == ["corpus"]
        assert info["total_bytes"] == store.total_bytes() > 0
        assert info["cache_dir"] == str(store.root)

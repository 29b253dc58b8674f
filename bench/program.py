"""Starting, timing and stopping the program under test.

Every child runs in its own session, so stopping it also stops whatever
it started (Monte Carlo pool workers, the multiprocessing resource
tracker); :class:`Children` guarantees that on every exit path.

The serving workloads boot from one warm artifact store per checkout,
kept under ``.bench_cache/``. It is built once, like a compiled binary,
and keyed by a hash of the program's source (see :func:`source_digest`)
so any code change builds a fresh one. Its build time is the ``paper_cold`` workload's business.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from collections.abc import Iterator
from typing import IO, Any

from . import client
from .workloads import CACHE_CAPACITY, CONNECTIONS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
WORK = ROOT / ".bench_out"

#: Worker processes the pipeline may use: at most nproc, at most 2.
WORKERS = min(2, os.cpu_count() or 1)

_BANNER = re.compile(rb"serving \d+ recipes at http://[\d.]+:(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ProgramError(RuntimeError):
    """The program failed to start, answer or stop as expected."""


def exit_error(what: str, code: int, log: Path) -> ProgramError:
    """The error for a child that exited ``code``, with its stderr's end."""
    tail = log.read_bytes()[-2000:].decode("utf-8", "replace")
    return ProgramError(f"{what} exited {code}:\n{tail}")


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def repro_args(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


class Children:
    """Owns every child process of a run; kills their groups on exit."""

    def __init__(self) -> None:
        self._live: list[subprocess.Popen] = []

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc: Any) -> None:
        for proc in self._live:
            if proc.returncode is None:
                kill_group(proc)

    def spawn(
        self, args: list[str], stderr: IO[bytes] | int, stdout: Any = None
    ) -> subprocess.Popen:
        proc = subprocess.Popen(
            args,
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
        self._live.append(proc)
        return proc

    def run(
        self, args: list[str], log: Path, timeout: float
    ) -> tuple[int, float, Any]:
        """Run to completion: ``(exit code, wall seconds, rusage)``.

        The rusage comes from ``wait4`` and covers the child and every
        descendant it waited for (pool workers included).
        """
        with log.open("wb") as err:
            started = time.perf_counter()
            proc = self.spawn(args, stderr=err)
            deadline = started + timeout
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    kill_group(proc)
                    raise ProgramError(f"{' '.join(args[1:4])} exceeded {timeout:.0f}s")
                time.sleep(0.005)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill_group(proc)
        return proc.returncode, wall, usage


def kill_group(proc: subprocess.Popen) -> None:
    """Kill what is left of ``proc``'s session and reap ``proc``."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if proc.returncode is None:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ProgramError(f"no VmHWM for pid {pid}")


def count_tracebacks(log: Path) -> int:
    return log.read_bytes().count(b"Traceback (most recent call last)")


def store_bytes(store: Path) -> int:
    return sum(path.stat().st_size for path in store.glob("*.art"))


def source_digest() -> str:
    """Digest of the program and of the harness code that builds shared
    inputs (payload pools and their reference answers)."""
    digest = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    paths = sorted((SRC / "repro").rglob("*.py")) + [
        bench / "workloads.py", bench / "layers.py"
    ]
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@contextlib.contextmanager
def cache_lock() -> Iterator[None]:
    """Serialise builds of the shared ``.bench_cache`` entries."""
    CACHE.mkdir(exist_ok=True)
    with (CACHE / ".lock").open("w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        yield


def cached(kind: str, scale: float, suffix: str = "") -> Path:
    """Where a shared build of ``kind`` for this code and scale lives.

    Building one removes the same kind's builds for other sources.
    """
    path = CACHE / f"{kind}-{scale:g}-{source_digest()}{suffix}"
    if not path.exists():
        for stale in CACHE.glob(f"{kind}-{scale:g}-*"):
            if stale.is_dir():
                shutil.rmtree(stale)
            else:
                stale.unlink()
    return path


def warm_store(scale: float, children: Children) -> Path:
    """The shared warm artifact store; call under :func:`cache_lock`."""
    store = cached("store", scale)
    if store.is_dir():
        return store
    building = CACHE / f"building-{store.name}"
    shutil.rmtree(building, ignore_errors=True)
    log = CACHE / "build.log"
    code, _, _ = children.run(
        repro_args(
            "run", "table1", "--scale", f"{scale:g}",
            "--workers", str(WORKERS), "--cache-dir", str(building),
        ),
        log,
        timeout=600,
    )
    if code != 0:
        raise exit_error("the warm store build", code, log)
    building.rename(store)
    return store


class Server:
    """One ``repro serve --preload`` process.

    Its dispatch pool has one thread per benchmark connection, as many
    as can ever be busy. The default pool may start up to 6 threads, how
    many depending on timing, and the peak resident set then fell into
    two modes ~30 MiB apart from run to run.
    """

    def __init__(
        self, children: Children, store: Path, scale: float, log: Path
    ) -> None:
        self.log = log
        self._err = log.open("wb")
        self.started = time.perf_counter()
        self.proc = children.spawn(
            repro_args(
                "serve", "--scale", f"{scale:g}", "--preload", "--port", "0",
                "--cache-dir", str(store),
                "--cache-size", str(CACHE_CAPACITY),
                "--executor-workers", str(CONNECTIONS),
            ),
            stderr=self._err,
            stdout=subprocess.PIPE,
        )
        self.port = 0
        self._stdout = bytearray()

    def wait_banner(self, timeout: float = 120.0) -> int:
        """Block until the serving banner names the bound port."""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.perf_counter() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                match = _BANNER.search(self._stdout)
                if match:
                    self.port = int(match.group(1))
                    return self.port
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise ProgramError(f"no serving banner within {timeout:.0f}s")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise ProgramError(
                        f"server exited before serving (see {self.log.name})"
                    )
                self._stdout += chunk

    def ready(self) -> None:
        status, body = client.request(self.port, client.encode_get("/readyz"))
        if status != 200:
            raise ProgramError(f"/readyz answered {status}: {body[:200]!r}")

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGTERM, wait for the drain; True on a clean drain and exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            rest = b""
        kill_group(self.proc)
        self._err.close()
        self._stdout += rest or b""
        return self.proc.returncode == 0 and b"drained cleanly" in self._stdout

    def tracebacks(self) -> int:
        """Tracebacks the server printed; a log holding any is kept."""
        count = count_tracebacks(self.log)
        if count:
            kept = WORK / "logs" / f"{self.log.parent.name}-{self.log.name}"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(self.log, kept)
        return count

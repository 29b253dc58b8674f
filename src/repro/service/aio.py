"""Asyncio HTTP/1.1 transport: the event-loop front door.

The layered serving stack, top to bottom:

1. **transport** (this module) — ``asyncio.start_server``, an HTTP/1.1
   parser with keep-alive and pipelining, Content-Length enforcement
   (:func:`frame_body`), a connection limit, and graceful drain: stop
   accepting, finish every in-flight request, turn new requests away
   with ``503 draining``.
2. **admission** (:mod:`repro.service.admission`) — bounded per-endpoint
   queues; sheds load with ``429 rate_limited`` / ``503 overloaded``.
3. **dispatch** (:class:`~repro.service.app.ServiceApp`) — the sync
   routing/caching/metrics core; the same call answers in-process. Its
   result cache runs N identical in-flight cacheable requests' handler
   once.

The event loop only ever parses bytes and shuffles buffers. CPU-bound
handler work runs through ``loop.run_in_executor`` on a bounded thread
pool, so one slow ``/montecarlo`` cannot stall ``/healthz``. The lone
exception is the result-cache fast path: a clean cache hit is a lock
acquisition and a dict copy, cheaper served inline than a thread-pool
round trip (see :meth:`ServiceApp.dispatch_cached`).

Pipelining falls out of the read loop: requests on one connection are
parsed and answered strictly in order, so a client may write several
requests before reading any response and the responses come back in
request order, as HTTP/1.1 requires.

Framing rules (:func:`frame_body`):

* ``Transfer-Encoding`` present → ``411 length_required`` (chunked
  bodies are not supported; this stack only speaks ``Content-Length``).
* ``POST`` without ``Content-Length`` → ``411 length_required``. HTTP
  cannot distinguish "no body" from "body with unknown length" without
  the header, and guessing "empty" silently drops real payloads.
* A ``Content-Length`` that is not plain ASCII digits (RFC 9110 §8.6:
  ``1*DIGIT``; so no sign, no ``_``, no whitespace inside) →
  ``400 invalid_request``.
* ``Content-Length`` beyond :data:`MAX_BODY_BYTES` →
  ``400 payload_too_large``, refused before reading a byte.

After any framing error the connection closes: the body boundary is
unknown, so the next request cannot be parsed.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASON_PHRASES
from typing import Any
from urllib.parse import parse_qs

from .admission import AdmissionController, AdmissionLimits, AdmissionReject
from .app import (
    ROUTES,
    PlainTextResponse,
    ServiceApp,
    error_body,
    resolve_request_id,
)
from .metrics import REJECTED

__all__ = [
    "AsyncServiceServer",
    "AsyncServerHandle",
    "serve_async_in_thread",
]

#: Refuse request heads (request line + headers) beyond this size.
MAX_HEADER_BYTES = 32 * 1024
#: Refuse request bodies beyond this size (1 MiB) before reading them.
MAX_BODY_BYTES = 1 << 20
#: Concurrent TCP connections accepted before shedding with 503.
DEFAULT_MAX_CONNECTIONS = 1024
#: How long drain waits for in-flight requests before force-closing.
DEFAULT_DRAIN_TIMEOUT = 10.0


class _Hangup(Exception):
    """The peer closed the connection between requests (not an error)."""


def frame_body(
    method: str,
    length_header: str | None,
    transfer_encoding: str | None = None,
) -> tuple[int, dict[str, Any] | None]:
    """How many body bytes to read, or the framing-error envelope.

    Returns:
        ``(length, None)`` when the body is well-framed (``length`` may
        be 0), or ``(0, envelope)`` when the request must be rejected —
        in which case the connection must also close.
    """
    if transfer_encoding is not None:
        return 0, error_body(
            411,
            "length_required",
            "chunked transfer encoding is not supported; "
            "send a Content-Length header",
        )
    if length_header is None:
        if method == "POST":
            return 0, error_body(
                411,
                "length_required",
                "POST requires a Content-Length header",
            )
        return 0, None
    # int() alone would also accept "-5", "+5" and "1_0"; a negative
    # length would leave the body in the stream as the next request.
    if not (length_header.isascii() and length_header.isdigit()):
        return 0, error_body(
            400, "invalid_request", "malformed Content-Length"
        )
    length = int(length_header)
    if length > MAX_BODY_BYTES:
        return 0, error_body(
            400,
            "payload_too_large",
            f"request body exceeds {MAX_BODY_BYTES} bytes",
        )
    return length, None


def decode_body(raw: bytes) -> tuple[Any, dict[str, Any] | None]:
    """The decoded JSON payload, or the ``invalid_json`` envelope.

    ``ValueError`` also covers a body that is not UTF-8 and an integer
    past CPython's int-to-string digit limit.
    """
    try:
        return json.loads(raw), None
    except ValueError as error:
        return None, error_body(
            400, "invalid_json", f"request body is not valid JSON: {error}"
        )


class AsyncServiceServer:
    """One asyncio event loop serving a :class:`ServiceApp`.

    Args:
        app: the dispatch core.
        host/port: bind address; ``port=0`` picks a free port (see
            :attr:`url` after :meth:`start`).
        limits: admission knobs; ``None`` uses the defaults.
        max_connections: concurrent-connection ceiling; excess
            connections receive one ``503 connection_limit`` envelope
            and are closed.
        executor_workers: thread-pool size for CPU-bound dispatch;
            ``None`` uses the stdlib default (``min(32, cpus + 4)``).
        drain_timeout: seconds :meth:`drain` waits for in-flight
            requests before force-closing connections.
    """

    def __init__(
        self,
        app: ServiceApp,
        host: str = "127.0.0.1",
        port: int = 8080,
        limits: AdmissionLimits | None = None,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        executor_workers: int | None = None,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        verbose: bool = False,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.drain_timeout = drain_timeout
        self.verbose = verbose
        # The admission gauges/counters land in the app's registry so
        # /metrics exports them next to the request series.
        self.admission = AdmissionController(
            limits, registry=app.metrics.registry
        )
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-aio"
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight = 0
        self._idle: asyncio.Event | None = None
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def _log(self, message: str) -> None:
        if self.verbose:
            sys.stderr.write(f"repro-aio: {message}\n")

    async def start(self) -> None:
        """Bind the listening socket (resolves ``port=0`` to the real port)."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_HEADER_BYTES,
            # Survive connect bursts: the default backlog (100) drops
            # connections when hundreds of load-test clients dial at once.
            backlog=max(128, self.max_connections),
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._log(f"listening on {self.url}")

    async def run(
        self,
        install_signal_handlers: bool = True,
        on_started: Any = None,
    ) -> bool:
        """Start, serve until SIGINT/SIGTERM, then drain.

        Args:
            install_signal_handlers: bind SIGINT/SIGTERM to graceful
                drain (skipped where the loop does not support it).
            on_started: optional zero-arg callback invoked once the
                socket is bound (the CLI prints the serving banner).

        Returns:
            True when the drain finished every in-flight request within
            ``drain_timeout`` (a *clean* drain), False otherwise.
        """
        await self.start()
        if on_started is not None:
            on_started()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if install_signal_handlers:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
        return await self.drain()

    async def drain(self) -> bool:
        """Graceful shutdown: finish in-flight work, refuse new work.

        Stops accepting connections, answers any new request arriving on
        an existing keep-alive connection with ``503 draining`` plus
        ``Connection: close``, waits up to ``drain_timeout`` for
        in-flight requests, then closes whatever remains.
        """
        self._draining = True
        self._log("draining: listener closed, finishing in-flight requests")
        if self._server is not None:
            self._server.close()
        clean = True
        if self._idle is not None and self._inflight:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.drain_timeout
                )
            except asyncio.TimeoutError:
                clean = False
                self._log(
                    f"drain timeout: {self._inflight} requests still in "
                    "flight; force-closing"
                )
        # Unblock idle keep-alive connections parked in readuntil().
        for writer in list(self._connections):
            writer.close()
        if self._conn_tasks:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*self._conn_tasks, return_exceptions=True),
                    timeout=5.0,
                )
        if self._server is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
        self._executor.shutdown(wait=clean)
        self._log(f"drain complete (clean={clean})")
        return clean

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._connections.add(writer)
        try:
            if len(self._connections) > self.max_connections:
                self.app.metrics.registry.counter(
                    REJECTED, endpoint="(server)", reason="connection_limit"
                ).incr()
                await self._respond(
                    writer,
                    503,
                    error_body(
                        503,
                        "connection_limit",
                        f"server is at its {self.max_connections}-connection "
                        "limit",
                    ),
                    resolve_request_id(None),
                    close=True,
                )
                return
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError, OSError):
            pass
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                method, target, version, headers = await self._read_head(
                    reader
                )
            except _Hangup:
                return
            except asyncio.LimitOverrunError:
                await self._respond(
                    writer,
                    400,
                    error_body(
                        400,
                        "header_too_large",
                        f"request head exceeds {MAX_HEADER_BYTES} bytes",
                    ),
                    resolve_request_id(None),
                    close=True,
                )
                return
            except ValueError as error:
                await self._respond(
                    writer,
                    400,
                    error_body(400, "invalid_request", str(error)),
                    resolve_request_id(None),
                    close=True,
                )
                return
            request_id = resolve_request_id(headers.get("x-request-id"))
            length, frame_error = frame_body(
                method,
                headers.get("content-length"),
                headers.get("transfer-encoding"),
            )
            if frame_error is not None:
                # Body boundary unknown: answer, then close.
                frame_error["request_id"] = request_id
                await self._respond(
                    writer,
                    frame_error["status"],
                    frame_error,
                    request_id,
                    close=True,
                )
                return
            payload: Any = None
            if length:
                try:
                    raw = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    return
                payload, decode_error = decode_body(raw)
                if decode_error is not None:
                    # The body was consumed, so keep-alive is safe.
                    decode_error["request_id"] = request_id
                    await self._respond(
                        writer, 400, decode_error, request_id, close=False
                    )
                    continue
            if self._draining:
                body = error_body(
                    503, "draining", "server is draining; retry elsewhere"
                )
                body["request_id"] = request_id
                await self._respond(writer, 503, body, request_id, close=True)
                return
            status, body = await self._process(
                method, target, payload, request_id
            )
            close = (
                headers.get("connection", "").lower() == "close"
                or version != "HTTP/1.1"
                or self._draining
            )
            await self._respond(writer, status, body, request_id, close=close)
            if close:
                return

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, str]]:
        """Parse one request head; raises ValueError on malformed input."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                raise _Hangup from None
            raise ValueError("truncated request head") from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        if not version.startswith("HTTP/"):
            raise ValueError(f"malformed HTTP version: {version!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method, target, version, headers

    # ------------------------------------------------------------------
    # request processing
    # ------------------------------------------------------------------
    async def _process(
        self, method: str, target: str, payload: Any, request_id: str
    ) -> tuple[int, dict[str, Any] | PlainTextResponse]:
        path, _, query = target.partition("?")
        if payload is None and query:
            # GET endpoints take parameters from the query string
            # (e.g. /metrics?format=prometheus); last value wins.
            payload = {
                key: values[-1] for key, values in parse_qs(query).items()
            }
        # Cache hits are served inline on the loop: cheaper than the
        # executor round trip, and admission only guards *compute*.
        fast = self.app.dispatch_cached(
            method, path, payload, request_id=request_id
        )
        if fast is not None:
            return fast
        if self._idle is not None:
            self._inflight += 1
            self._idle.clear()
        try:
            return await self._admit_and_dispatch(
                method, path, payload, request_id
            )
        finally:
            if self._idle is not None:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    async def _admit_and_dispatch(
        self, method: str, path: str, payload: Any, request_id: str
    ) -> tuple[int, dict[str, Any] | PlainTextResponse]:
        loop = asyncio.get_running_loop()
        dispatch = functools.partial(
            self.app.dispatch, method, path, payload, request_id
        )
        if path not in ROUTES:
            # Unknown paths skip admission: dispatch answers 404 without
            # touching a handler, and the rejection counters should not
            # invent endpoints that do not exist.
            return await loop.run_in_executor(self._executor, dispatch)
        endpoint = path.lstrip("/")
        try:
            await self.admission.acquire(endpoint)
        except AdmissionReject as rejection:
            body = error_body(rejection.status, rejection.code, str(rejection))
            body["request_id"] = request_id
            return rejection.status, body
        try:
            return await loop.run_in_executor(self._executor, dispatch)
        finally:
            self.admission.release(endpoint)

    # ------------------------------------------------------------------
    # response encoding
    # ------------------------------------------------------------------
    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: dict[str, Any] | PlainTextResponse,
        request_id: str | None,
        close: bool,
    ) -> None:
        if isinstance(body, PlainTextResponse):
            encoded = body.text.encode("utf-8")
            content_type = body.content_type
        else:
            encoded = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        reason = _REASON_PHRASES.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
        ]
        if request_id is not None:
            head.append(f"X-Request-Id: {request_id}")
        head.append(f"Content-Length: {len(encoded)}")
        head.append(f"Connection: {'close' if close else 'keep-alive'}")
        writer.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + encoded
        )
        await writer.drain()


class AsyncServerHandle:
    """An async server running on a dedicated event-loop thread.

    For tests, benchmarks and embedding: the caller's thread stays
    synchronous, ``stop()`` triggers a graceful drain and reports
    whether it was clean.
    """

    def __init__(self, server: AsyncServiceServer) -> None:
        self.server = server
        self.drained_clean: bool | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-aio-serve", daemon=True
        )

    @property
    def url(self) -> str:
        return self.server.url

    def start(self, timeout: float = 10.0) -> "AsyncServerHandle":
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("async server failed to start in time")
        if self._error is not None:
            raise self._error
        return self

    def stop(self, timeout: float = 30.0) -> bool:
        """Drain and stop; returns True when the drain was clean."""
        if self._loop is not None and self._stop is not None:
            loop, stop = self._loop, self._stop
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout)
        return bool(self.drained_clean)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._error = error
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._error = error
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        self.drained_clean = await self.server.drain()


def serve_async_in_thread(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> AsyncServerHandle:
    """Boot an async server on a background thread and wait until bound."""
    return AsyncServerHandle(
        AsyncServiceServer(app, host=host, port=port, **kwargs)
    ).start()

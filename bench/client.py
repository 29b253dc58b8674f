"""The harness's own HTTP/1.1 keep-alive client, over raw sockets.

It is written against the socket API alone and shares no code with the
program's load tester, so a change to the program cannot change the
instrument that measures it. Request bytes are encoded before timing
starts; the timed loop only sends bytes, reads a response head, and
reads ``Content-Length`` body bytes.

:func:`closed_loop` drives up to ``nproc`` connections from one thread:
each connection sends its next request only once its previous response
has arrived, taking the next unsent request of one shared sequence.
"""

from __future__ import annotations

import dataclasses
import json
import os
import selectors
import socket
import time
from collections.abc import Callable, Sequence
from typing import Any

#: Connections the harness may open at once: one per core, so the load
#: generator never outnumbers the cores it shares with the program.
MAX_CONNECTIONS = os.cpu_count() or 1

HOST = "127.0.0.1"


def encode_post(path: str, payload: Any) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def encode_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode("latin-1")


@dataclasses.dataclass
class Exchange:
    """One request's outcome: ``status`` 0 means a transport failure."""

    index: int
    connection: int
    sent: float
    received: float
    status: int
    body: bytes

    @property
    def seconds(self) -> float:
        return self.received - self.sent


class _Response:
    """Incremental parser for one response on a keep-alive connection."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.status = 0
        self.length: int | None = None
        self.head_end = -1

    def feed(self, data: bytes) -> bool:
        """Add bytes; True once the whole response has arrived."""
        self.buffer += data
        if self.head_end < 0:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return False
            self.head_end = end + 4
            lines = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
            self.status = int(lines[0].split(" ", 2)[1])
            self.length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    self.length = int(value.strip())
        assert self.length is not None
        return len(self.buffer) >= self.head_end + self.length

    @property
    def body(self) -> bytes:
        assert self.length is not None
        return bytes(self.buffer[self.head_end : self.head_end + self.length])


def request(port: int, raw: bytes, timeout: float = 30.0) -> tuple[int, bytes]:
    """Send one pre-encoded request on a fresh connection; ``(status, body)``."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(raw)
        response = _Response()
        while True:
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("connection closed mid-response")
            if response.feed(data):
                return response.status, response.body


def get_json(port: int, path: str, timeout: float = 30.0) -> dict[str, Any]:
    status, body = request(port, encode_get(path), timeout)
    if status != 200:
        raise ConnectionError(f"GET {path} answered {status}")
    return json.loads(body)


class _Connection:
    def __init__(self, number: int, port: int) -> None:
        self.number = number
        self.port = port
        self.sock: socket.socket | None = None
        self.index = -1
        self.sent = 0.0
        self.response = _Response()

    def open(self) -> socket.socket:
        sock = socket.create_connection((HOST, self.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        return sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def closed_loop(
    port: int,
    requests: Sequence[bytes],
    connections: int,
    timeout: float = 30.0,
    on_exchange: Callable[[Exchange], None] | None = None,
) -> list[Exchange]:
    """Send every request once over ``connections`` keep-alive connections.

    Returns one :class:`Exchange` per request, in request order. A
    connection that breaks records a status-0 exchange and reconnects.
    ``on_exchange`` runs after each completed exchange, inside the loop.

    Raises:
        ValueError: more connections than cores.
        TimeoutError: no response progress for ``timeout`` seconds.
    """
    if not 1 <= connections <= MAX_CONNECTIONS:
        raise ValueError(
            f"connections must be 1..{MAX_CONNECTIONS} (nproc), got {connections}"
        )
    results: list[Exchange | None] = [None] * len(requests)
    selector = selectors.DefaultSelector()
    conns = [_Connection(number, port) for number in range(connections)]
    next_index = 0

    def send_next(conn: _Connection) -> None:
        nonlocal next_index
        if next_index >= len(requests):
            if conn.sock is not None:
                selector.unregister(conn.sock)
                conn.close()
            return
        if conn.sock is None:
            selector.register(conn.open(), selectors.EVENT_READ, conn)
        conn.index = next_index
        next_index += 1
        conn.response = _Response()
        conn.sent = time.perf_counter()
        assert conn.sock is not None
        conn.sock.sendall(requests[conn.index])

    def finish(conn: _Connection, status: int, body: bytes) -> None:
        exchange = Exchange(
            conn.index, conn.number, conn.sent, time.perf_counter(), status, body
        )
        results[conn.index] = exchange
        if on_exchange is not None:
            on_exchange(exchange)

    try:
        for conn in conns:
            send_next(conn)
        while selector.get_map():
            events = selector.select(timeout)
            if not events:
                raise TimeoutError(f"no response within {timeout:.0f}s")
            for key, _ in events:
                conn = key.data
                try:
                    data = conn.sock.recv(65536)
                except OSError:
                    data = b""
                if data and not conn.response.feed(data):
                    continue
                if data:
                    finish(conn, conn.response.status, conn.response.body)
                else:
                    finish(conn, 0, b"")
                    selector.unregister(conn.sock)
                    conn.close()
                send_next(conn)
    finally:
        for conn in conns:
            conn.close()
        selector.close()
    return [exchange for exchange in results if exchange is not None]

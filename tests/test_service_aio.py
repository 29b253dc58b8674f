"""Integration tests for the asyncio transport.

A real ``AsyncServiceServer`` is bound to an ephemeral port (event loop
on a background thread) and driven over raw sockets, which — unlike
urllib — can express keep-alive, pipelining, missing Content-Length and
arbitrary methods.
"""

import json
import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import (
    AdmissionLimits,
    AsyncServiceServer,
    AsyncServerHandle,
    QueryService,
    ResultCache,
    ServiceApp,
    serve_async_in_thread,
)
from repro.service.aio import decode_body


@pytest.fixture(scope="module")
def aserver(workspace):
    app = ServiceApp(QueryService(workspace), cache=ResultCache(capacity=256))
    handle = serve_async_in_thread(app)
    yield handle
    handle.stop()


# ----------------------------------------------------------------------
# raw-socket client helpers
# ----------------------------------------------------------------------
def connect(handle):
    return socket.create_connection(
        (handle.server.host, handle.server.port), timeout=30
    )


def send_request(
    sock,
    method,
    path,
    payload=None,
    headers=None,
    omit_length=False,
    raw_body=None,
):
    body = b""
    if raw_body is not None:
        body = raw_body
    elif payload is not None:
        body = json.dumps(payload).encode("utf-8")
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    if body and not omit_length:
        lines.append(f"Content-Length: {len(body)}")
    sock.sendall("\r\n".join(lines).encode() + b"\r\n\r\n" + body)


def read_response(sock):
    """Parse one HTTP response; returns (status, headers, decoded body)."""
    reader = sock.makefile("rb")
    status_line = reader.readline().decode("latin-1")
    status = int(status_line.split(" ", 2)[1])
    headers = {}
    while True:
        line = reader.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    raw = reader.read(length) if length else b""
    try:
        body = json.loads(raw) if raw else None
    except json.JSONDecodeError:
        body = raw
    return status, headers, body


def roundtrip(handle, method, path, payload=None, headers=None):
    with connect(handle) as sock:
        send_request(sock, method, path, payload, headers)
        return read_response(sock)


class TestBasicServing:
    def test_healthz(self, aserver, workspace):
        status, headers, body = roundtrip(aserver, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["recipes"] == len(workspace.recipes)
        assert headers["x-request-id"] == body["request_id"]

    def test_post_score(self, aserver):
        status, _, body = roundtrip(
            aserver,
            "POST",
            "/score",
            {"ingredients": ["garlic", "onion", "tomato"]},
        )
        assert status == 200
        assert body["pairable"] == 3

    def test_query_string_payload(self, aserver):
        status, headers, body = roundtrip(
            aserver, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert b"repro_requests_total" in body

    def test_error_envelope(self, aserver):
        status, _, body = roundtrip(
            aserver, "POST", "/score", {"ingredients": ["kryptonite", "x"]}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_ingredient"

    def test_unknown_path(self, aserver):
        status, _, body = roundtrip(aserver, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown_path"

    def test_supplied_request_id_echoed(self, aserver):
        status, headers, body = roundtrip(
            aserver, "GET", "/healthz", headers={"X-Request-Id": "aio-1.x"}
        )
        assert status == 200
        assert headers["x-request-id"] == "aio-1.x"
        assert body["request_id"] == "aio-1.x"


class TestKeepAliveAndPipelining:
    def test_sequential_requests_on_one_connection(self, aserver):
        with connect(aserver) as sock:
            for _ in range(3):
                send_request(sock, "GET", "/healthz")
                status, headers, _ = read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"

    def test_pipelined_requests_answered_in_order(self, aserver):
        with connect(aserver) as sock:
            # Write three requests back-to-back before reading anything.
            send_request(
                sock, "GET", "/healthz", headers={"X-Request-Id": "pipe-1"}
            )
            send_request(
                sock, "GET", "/regions", headers={"X-Request-Id": "pipe-2"}
            )
            send_request(
                sock, "GET", "/healthz", headers={"X-Request-Id": "pipe-3"}
            )
            reader = sock.makefile("rb")
            seen = []
            for _ in range(3):
                status_line = reader.readline().decode("latin-1")
                assert " 200 " in status_line
                headers = {}
                while True:
                    line = reader.readline().decode("latin-1").strip()
                    if not line:
                        break
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
                reader.read(int(headers["content-length"]))
                seen.append(headers["x-request-id"])
        assert seen == ["pipe-1", "pipe-2", "pipe-3"]

    def test_connection_close_honored(self, aserver):
        with connect(aserver) as sock:
            send_request(
                sock, "GET", "/healthz", headers={"Connection": "close"}
            )
            status, headers, _ = read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert sock.makefile("rb").read() == b""  # EOF


class TestFraming:
    def test_post_without_content_length_is_411(self, aserver):
        status, headers, body = None, None, None
        with connect(aserver) as sock:
            send_request(
                sock,
                "POST",
                "/score",
                raw_body=b'{"ingredients": ["garlic"]}',
                omit_length=True,
            )
            status, headers, body = read_response(sock)
        assert status == 411
        assert body["error"]["code"] == "length_required"
        assert body["request_id"]
        assert headers["connection"] == "close"

    def test_transfer_encoding_is_411(self, aserver):
        status, _, body = roundtrip(
            aserver,
            "POST",
            "/score",
            headers={"Transfer-Encoding": "chunked"},
        )
        assert status == 411
        assert body["error"]["code"] == "length_required"

    @pytest.mark.parametrize(
        "length, body",
        [
            ("banana", None),
            # A negative length must not leave the body in the stream
            # to be parsed as the next request head.
            ("-5", b'{"ingredients": ["garlic", "onion"]}'),
            # Each body has the length int() would read, so a server
            # that accepts the sign or the underscore answers at once.
            ("+5", b'"abc"'),
            ("1_0", b"[1, 2, 34]"),
        ],
        ids=["banana", "-5", "+5", "1_0"],
    )
    def test_malformed_content_length_is_400(self, aserver, length, body):
        """Content-Length is ``1*DIGIT`` (RFC 9110 §8.6), nothing else."""
        with connect(aserver) as sock:
            send_request(
                sock,
                "POST",
                "/score",
                headers={"Content-Length": length},
                omit_length=True,
                raw_body=body,
            )
            status, headers, reply = read_response(sock)
        assert status == 400
        assert reply["error"]["code"] == "invalid_request"
        assert reply["error"]["message"] == "malformed Content-Length"
        # The body boundary is unknown, so the server must close.
        assert headers["connection"] == "close"

    def test_oversized_body_is_400_payload_too_large(self, aserver):
        with connect(aserver) as sock:
            send_request(
                sock,
                "POST",
                "/score",
                headers={"Content-Length": str(2 << 20)},
            )
            status, _, body = read_response(sock)
        assert status == 400
        assert body["error"]["code"] == "payload_too_large"

    def test_invalid_json_keeps_the_connection(
        self, aserver, raw=b"{not json"
    ):
        with connect(aserver) as sock:
            send_request(sock, "POST", "/score", raw_body=raw)
            status, headers, body = read_response(sock)
            assert status == 400
            assert body["error"]["code"] == "invalid_json"
            assert headers["connection"] == "keep-alive"
            send_request(sock, "GET", "/healthz")
            status, _, _ = read_response(sock)
            assert status == 200

    @pytest.mark.parametrize(
        "raw",
        [b'{"a": "\xc3"}', b'{"seed": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "int-past-digit-limit"],
    )
    def test_undecodable_body_keeps_the_connection(self, aserver, raw):
        self.test_invalid_json_keeps_the_connection(aserver, raw)

    def test_malformed_request_line_is_400(self, aserver):
        with connect(aserver) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, _, body = read_response(sock)
        assert status == 400
        assert body["error"]["code"] == "invalid_request"


@settings(max_examples=300, deadline=None)
@given(st.binary())
@example(b'{"a": "\xc3"}')
@example(b'{"seed": ' + b"1" * 5000 + b"}")
def test_decode_body_answers_every_body(raw):
    """A payload or the invalid_json envelope; never an exception."""
    payload, envelope = decode_body(raw)
    if envelope is not None:
        assert payload is None
        assert envelope["status"] == 400
        assert envelope["error"]["code"] == "invalid_json"


class TestMethodRouting:
    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "HEAD"])
    def test_unsupported_methods_get_405_envelope(self, aserver, method):
        payload = {"x": 1} if method in ("PUT", "PATCH") else None
        status, headers, body = roundtrip(aserver, method, "/score", payload)
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert "x-request-id" in headers

    def test_post_to_get_route_is_405(self, aserver):
        status, _, body = roundtrip(aserver, "POST", "/healthz", {"a": 1})
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_unknown_path_with_odd_method_is_404(self, aserver):
        status, _, body = roundtrip(aserver, "DELETE", "/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown_path"


# ----------------------------------------------------------------------
# dedicated stub servers: limits and drain need their own instances
# ----------------------------------------------------------------------
class StubService:
    """Instant handlers, plus a gated slow endpoint for drain tests."""

    def __init__(self):
        self.gate = threading.Event()
        self.entered = threading.Event()

    def handle_healthz(self, payload):
        return {"status": "ok"}

    def handle_score(self, payload):
        body = payload if isinstance(payload, dict) else {}
        if body.get("slow"):
            self.entered.set()
            assert self.gate.wait(timeout=10)
        return {"score": 1.0, "ingredients": body.get("ingredients", [])}


def stub_server(**kwargs):
    app = ServiceApp(StubService(), cache=ResultCache(capacity=16))
    handle = AsyncServerHandle(
        AsyncServiceServer(app, host="127.0.0.1", port=0, **kwargs)
    ).start()
    return app, handle


class TestConnectionLimit:
    def test_excess_connection_gets_503(self):
        app, handle = stub_server(max_connections=1)
        try:
            first = connect(handle)
            try:
                # Poke the first connection so it is fully established.
                send_request(first, "GET", "/healthz")
                assert read_response(first)[0] == 200
                with connect(handle) as second:
                    send_request(second, "GET", "/healthz")
                    status, headers, body = read_response(second)
                assert status == 503
                assert body["error"]["code"] == "connection_limit"
                assert headers["connection"] == "close"
            finally:
                first.close()
            rejected = app.metrics.registry.counter(
                "repro_service_rejected_total",
                endpoint="(server)",
                reason="connection_limit",
            )
            assert rejected.value >= 1
        finally:
            handle.stop()


class TestAdmissionOverHttp:
    def test_overload_sheds_with_503(self):
        app, handle = stub_server(
            limits=AdmissionLimits(max_inflight=1, max_queue=0)
        )
        service = app.service
        try:
            results = []

            def slow():
                results.append(
                    roundtrip(
                        handle,
                        "POST",
                        "/score",
                        {"slow": True, "ingredients": ["a"]},
                    )
                )

            worker = threading.Thread(target=slow)
            worker.start()
            assert service.entered.wait(timeout=10)
            # The slow request holds /score's only slot; with a zero
            # queue the next distinct request must be shed.
            status, _, body = roundtrip(
                handle, "POST", "/score", {"ingredients": ["b"]}
            )
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            service.gate.set()
            worker.join(timeout=10)
            assert results[0][0] == 200
        finally:
            service.gate.set()
            handle.stop()

    def test_rate_limit_sheds_with_429(self):
        app, handle = stub_server(
            limits=AdmissionLimits(
                max_inflight=8, max_queue=8, rate_limit=1.0, burst=1.0
            )
        )
        try:
            with connect(handle) as sock:
                send_request(
                    sock, "POST", "/score", {"ingredients": ["a"]}
                )
                assert read_response(sock)[0] == 200
                send_request(
                    sock, "POST", "/score", {"ingredients": ["b"]}
                )
                status, _, body = read_response(sock)
            assert status == 429
            assert body["error"]["code"] == "rate_limited"
            assert (
                app.metrics.registry.counter(
                    "repro_service_rejected_total",
                    endpoint="score",
                    reason="rate_limited",
                ).value
                == 1
            )
        finally:
            handle.stop()

    def test_cache_hit_bypasses_rate_limit(self):
        app, handle = stub_server(
            limits=AdmissionLimits(
                max_inflight=8, max_queue=8, rate_limit=1.0, burst=1.0
            )
        )
        try:
            payload = {"ingredients": ["a"]}
            with connect(handle) as sock:
                send_request(sock, "POST", "/score", payload)
                assert read_response(sock)[0] == 200
                # Identical request: served from the result cache on
                # the event loop, never reaching admission.
                send_request(sock, "POST", "/score", payload)
                status, _, body = read_response(sock)
            assert status == 200
        finally:
            handle.stop()


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_rejects_new(self):
        app, handle = stub_server(drain_timeout=15.0)
        service = app.service
        try:
            idle = connect(handle)
            results = []

            def slow():
                results.append(
                    roundtrip(
                        handle,
                        "POST",
                        "/score",
                        {"slow": True, "ingredients": ["x"]},
                    )
                )

            worker = threading.Thread(target=slow)
            worker.start()
            assert service.entered.wait(timeout=10)

            stopper = threading.Thread(target=lambda: handle.stop())
            stopper.start()
            deadline = time.time() + 10
            while not handle.server.draining and time.time() < deadline:
                time.sleep(0.01)
            assert handle.server.draining

            # A new request on the established keep-alive connection is
            # turned away with the draining envelope and Connection: close.
            send_request(idle, "GET", "/healthz")
            status, headers, body = read_response(idle)
            assert status == 503
            assert body["error"]["code"] == "draining"
            assert headers["connection"] == "close"
            idle.close()

            # The in-flight slow request still completes.
            service.gate.set()
            worker.join(timeout=15)
            stopper.join(timeout=15)
            assert results and results[0][0] == 200
            assert handle.drained_clean is True
        finally:
            service.gate.set()
            handle.stop()

    def test_new_connections_refused_after_drain(self):
        app, handle = stub_server()
        host, port = handle.server.host, handle.server.port
        assert handle.stop() is True
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)


class TestServingMetricsExposed:
    def test_metrics_json_has_serving_section(self, aserver):
        payload = {"ingredients": ["garlic", "basil"]}
        roundtrip(aserver, "POST", "/score", payload)
        status, _, body = roundtrip(aserver, "GET", "/metrics")
        assert status == 200
        serving = body["serving"]
        assert serving["handler_calls"].get("score", 0) >= 1
        assert "inflight" in serving and "queue_depth" in serving
        # The transport's admission gauges are live: nothing in flight
        # for /score once the response has been written... except the
        # /metrics request itself, which is mid-flight right now.
        assert serving["inflight"].get("score", 0) == 0


class TestCacheStatsOverHttp:
    def test_each_request_counts_one_hit_or_one_miss(self):
        """4 distinct /score requests, then the same 4 again.

        The event-loop cache probe must not count a miss that the
        executor's dispatch then counts a second time.
        """
        app, handle = stub_server()
        try:
            payloads = [{"ingredients": [name]} for name in "abcd"]
            with connect(handle) as sock:
                for payload in payloads + payloads:
                    send_request(sock, "POST", "/score", payload)
                    assert read_response(sock)[0] == 200
                send_request(sock, "GET", "/metrics")
                status, _, body = read_response(sock)
            assert status == 200
            assert body["cache"]["hits"] == body["cache"]["misses"] == 4
            assert body["cache"]["hit_rate"] == 0.5
        finally:
            handle.stop()

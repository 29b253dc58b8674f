"""Golden responses: what the asyncio server sends for the full endpoint mix.

Most bodies are made by dispatch: each must equal, byte for byte modulo
the ``request_id`` value, ``json.dumps`` of the in-process
:meth:`ServiceApp.dispatch` answer to the same request — success
responses and the 400, 404 and 405 envelopes dispatch produces. Seven
envelopes are made by the transport itself (411 no length, 411 transfer
encoding, 400 invalid_json for malformed JSON, for a body that is not
UTF-8 and for an integer past the int-to-string digit limit, 400
malformed length, 400 payload_too_large); those are compared with
recorded literal bytes.
Raw sockets keep the exchanges (missing Content-Length, arbitrary
methods) under full control.
"""

import json
import re
import socket

import pytest

from repro.service import (
    QueryService,
    ResultCache,
    ServiceApp,
    serve_async_in_thread,
)

_RID = re.compile(rb'"request_id": "[^"]*"')


@pytest.fixture(scope="module")
def served(workspace):
    """((host, port) of the async server, an in-process app), one corpus."""
    service = QueryService(workspace)
    service.warm()
    handle = serve_async_in_thread(
        ServiceApp(service, cache=ResultCache(capacity=256))
    )
    yield (
        (handle.server.host, handle.server.port),
        ServiceApp(service, cache=ResultCache(capacity=256)),
    )
    handle.stop()


def exchange(address, request_bytes):
    """One raw HTTP exchange; returns (status, body bytes)."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request_bytes)
        reader = sock.makefile("rb")
        status = int(reader.readline().decode("latin-1").split(" ", 2)[1])
        headers = {}
        while True:
            line = reader.readline().decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        return status, reader.read(length) if length else b""


def build(method, path, payload=None, omit_length=False, raw_body=None,
          extra_headers=()):
    body = raw_body
    if body is None:
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else b""
        )
    lines = [f"{method} {path} HTTP/1.1", "Host: eq", "Connection: close"]
    lines.extend(extra_headers)
    if body and not omit_length:
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


def normalize(raw):
    """Blank out the one legitimately-different byte range: the id."""
    return _RID.sub(b'"request_id": "_"', raw)


def dispatched(method, path, payload=None):
    """A request dispatch answers: the in-process answer is expected."""

    def expect(app):
        status, body = app.dispatch(method, path, payload)
        return status, json.dumps(body).encode("utf-8")

    return build(method, path, payload), expect


def framed(request_bytes, status, body):
    """A request the transport answers itself: recorded bytes expected."""
    return request_bytes, lambda app: (status, body)


#: The full mix: every success shape plus every error envelope the
#: server produces without admission pressure.
MIX = {
    "healthz": dispatched("GET", "/healthz"),
    "regions": dispatched("GET", "/regions"),
    "alias": dispatched("POST", "/alias", {"phrase": "2 cloves garlic"}),
    "score": dispatched(
        "POST", "/score", {"ingredients": ["garlic", "onion"]}
    ),
    "classify": dispatched(
        "POST", "/classify", {"ingredients": ["soy sauce", "rice"], "top": 3}
    ),
    "pairings": dispatched(
        "POST", "/pairings", {"ingredient": "garlic", "limit": 5}
    ),
    "similar": dispatched(
        "POST", "/similar", {"ingredient": "garlic", "k": 5}
    ),
    "complete": dispatched(
        "POST", "/complete", {"ingredients": ["garlic", "onion"], "k": 3}
    ),
    "recommend": dispatched(
        "POST", "/recommend", {"region": "ITA", "count": 2, "seed": 7}
    ),
    "sql": dispatched(
        "POST", "/sql", {"query": "SELECT COUNT(*) AS n FROM recipes"}
    ),
    "montecarlo": dispatched(
        "POST", "/montecarlo", {"region": "ITA", "n_samples": 100, "seed": 7}
    ),
    # -- envelopes made by dispatch -------------------------------------
    "404 unknown_path": dispatched("GET", "/nope"),
    "405 wrong method": dispatched("PUT", "/score", {"ingredients": ["x"]}),
    "405 head": dispatched("HEAD", "/healthz"),
    "405 delete": dispatched("DELETE", "/regions"),
    "400 invalid_field": dispatched(
        "POST", "/alias", {"phrase": "garlic", "bogus": 1}
    ),
    "404 unknown_ingredient": dispatched(
        "POST", "/score", {"ingredients": ["kryptonite", "x"]}
    ),
    "400 invalid payload type": dispatched("POST", "/score", [1, 2, 3]),
    # -- envelopes made by the transport --------------------------------
    "411 no length": framed(
        build(
            "POST",
            "/score",
            raw_body=b'{"ingredients": ["garlic"]}',
            omit_length=True,
        ),
        411,
        b'{"error": {"code": "length_required", "message": "POST requires '
        b'a Content-Length header"}, "status": 411, "request_id": "_"}',
    ),
    "411 transfer encoding": framed(
        build("POST", "/score", extra_headers=("Transfer-Encoding: chunked",)),
        411,
        b'{"error": {"code": "length_required", "message": "chunked '
        b'transfer encoding is not supported; send a Content-Length '
        b'header"}, "status": 411, "request_id": "_"}',
    ),
    "400 invalid_json": framed(
        build("POST", "/score", raw_body=b"{not json"),
        400,
        b'{"error": {"code": "invalid_json", "message": "request body is '
        b"not valid JSON: Expecting property name enclosed in double "
        b'quotes: line 1 column 2 (char 1)"}, "status": 400, '
        b'"request_id": "_"}',
    ),
    "400 invalid_json, not UTF-8": framed(
        build("POST", "/score", raw_body=b'{"a": "\xc3"}'),
        400,
        b'{"error": {"code": "invalid_json", "message": "request body is '
        b"not valid JSON: 'utf-8' codec can't decode byte 0xc3 in position "
        b'7: invalid continuation byte"}, "status": 400, "request_id": "_"}',
    ),
    "400 invalid_json, int past the digit limit": framed(
        build(
            "POST", "/montecarlo", raw_body=b'{"seed": ' + b"1" * 5000 + b"}"
        ),
        400,
        b'{"error": {"code": "invalid_json", "message": "request body is '
        b"not valid JSON: Exceeds the limit (4300 digits) for integer "
        b"string conversion: value has 5000 digits; use "
        b'sys.set_int_max_str_digits() to increase the limit"}, '
        b'"status": 400, "request_id": "_"}',
    ),
    "400 malformed length": framed(
        build("POST", "/score", extra_headers=("Content-Length: banana",)),
        400,
        b'{"error": {"code": "invalid_request", "message": "malformed '
        b'Content-Length"}, "status": 400, "request_id": "_"}',
    ),
    "400 payload_too_large": framed(
        build(
            "POST", "/score", extra_headers=(f"Content-Length: {2 << 20}",)
        ),
        400,
        b'{"error": {"code": "payload_too_large", "message": "request body '
        b'exceeds 1048576 bytes"}, "status": 400, "request_id": "_"}',
    ),
}


@pytest.mark.parametrize("name", list(MIX))
def test_served_body_matches_golden(served, name):
    address, app = served
    request_bytes, expect = MIX[name]
    status, body = exchange(address, request_bytes)
    expected_status, expected_body = expect(app)
    assert (status, normalize(body)) == (
        expected_status,
        normalize(expected_body),
    )

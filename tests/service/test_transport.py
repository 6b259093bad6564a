"""Transport behaviour of the HTTP service: the ``Content-Length``
rules, driven over raw sockets where the client library would refuse to
send the request."""

import json
import socket

import pytest

from repro.service import ServiceClient
from repro.service.server import MAX_BODY_BYTES


def raw_exchange(server, head: bytes, timeout: float = 10.0):
    """Send raw request bytes; read until the server closes the socket.

    Returns ``(status, headers, decoded_body)``.  The timeout turns a
    handler that blocks on an unread body into a test failure instead of
    a hang.
    """
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    head_bytes, _, body = response.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines[1:])
    }
    return status, headers, json.loads(body.decode())


def post_with_length(server, length_header: str):
    return raw_exchange(
        server,
        (
            "POST /v1/games HTTP/1.1\r\n"
            "Host: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length_header}\r\n"
            "\r\n"
        ).encode(),
    )


def assert_health(server):
    with ServiceClient(server.host, server.port) as client:
        assert client.health()["status"] == "ok"


class TestContentLength:
    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", "0x10", "+5"])
    def test_malformed_length_is_400_and_closes(self, server, value):
        status, headers, body = post_with_length(server, value)
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert "Content-Length" in body["error"]["message"]
        assert headers["connection"] == "close"
        assert_health(server)

    @pytest.mark.parametrize("value", [str(MAX_BODY_BYTES + 1), "99999999999"])
    def test_oversized_length_is_413_before_reading(self, server, value):
        status, headers, body = post_with_length(server, value)
        assert status == 413
        assert body["error"]["code"] == "payload-too-large"
        assert headers["connection"] == "close"
        assert_health(server)

    def test_refusals_are_counted_in_metrics(self, server):
        post_with_length(server, "-1")
        post_with_length(server, str(MAX_BODY_BYTES + 1))
        with ServiceClient(server.host, server.port) as client:
            statuses = client.metrics()["statuses"]
        assert statuses["400"] == 1
        assert statuses["413"] == 1

    def test_valid_length_still_reads_the_body(self, server):
        payload = json.dumps({"game": {"format": "nope"}}).encode()
        status, _headers, body = raw_exchange(
            server,
            (
                "POST /v1/games HTTP/1.1\r\n"
                "Host: test\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode() + payload,
        )
        # The body was read and decoded: the codec, not the transport,
        # rejects it.
        assert status == 400
        assert "unsupported game format" in body["error"]["message"]

"""Transport battery: HTTP and NDJSON stdio around one ServeApp.

The transport layer's entire contract is "carry the canonical body
without touching it": HTTP status codes mirror the body's ``ok``
flag, stdio transcripts stay line-aligned with their input, and
neither transport invents or rewrites response content.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.runner.pool import InlineWorkerPool, WorkerPool
from repro.serve.app import ServeApp
from repro.serve.client import parse_endpoint, remote_call
from repro.serve.transport import (
    MAX_BODY_BYTES,
    _read_request,
    serve_stdio,
    start_http_server,
)
from repro.runner.errors import SweepConfigError
from tests.serve.conftest import plan_request, run


def http_session(requests):
    """Run ``requests`` -- ``(method, path, document|None)`` tuples
    -- against an ephemeral server; returns (status, body) pairs."""
    app = ServeApp(InlineWorkerPool(), pressure=0)

    async def scenario():
        server = await start_http_server(app, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        results = []
        for method, path, document in requests:
            results.append(await loop.run_in_executor(
                None, _raw_call, port, method, path, document
            ))
        server.close()
        await server.wait_closed()
        return results

    try:
        return run(scenario())
    finally:
        app.close()


def _raw_call(port, method, path, document):
    import http.client

    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=60
    )
    try:
        body = (
            json.dumps(document) if document is not None else None
        )
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


class TestHttp:
    def test_post_ok_request_returns_200_with_body(self):
        [(status, body)] = http_session([
            ("POST", "/v1", plan_request()),
        ])
        assert status == 200
        document = json.loads(body)
        assert document["ok"] is True
        assert document["provenance"] == "fallback:first_order"

    def test_post_error_request_returns_400_structured(self):
        [(status, body)] = http_session([
            ("POST", "/v1", {"op": "warp", "id": "bad-1"}),
        ])
        assert status == 400
        document = json.loads(body)
        assert document["ok"] is False
        assert document["status"] == "error"
        assert document["error"]["type"] == "ServeProtocolError"
        assert document["id"] == "bad-1"

    def test_root_path_is_an_alias_for_v1(self):
        [(status_v1, body_v1), (status_root, body_root)] = (
            http_session([
                ("POST", "/v1", plan_request()),
                ("POST", "/", plan_request()),
            ])
        )
        assert status_v1 == status_root == 200
        assert body_v1 == body_root

    def test_unknown_route_is_404(self):
        [(status, body)] = http_session([
            ("GET", "/nope", None),
        ])
        assert status == 404
        assert json.loads(body)["ok"] is False

    def test_healthz_and_stats(self):
        results = http_session([
            ("GET", "/healthz", None),
            ("POST", "/v1", plan_request()),
            ("GET", "/stats", None),
        ])
        status, health_body = results[0]
        assert status == 200
        health = json.loads(health_body)
        assert health["ok"] is True
        assert health["generation"] == 0
        assert health["inflight"] == 0
        assert health["lru"]["hits"] == 0
        status, stats_body = results[2]
        assert status == 200
        stats = json.loads(stats_body)
        assert stats["op"] == "stats"
        assert stats["requests"] == 2  # the plan + this stats call
        assert stats["searches"] == 1
        assert stats["pool"]["serial"] is True

    def test_oversized_body_is_rejected_before_it_is_read(self):
        """The Content-Length bound fires off the header alone --
        the parser never waits for (or allocates) the huge body."""

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"POST /v1 HTTP/1.1\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                  "\r\n".encode("ascii")
            )
            reader.feed_eof()
            with pytest.raises(ValueError, match="exceeds"):
                await _read_request(reader)

        run(scenario())

    def test_malformed_json_body_is_a_structured_error(self):
        app = ServeApp(InlineWorkerPool(), pressure=0)

        async def scenario():
            server = await start_http_server(app, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()

            def post_garbage():
                import http.client

                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=60
                )
                try:
                    connection.request(
                        "POST", "/v1", body="{not json"
                    )
                    response = connection.getresponse()
                    return (
                        response.status,
                        response.read().decode("utf-8"),
                    )
                finally:
                    connection.close()

            result = await loop.run_in_executor(None, post_garbage)
            server.close()
            await server.wait_closed()
            return result

        try:
            status, body = run(scenario())
        finally:
            app.close()
        assert status == 400
        document = json.loads(body)
        assert document["ok"] is False
        assert document["error"]["type"] == "ServeProtocolError"


class TestStdio:
    def serve_lines(self, lines, **app_kwargs):
        app = ServeApp(
            InlineWorkerPool(), pressure=0, **app_kwargs
        )
        stdin = io.StringIO("".join(
            line + "\n" for line in lines
        ))
        stdout = io.StringIO()
        try:
            served = run(serve_stdio(app, stdin, stdout))
        finally:
            app.close()
        return served, stdout.getvalue().splitlines()

    def test_one_body_per_line_in_input_order(self):
        lines = [
            json.dumps(plan_request(id="a")),
            json.dumps({"op": "stats", "id": "b"}),
            json.dumps(plan_request(id="c", budget=32)),
        ]
        served, out = self.serve_lines(lines)
        assert served == 3
        assert len(out) == 3
        assert [json.loads(line)["id"] for line in out] == [
            "a", "b", "c",
        ]
        assert json.loads(out[0])["ok"] is True
        assert json.loads(out[2])["budget"] == 32

    def test_blank_lines_are_skipped(self):
        served, out = self.serve_lines([
            "", json.dumps(plan_request()), "   ",
        ])
        assert served == 1
        assert len(out) == 1

    def test_malformed_line_yields_an_aligned_error_body(self):
        served, out = self.serve_lines([
            "{not json",
            json.dumps(plan_request()),
        ])
        assert served == 2
        assert len(out) == 2
        error = json.loads(out[0])
        assert error["ok"] is False
        assert error["error"]["type"] == "ServeProtocolError"
        assert json.loads(out[1])["ok"] is True

    def test_repeat_lines_hit_the_lru(self):
        from repro.serve.lru import SaltedLRU

        lines = [json.dumps(plan_request())] * 3
        app = ServeApp(
            InlineWorkerPool(), lru=SaltedLRU(8), pressure=0
        )
        stdin = io.StringIO("".join(
            line + "\n" for line in lines
        ))
        stdout = io.StringIO()
        try:
            run(serve_stdio(app, stdin, stdout))
        finally:
            app.close()
        out = stdout.getvalue().splitlines()
        assert len(set(out)) == 1
        assert app.searches == 1
        assert app.lru.hits == 2

    def test_bytes_stdin_is_decoded(self):
        served, out = self.serve_lines_bytes([
            json.dumps(plan_request()).encode("utf-8"),
        ])
        assert served == 1
        assert json.loads(out[0])["ok"] is True

    def serve_lines_bytes(self, raw_lines):
        app = ServeApp(InlineWorkerPool(), pressure=0)
        stdin = io.BytesIO(b"".join(
            line + b"\n" for line in raw_lines
        ))
        stdout = io.StringIO()
        try:
            served = run(serve_stdio(app, stdin, stdout))
        finally:
            app.close()
        return served, stdout.getvalue().splitlines()


def _read_to_eof(port, document, timeout):
    """POST ``document`` over a raw socket and read until EOF."""
    import socket

    payload = json.dumps(document).encode("utf-8")
    with socket.create_connection(
        ("127.0.0.1", port), timeout=timeout
    ) as sock:
        sock.sendall(
            b"POST /v1 HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + str(len(payload)).encode("ascii")
            + b"\r\n\r\n" + payload
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestForkedWorkers:
    def test_response_reaches_eof_on_the_request_that_spawns_the_pool(
        self,
    ):
        """The pool's first worker forks while the request is open;
        it must not keep the accepted socket (or the listener) open,
        or a ``Connection: close`` client never sees EOF."""
        app = ServeApp(WorkerPool(1), pressure=0)

        async def scenario():
            server = await start_http_server(app, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, _read_to_eof, port, plan_request(), 20
                )
            finally:
                server.close()
                await server.wait_closed()

        try:
            raw = run(scenario())
        finally:
            app.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body)["ok"] is True


class TestClient:
    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:8734") == (
            "127.0.0.1", 8734
        )
        assert parse_endpoint("[::1]:8734") == ("::1", 8734)
        with pytest.raises(SweepConfigError):
            parse_endpoint("no-port-here")
        with pytest.raises(SweepConfigError):
            parse_endpoint("host:not-a-number")

    def test_remote_call_round_trip(self):
        app = ServeApp(InlineWorkerPool(), pressure=0)

        async def scenario():
            server = await start_http_server(app, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                None, remote_call, "127.0.0.1", port,
                plan_request(),
            )
            server.close()
            await server.wait_closed()
            return result

        try:
            status, body = run(scenario())
        finally:
            app.close()
        assert status == 200
        assert json.loads(body)["ok"] is True

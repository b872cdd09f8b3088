"""Serving transports: stdlib-asyncio HTTP and NDJSON stdio.

Two ways to reach one :class:`~repro.serve.app.ServeApp`:

* **HTTP** (:func:`start_http_server` / :func:`serve_http`): a
  minimal HTTP/1.1 endpoint on :func:`asyncio.start_server` -- no
  third-party framework.  ``POST /v1`` takes a JSON request body and
  returns the canonical response body (``200`` when ``ok``, ``400``
  for structured errors, ``503`` for bounded-admission overload
  rejections); ``GET /stats`` returns the live-counter
  document; ``GET /healthz`` answers liveness probes with the
  server's vitals (pool generation, in-flight count, LRU
  counters -- see :meth:`~repro.serve.app.ServeApp.health_response`).
  One request per connection (``Connection: close``) keeps the
  parser trivial and the tests honest.
* **stdio** (:func:`serve_stdio`): newline-delimited JSON -- one
  request per input line, one canonical body per output line, in
  input order.  This is the deterministic harness mode: no sockets,
  no ports, byte-exact transcripts.

Both transports only ever emit bodies produced by the shared
protocol builders; the transport layer never invents or rewrites
response content.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import sys
from typing import Any, Dict, Optional, TextIO, Tuple

from repro.serve.app import ServeApp

#: Largest accepted HTTP request body (1 MiB keeps sweeps of
#: thousands of points while bounding a misbehaving client).
MAX_BODY_BYTES = 1 << 20

_HTTP_PATHS = ("/v1", "/")

#: The listening and accepted sockets of this process, by fd.  A pool
#: worker forked while a request is open would otherwise keep copies
#: of them, so the client would see no EOF until that worker exits.
_SERVING_SOCKETS: Dict[int, Any] = {}


def _track_socket(sock: Any) -> None:
    """Record ``sock`` for release in forked children."""
    for fd, known in list(_SERVING_SOCKETS.items()):
        if known.fileno() != fd:
            del _SERVING_SOCKETS[fd]
    _SERVING_SOCKETS[sock.fileno()] = sock


def _release_serving_sockets() -> None:
    """In a forked child: drop its copies of the serving sockets.

    Each still-open fd is pointed at ``/dev/null`` rather than
    closed, so the child's stale socket objects can never close a
    number the child has since reused.  The parent's sockets are
    untouched.
    """
    live = [
        fd for fd, sock in _SERVING_SOCKETS.items()
        if sock.fileno() == fd
    ]
    _SERVING_SOCKETS.clear()
    if not live:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in live:
            os.dup2(null, fd)
    finally:
        os.close(null)


os.register_at_fork(after_in_child=_release_serving_sockets)


def _http_response(
    status: int, reason: str, body: str
) -> bytes:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + payload


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes]:
    """Parse one request: ``(method, path, body)``."""
    request_line = await reader.readline()
    if not request_line.strip():
        raise ConnectionError("empty request")
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) < 2:
        raise ValueError("malformed request line")
    method, path = parts[0].upper(), parts[1]
    length = 0
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode(
            "ascii", "replace"
        ).partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise ValueError("malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise ValueError(
            f"request body exceeds {MAX_BODY_BYTES} bytes"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, body


async def _handle_connection(
    app: ServeApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    _track_socket(writer.get_extra_info("socket"))
    try:
        try:
            method, path, body = await _read_request(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except ValueError as error:
            writer.write(_http_response(
                400, "Bad Request",
                json.dumps({"ok": False, "error": str(error)}),
            ))
            return
        if method == "GET" and path == "/healthz":
            from repro.serve.protocol import canonical_body

            writer.write(_http_response(
                200, "OK", canonical_body(app.health_response())
            ))
        elif method == "GET" and path == "/stats":
            response = await app.handle({"op": "stats"})
            writer.write(_http_response(200, "OK", response))
        elif method == "POST" and path in _HTTP_PATHS:
            response = await app.handle(
                body.decode("utf-8", "replace")
            )
            document = json.loads(response)
            if document.get("ok", False):
                writer.write(_http_response(200, "OK", response))
            elif document.get("status") == "overloaded":
                # Bounded-admission rejection: a retryable 503, not
                # a client error -- the body carries the typed
                # ServerOverloaded entry with its retry_after_ms.
                writer.write(_http_response(
                    503, "Service Unavailable", response
                ))
            else:
                writer.write(_http_response(
                    400, "Bad Request", response
                ))
        else:
            writer.write(_http_response(
                404, "Not Found",
                json.dumps({
                    "ok": False,
                    "error": f"no route {method} {path}",
                }),
            ))
    finally:
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()


async def start_http_server(
    app: ServeApp, host: str, port: int
) -> "asyncio.base_events.Server":
    """Bind the HTTP transport; returns the listening server.

    Pass ``port=0`` to bind an ephemeral port (tests); read the
    bound address off ``server.sockets[0].getsockname()``.
    """
    server = await asyncio.start_server(
        lambda reader, writer: _handle_connection(
            app, reader, writer
        ),
        host, port,
    )
    for sock in server.sockets:
        _track_socket(sock)
    return server


async def serve_http(
    app: ServeApp,
    host: str,
    port: int,
    ready: Optional[TextIO] = None,
) -> None:
    """Run the HTTP transport until cancelled.

    When ``ready`` is given, one ``SERVING <host> <port>`` line is
    written (and flushed) after the socket binds -- the CI job and
    the test battery block on it instead of sleeping.
    """
    server = await start_http_server(app, host, port)
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready.write(f"SERVING {bound[0]} {bound[1]}\n")
        ready.flush()
    async with server:
        await server.serve_forever()


async def serve_stdio(
    app: ServeApp,
    stdin: Optional[Any] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """Serve newline-delimited JSON until EOF; returns lines served.

    Responses are written in input order.  Blank lines are skipped;
    a malformed line still yields one structured error body, so the
    transcript stays line-aligned with the input.
    """
    if stdout is None:
        stdout = sys.stdout
    if stdin is None:
        stdin = sys.stdin
    served = 0
    for line in _lines(stdin):
        if not line.strip():
            continue
        body = await app.handle(line)
        stdout.write(body + "\n")
        stdout.flush()
        served += 1
    return served


def _lines(stdin: Any):
    if isinstance(stdin, io.TextIOBase) or hasattr(
        stdin, "readline"
    ):
        while True:
            line = stdin.readline()
            if not line:
                return
            if isinstance(line, bytes):
                line = line.decode("utf-8", "replace")
            yield line
    else:
        for line in stdin:
            yield line

"""The client for a running planning server (``plan --remote``).

A deliberately thin wrapper over :mod:`http.client`:
:func:`remote_call` POSTs one JSON request to one endpoint and returns
the status code and the canonical body exactly as the server sent it.
The CLI prints the body verbatim, so a remote plan is byte-identical
to what the serving tests compare against -- the client never
reserializes.  Every network-level failure (refused connection,
timeout, a connection dropped mid-response) surfaces as ``OSError``;
``plan --remote`` turns it into a typed
:class:`~repro.runner.errors.ReplicaUnreachable` envelope.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.wire import point_to_dict
from repro.runner.errors import SweepConfigError


def serve_request_to_dict(request: Any) -> Dict[str, Any]:
    """A :class:`~repro.serve.protocol.ServeRequest` in wire form.

    The inverse of :func:`repro.serve.protocol.parse_request` (up to
    admission normalization: the budget here is the already-folded
    effective budget, so the round-trip is stable).  Defaulted
    fields are omitted, keeping wire documents minimal and their
    fingerprint-relevant content explicit.
    """
    document: Dict[str, Any] = {"op": request.op}
    if request.op == "sweep":
        document["points"] = [
            point_to_dict(point) for point in request.points
        ]
    elif request.points:
        document["point"] = point_to_dict(request.points[0])
    if request.budget is not None:
        document["budget"] = request.budget
    if request.no_fallback:
        document["no_fallback"] = True
    if request.request_id is not None:
        document["id"] = request.request_id
    return document


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Parse ``host:port`` (IPv6 in brackets) into ``(host, port)``."""
    text = endpoint.strip()
    if text.startswith("["):
        host, _, rest = text[1:].partition("]")
        port_text = rest.lstrip(":")
    else:
        host, _, port_text = text.rpartition(":")
    if not host or not port_text:
        raise SweepConfigError(
            f"remote endpoint must be host:port, got {endpoint!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise SweepConfigError(
            f"remote endpoint port must be an integer, got "
            f"{port_text!r}"
        ) from None
    if not 0 < port < 65536:
        raise SweepConfigError(
            f"remote endpoint port out of range: {port}"
        )
    return host, port


def remote_call(
    host: str,
    port: int,
    document: Mapping[str, Any],
    timeout: Optional[float] = 60.0,
) -> Tuple[int, str]:
    """POST one request document; returns ``(status, body)``.

    The body comes back exactly as sent by the server (structured
    errors arrive with a non-200 status and an ``ok: false`` body,
    not an exception).

    Raises:
        OSError: When the server is unreachable, the connection is
            dropped mid-response, or ``timeout`` expires (all the
            :mod:`http.client` failure modes are ``OSError``
            subclasses -- refused connections, ``RemoteDisconnected``,
            ``socket.timeout``).
    """
    connection = http.client.HTTPConnection(
        host, port, timeout=timeout
    )
    try:
        connection.request(
            "POST", "/v1",
            body=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    except http.client.HTTPException as error:
        # http.client raises a few non-OSError shapes for torn
        # responses (e.g. IncompleteRead or BadStatusLine on a
        # mid-write kill); fold them into the one failure family
        # callers handle.
        raise ConnectionError(
            f"{type(error).__name__}: {error}"
        ) from error
    finally:
        connection.close()

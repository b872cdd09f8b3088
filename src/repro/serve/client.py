"""Clients for running planning servers (``plan --remote/--fleet``).

Two layers, both deliberately thin wrappers over :mod:`http.client`:

* :func:`remote_call` -- POST one JSON request to one endpoint,
  return the status code and the canonical body exactly as the
  server sent it.  The CLI prints the body verbatim, so a remote
  plan is byte-identical to what the serving tests compare against
  -- the client never reserializes.
* :func:`fleet_call` -- the failover-aware client: consistent-hash
  the request's fingerprint to a deterministic replica preference
  order (:mod:`repro.serve.router`) and walk it with a per-attempt
  deadline.  A dead port, a wedged replica (attempt deadline
  expires) or a connection dropped mid-response moves on to the next
  survivor; when every replica fails, a typed
  :class:`~repro.runner.errors.FleetUnavailable` carries the
  per-attempt evidence.

Two resilience layers ride on top of the walk (PR 10):

* **Circuit breakers** (:mod:`repro.serve.breaker`): endpoints whose
  circuit is open are demoted below every closed endpoint in the
  preference order -- healthy replicas stop paying a dead replica's
  connect timeout -- and re-probed on a seeded half-open schedule;
  a successful probe (the supervisor restarted the replica)
  re-closes the circuit.
* **Overload retries**: a replica answering the typed
  ``ServerOverloaded`` rejection (HTTP 503) is retried after its
  deterministic ``retry_after_ms`` hint, at most
  ``REPRO_FLEET_RETRY_BUDGET`` times per call; an exhausted budget
  returns the overload body itself (a typed answer, not a failure).

Failover retries are byte-safe by construction: the request
*document* is never rewritten between attempts -- in particular a
``deadline_s`` maps to its deterministic search-unit budget
server-side (PR 7), so a retried request's tightened budget produces
the same degraded bytes on whichever replica finally answers.  The
per-attempt deadline is a *network* bound on the client socket, not
part of the request identity.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.wire import point_to_dict
from repro.runner.errors import (
    FleetUnavailable,
    ReplicaUnreachable,
    SweepConfigError,
)
from repro.serve.breaker import BreakerRegistry, fleet_breaker
from repro.settings import env_float, env_int

ENV_FLEET_ATTEMPT_TIMEOUT = "REPRO_FLEET_ATTEMPT_TIMEOUT"
ENV_FLEET_RETRY_BUDGET = "REPRO_FLEET_RETRY_BUDGET"

#: Default per-attempt client deadline (seconds) for failover calls.
DEFAULT_ATTEMPT_TIMEOUT = 30.0
#: Default overload retries per fleet call.
DEFAULT_RETRY_BUDGET = 2
#: Hard ceiling on one honored ``retry_after_ms`` sleep: the hint
#: is advisory, the client's patience is bounded.
MAX_RETRY_AFTER_MS = 2000


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
    if request.warm_start:
        document["warm_start"] = True
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
        # responses (e.g. BadStatusLine on a mid-write kill); fold
        # them into the one failure family fleet_call retries on.
        raise ConnectionError(
            f"{type(error).__name__}: {error}"
        ) from error
    finally:
        connection.close()


def resolve_attempt_timeout(
    timeout: Optional[float] = None,
) -> float:
    """Per-attempt deadline: argument, else
    ``REPRO_FLEET_ATTEMPT_TIMEOUT``, else 30 seconds."""
    if timeout is None:
        timeout = env_float(
            ENV_FLEET_ATTEMPT_TIMEOUT, "a number of seconds"
        )
    if timeout is None:
        return DEFAULT_ATTEMPT_TIMEOUT
    if timeout <= 0:
        raise SweepConfigError(
            f"fleet attempt timeout must be > 0 seconds, got "
            f"{timeout}"
        )
    return timeout


def resolve_retry_budget(budget: Optional[int] = None) -> int:
    """Overload retries per call: argument, else
    ``REPRO_FLEET_RETRY_BUDGET``, else 2."""
    if budget is None:
        budget = env_int(
            ENV_FLEET_RETRY_BUDGET, "a retry count", minimum=0
        )
    if budget is None:
        return DEFAULT_RETRY_BUDGET
    if budget < 0:
        raise SweepConfigError(
            f"fleet retry budget must be >= 0, got {budget}"
        )
    return budget


def _overload_hint_ms(body: str) -> Optional[int]:
    """The ``retry_after_ms`` of a ``ServerOverloaded`` body, or
    ``None`` for any other response."""
    try:
        document = json.loads(body)
    except ValueError:
        return None
    if not isinstance(document, dict):
        return None
    error = document.get("error")
    if (
        document.get("status") == "overloaded"
        and isinstance(error, dict)
        and error.get("type") == "ServerOverloaded"
        and isinstance(error.get("retry_after_ms"), int)
    ):
        return error["retry_after_ms"]
    return None


def fleet_fingerprint(document: Mapping[str, Any]) -> str:
    """The routing fingerprint of one request document.

    The *server's* coalescing/LRU identity (id-less, effective
    budget folded in), computed client-side through the same
    protocol helpers -- so the client's routing choice lands each
    fingerprint on the replica that is already coalescing it.

    A document the protocol rejects still routes (by a stable hash
    of its raw content): the structured 400 must come from a
    replica, not from a client-side crash, and it must come from
    the *same* replica every time the same bad document is sent.
    """
    from repro.runner.cache import stable_hash
    from repro.serve.protocol import (
        ServeProtocolError,
        parse_request,
        request_fingerprint,
    )

    try:
        request = parse_request(dict(document, id=None))
    except (ServeProtocolError, TypeError, ValueError):
        return stable_hash({"malformed": repr(document)})
    return request_fingerprint(request)


def fleet_call(
    endpoints: Sequence[str],
    document: Mapping[str, Any],
    attempt_timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
    breaker: Optional[BreakerRegistry] = None,
    retry_budget: Optional[int] = None,
) -> Tuple[int, str, str]:
    """POST one request to a fleet with consistent-hash failover.

    The request's fingerprint picks a deterministic replica
    preference order; each attempt gets its own wall-clock deadline
    (``attempt_timeout``), and the identical document is re-sent to
    the next replica on any network-level failure.  Responses --
    including structured ``ok: false`` error bodies -- are returned
    from whichever replica first produces one.

    Endpoints whose circuit breaker is open are demoted below every
    available endpoint (still last-resort candidates: if *every*
    circuit is open the call probes them rather than failing with
    zero attempts).  Every outcome feeds the breaker: unreachable
    attempts count toward opening, any response closes.  A
    ``ServerOverloaded`` rejection is retried after its
    ``retry_after_ms`` hint (capped at ``MAX_RETRY_AFTER_MS``) up
    to ``retry_budget`` times; when the budget runs out the typed
    overload body is returned as the answer.

    Args:
        endpoints: ``host:port`` strings (see
            :func:`repro.serve.router.parse_fleet`).
        document: The JSON request object, sent verbatim on every
            attempt.
        attempt_timeout: Per-attempt deadline in seconds (default:
            ``REPRO_FLEET_ATTEMPT_TIMEOUT``, else 30).
        max_attempts: Cap on attempts per pass (default: one per
            replica).
        breaker: Breaker registry override (default: the
            process-wide :func:`~repro.serve.breaker.fleet_breaker`).
        retry_budget: Overload retries (default:
            ``REPRO_FLEET_RETRY_BUDGET``, else 2).

    Returns:
        ``(status, body, endpoint)`` -- the HTTP status, the body
        exactly as the answering replica sent it, and which replica
        answered.

    Raises:
        FleetUnavailable: When every attempt failed at the network
            level; carries ``(endpoint, detail)`` per attempt.
        SweepConfigError: On an empty endpoint list or malformed
            endpoints/timeouts.
    """
    from repro.serve.router import preference_order

    if not endpoints:
        raise SweepConfigError(
            "fleet_call needs at least one endpoint"
        )
    timeout = resolve_attempt_timeout(attempt_timeout)
    budget = resolve_retry_budget(retry_budget)
    if breaker is None:
        breaker = fleet_breaker()
    order = preference_order(
        fleet_fingerprint(document), endpoints
    )
    retries = 0
    while True:
        available = [
            endpoint for endpoint in order
            if breaker.available(endpoint)
        ]
        ranked = available + [
            endpoint for endpoint in order
            if endpoint not in available
        ]
        if max_attempts is not None:
            ranked = ranked[:max_attempts]
        failures: List[Tuple[str, str]] = []
        answered: Optional[Tuple[int, str, str]] = None
        for attempt, endpoint in enumerate(ranked):
            host, port = parse_endpoint(endpoint)
            try:
                status, body = remote_call(
                    host, port, document, timeout=timeout
                )
            except (OSError, socket.timeout) as error:
                unreachable = ReplicaUnreachable(
                    endpoint, attempt,
                    f"{type(error).__name__}: {error}",
                )
                breaker.record_failure(endpoint)
                failures.append((endpoint, unreachable.detail))
                continue
            breaker.record_success(endpoint)
            answered = (status, body, endpoint)
            break
        if answered is None:
            raise FleetUnavailable(failures)
        status, body, endpoint = answered
        hint_ms = _overload_hint_ms(body)
        if hint_ms is None or retries >= budget:
            return answered
        retries += 1
        time.sleep(min(hint_ms, MAX_RETRY_AFTER_MS) / 1000.0)

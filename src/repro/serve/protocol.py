"""Serving protocol: request/response schemas and shared execution.

One rule makes the serving layer provable: **the server and the CLI
render results through the same functions**.  A ``plan`` request
handled by :class:`repro.serve.app.ServeApp` and a ``python -m repro
plan --json`` run in a cold subprocess both end in
:func:`plan_response` + :func:`canonical_body`, so the serving test
battery can assert the two byte-for-byte -- the PR 4/6 differential-
oracle pattern applied to the service boundary.

Requests are JSON objects::

    {"op": "plan", "point": {"executor": "transfusion", "model":
     "t5", "seq_len": 512, "arch": "cloud", "batch": 4},
     "budget": 16, "deadline_s": null, "no_fallback": false,
     "id": "r1"}

    {"op": "sweep", "points": [{...}, ...], "warm_start": false}
    {"op": "validate", "point": {...}}
    {"op": "stats"}

``deadline_s`` maps to a deterministic search-unit budget **once at
admission** through the PR 5 :data:`~repro.resilience.budget.\
UNITS_PER_SECOND` convention (the tighter of ``budget`` and the
mapped deadline wins), so a deadline biases how much work is
attempted without making the answer host-speed-dependent.

Responses are canonical JSON (sorted keys, compact separators,
``repr``-rendered floats) so identical requests always serialize to
identical bytes.  Every successful ``plan`` response carries an
explicit ``provenance`` (``complete`` / ``budget_exhausted`` /
``fallback:<rung>``); a provably infeasible point comes back
``status: "infeasible"`` with its serialized Table-2 diagnosis; and
any :class:`~repro.runner.errors.SweepError` serializes to a
structured ``ok: false`` error response via the PR 3 failure
round-trip.

Execution wraps the sweep engine's chain runner
(:func:`repro.runner.chain._run_chain`) inside an environment
scope that pins the request's budget knobs (clearing any ambient
``REPRO_BUDGET`` / ``REPRO_DEADLINE`` first), so a long-lived server
process can serve differently-budgeted requests back to back without
leakage -- and so the disk-cache keys the worker computes match the
ones a budgeted CLI run would.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.wire import canonical_json, point_to_dict
from repro.resilience.budget import (
    ENV_BUDGET,
    ENV_DEADLINE,
    ENV_NO_FALLBACK,
    PROVENANCE_COMPLETE,
    UNITS_PER_SECOND,
    worst_provenance,
)
from repro.runner.cache import stable_hash
from repro.runner.chain import (
    _INFEASIBLE_KEY,
    STATUS_INFEASIBLE,
    STATUS_OK,
    GridPoint,
    _chains,
    _is_infeasible_document,
    _run_chain,
)
from repro.runner.errors import SweepConfigError, SweepError

if TYPE_CHECKING:
    from repro.runner.result import SweepResult

#: Protocol schema version, carried in every request and response.
PROTOCOL_VERSION = 1

#: Operations a server accepts.  ``stats`` is server-only (it reads
#: live counters); the other three execute anywhere.
OPS = ("plan", "sweep", "validate", "stats")

_POINT_FIELDS = {
    "executor": str,
    "model": str,
    "seq_len": int,
    "arch": str,
    "batch": int,
    "causal": bool,
}
_REQUIRED_POINT_FIELDS = ("executor", "model", "seq_len", "arch")

_REQUEST_FIELDS = (
    "v", "id", "op", "point", "points", "budget", "deadline_s",
    "no_fallback", "warm_start",
)


class ServeProtocolError(SweepConfigError):
    """A request that does not parse against the serving schema.

    A :class:`~repro.runner.errors.SweepConfigError` (and therefore a
    ``ValueError``), so it serializes through the same structured
    error path as every other typed failure.
    """


@dataclass(frozen=True)
class ServeRequest:
    """One parsed, admission-normalized serving request.

    Attributes:
        op: ``plan`` / ``sweep`` / ``validate`` / ``stats``.
        points: The grid points (one for ``plan`` / ``validate``).
        budget: Effective deterministic search-unit budget --
            ``deadline_s`` already folded in via
            :func:`effective_budget`; ``None`` is unbudgeted.
        no_fallback: Disable the graceful-degradation ladder.
        warm_start: ``sweep`` only -- thread TileSeek warm starts.
        request_id: Opaque client correlation id, echoed verbatim.
    """

    op: str
    points: Tuple[GridPoint, ...] = ()
    budget: Optional[int] = None
    no_fallback: bool = False
    warm_start: bool = False
    request_id: Optional[str] = None


def deadline_units(seconds: float) -> int:
    """Map a per-request deadline to search units (PR 5 convention).

    The fixed :data:`UNITS_PER_SECOND` rate is applied once; no clock
    is ever re-read, so the same deadline yields the same budget --
    and therefore the same bytes -- on any host.
    """
    return max(1, int(seconds * UNITS_PER_SECOND))


def effective_budget(
    budget: Optional[int], deadline_s: Optional[float]
) -> Optional[int]:
    """Fold an explicit budget and an advisory deadline; tighter wins."""
    if deadline_s is not None and deadline_s > 0:
        units = deadline_units(deadline_s)
        budget = units if budget is None else min(budget, units)
    return budget


def _type_name(value: Any) -> str:
    return type(value).__name__


def parse_point(document: Any) -> GridPoint:
    """Parse one grid-point object out of a request.

    Raises:
        ServeProtocolError: On missing/unknown fields or wrong types,
            naming the offending field.
    """
    if not isinstance(document, Mapping):
        raise ServeProtocolError(
            f"point must be an object, got {_type_name(document)}"
        )
    unknown = sorted(set(document) - set(_POINT_FIELDS))
    if unknown:
        raise ServeProtocolError(
            f"unknown point field(s) {unknown}; choose from "
            f"{sorted(_POINT_FIELDS)}"
        )
    for name in _REQUIRED_POINT_FIELDS:
        if name not in document:
            raise ServeProtocolError(
                f"point is missing required field {name!r}"
            )
    values: Dict[str, Any] = {}
    for name, value in document.items():
        expected = _POINT_FIELDS[name]
        if expected is int and isinstance(value, bool):
            raise ServeProtocolError(
                f"point field {name!r} must be an integer, got a "
                f"bool"
            )
        if not isinstance(value, expected):
            raise ServeProtocolError(
                f"point field {name!r} must be "
                f"{expected.__name__}, got {_type_name(value)}"
            )
        values[name] = value
    for name in ("seq_len", "batch"):
        if name in values and values[name] < 1:
            raise ServeProtocolError(
                f"point field {name!r} must be >= 1, got "
                f"{values[name]}"
            )
    return GridPoint(**values)


def parse_request(document: Any) -> ServeRequest:
    """Parse and admission-normalize one request object.

    Raises:
        ServeProtocolError: On anything that does not match the
            schema -- unknown ops or fields, wrong types, empty
            sweeps, non-positive budgets/deadlines.
    """
    if not isinstance(document, Mapping):
        raise ServeProtocolError(
            f"request must be a JSON object, got "
            f"{_type_name(document)}"
        )
    unknown = sorted(set(document) - set(_REQUEST_FIELDS))
    if unknown:
        raise ServeProtocolError(
            f"unknown request field(s) {unknown}; choose from "
            f"{sorted(_REQUEST_FIELDS)}"
        )
    version = document.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ServeProtocolError(
            f"unsupported protocol version {version!r} (this server "
            f"speaks v{PROTOCOL_VERSION})"
        )
    op = document.get("op")
    if op not in OPS:
        raise ServeProtocolError(
            f"unknown op {op!r}; choose from {sorted(OPS)}"
        )
    request_id = document.get("id")
    if request_id is not None and not isinstance(
        request_id, (str, int)
    ):
        raise ServeProtocolError(
            f"id must be a string or integer, got "
            f"{_type_name(request_id)}"
        )
    budget = document.get("budget")
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int):
            raise ServeProtocolError(
                f"budget must be an integer, got "
                f"{_type_name(budget)}"
            )
        if budget < 1:
            raise ServeProtocolError(
                f"budget must be >= 1 search unit, got {budget}"
            )
    deadline = document.get("deadline_s")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(
            deadline, (int, float)
        ):
            raise ServeProtocolError(
                f"deadline_s must be a number, got "
                f"{_type_name(deadline)}"
            )
        if deadline <= 0:
            raise ServeProtocolError(
                f"deadline_s must be > 0, got {deadline}"
            )
    for flag in ("no_fallback", "warm_start"):
        if not isinstance(document.get(flag, False), bool):
            raise ServeProtocolError(
                f"{flag} must be a boolean, got "
                f"{_type_name(document[flag])}"
            )
    points: Tuple[GridPoint, ...] = ()
    if op in ("plan", "validate"):
        if "points" in document:
            raise ServeProtocolError(
                f"op {op!r} takes a single 'point', not 'points'"
            )
        if "point" not in document:
            raise ServeProtocolError(f"op {op!r} requires 'point'")
        points = (parse_point(document["point"]),)
    elif op == "sweep":
        if "point" in document:
            raise ServeProtocolError(
                "op 'sweep' takes 'points', not a single 'point'"
            )
        raw = document.get("points")
        if not isinstance(raw, Sequence) or isinstance(raw, str):
            raise ServeProtocolError(
                "op 'sweep' requires a 'points' array"
            )
        if not raw:
            raise ServeProtocolError(
                "op 'sweep' requires at least one point"
            )
        points = tuple(parse_point(entry) for entry in raw)
    elif "point" in document or "points" in document:
        raise ServeProtocolError(
            f"op {op!r} takes no point arguments"
        )
    return ServeRequest(
        op=op,
        points=points,
        budget=effective_budget(budget, deadline),
        no_fallback=bool(document.get("no_fallback", False)),
        warm_start=bool(document.get("warm_start", False)),
        request_id=(
            str(request_id) if request_id is not None else None
        ),
    )


def request_fingerprint(
    request: ServeRequest, budget: Optional[int] = None
) -> str:
    """Coalescing/LRU identity of one request.

    The correlation ``id`` is excluded (two clients asking the same
    question share one answer); everything that determines the
    response body is included.  ``budget`` overrides the request's
    own (admission control keys a load-shed request by the budget it
    actually ran under).
    """
    if budget is None:
        budget = request.budget
    return stable_hash({
        "op": request.op,
        "points": [
            point_to_dict(point) for point in request.points
        ],
        "budget": budget,
        "no_fallback": request.no_fallback,
        "warm_start": request.warm_start,
    })


def canonical_body(document: Mapping[str, Any]) -> str:
    """The canonical response rendering: identical documents always
    produce identical bytes (sorted keys, compact separators,
    ``repr`` floats)."""
    return canonical_json(dict(document))


# ----------------------------------------------------------------------
# Execution (runs in a pool worker, or inline in the CLI process)
# ----------------------------------------------------------------------
def _scoped_env(
    budget: Optional[int],
    no_fallback: bool,
    extra_env: Optional[Mapping[str, str]],
) -> Dict[str, Optional[str]]:
    """The environment pinning one request's knobs during execution.

    ``None`` values mean *unset*: the request's budget replaces (or
    clears) any ambient ``REPRO_BUDGET``, and ``REPRO_DEADLINE`` is
    always cleared -- the deadline was folded into units once at
    admission and must not be re-applied against a worker-side clock.
    """
    env: Dict[str, Optional[str]] = {
        ENV_BUDGET: str(budget) if budget is not None else None,
        ENV_DEADLINE: None,
        ENV_NO_FALLBACK: "1" if no_fallback else None,
    }
    for key, value in (extra_env or {}).items():
        env[key] = value
    return env


class _EnvScope:
    """Apply/restore a ``{name: value-or-None}`` environment patch."""

    def __init__(self, env: Mapping[str, Optional[str]]) -> None:
        self._env = dict(env)
        self._saved: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "_EnvScope":
        for key, value in self._env.items():
            self._saved[key] = os.environ.get(key)
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def execute_chain(
    chain: Sequence[GridPoint],
    warm_start: bool,
    budget: Optional[int],
    no_fallback: bool,
    chain_index: int = 0,
    indices: Optional[Sequence[int]] = None,
    attempt: int = 0,
    serial: bool = True,
    extra_env: Optional[Mapping[str, str]] = None,
) -> List[Tuple[Optional[str], Dict[str, Any]]]:
    """Price one chain under a request-scoped environment.

    A thin wrapper around the sweep engine's chain runner: the same
    warm-start threading, fault-injection sites, typed failures and
    cache documents -- which is what makes a served plan
    byte-identical to a CLI one.  Returns the chain's
    ``(cache key, serialized document)`` pairs.
    """
    with _EnvScope(_scoped_env(budget, no_fallback, extra_env)):
        return _run_chain(
            chain, warm_start, chain_index, attempt,
            indices, serial,
        )


def execute_validate(
    point: GridPoint,
    budget: Optional[int],
    no_fallback: bool,
    extra_env: Optional[Mapping[str, str]] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Audit one point; returns (audit document, report document)."""
    from repro.core.serialize import (
        audit_report_to_dict,
        report_to_dict,
    )
    from repro.validate.runner import validate_point

    with _EnvScope(_scoped_env(budget, no_fallback, extra_env)):
        audit, report = validate_point(point)
    return audit_report_to_dict(audit), report_to_dict(report)


def sweep_chain_layout(
    points: Sequence[GridPoint],
) -> Tuple[List[List[GridPoint]], List[List[int]]]:
    """The sweep engine's chain grouping for a request's points.

    Returns ``(chains, indices)`` exactly as :func:`run_grid` derives
    them -- per-family chains with sequence lengths ascending, and
    each chain point's first global input index (the fault-injection
    ``point=`` matcher space).
    """
    chains = _chains(points)
    first_index: Dict[GridPoint, int] = {}
    for position, point in enumerate(points):
        first_index.setdefault(point, position)
    indices = [
        [first_index[point] for point in chain] for chain in chains
    ]
    return chains, indices


def assemble_sweep_result(
    points: Sequence[GridPoint],
    chains: Sequence[Sequence[GridPoint]],
    chain_results: Sequence[
        Sequence[Tuple[Optional[str], Dict[str, Any]]]
    ],
) -> SweepResult:
    """Fold per-chain documents into a :class:`SweepResult`.

    Mirrors the tail of :func:`run_grid` for the all-computed case:
    every point is ``ok`` or ``infeasible`` (chain-level failures
    surface as typed error responses before assembly is reached).
    """
    from repro.core.serialize import (
        failure_from_dict,
        report_from_dict,
    )
    from repro.runner.errors import InfeasiblePoint
    from repro.runner.result import SweepResult

    reports: Dict[GridPoint, Any] = {}
    statuses: Dict[GridPoint, str] = {}
    infeasible: Dict[GridPoint, InfeasiblePoint] = {}
    for chain, results in zip(chains, chain_results):
        for point, (_, document) in zip(chain, results):
            if _is_infeasible_document(document):
                verdict = failure_from_dict(
                    document[_INFEASIBLE_KEY]
                )
                if not isinstance(verdict, InfeasiblePoint):
                    verdict = InfeasiblePoint(
                        str(verdict), {}, point
                    )
                infeasible[point] = verdict
                statuses[point] = STATUS_INFEASIBLE
            else:
                reports[point] = report_from_dict(document)
                statuses[point] = STATUS_OK
    ordered = list(dict.fromkeys(points))
    return SweepResult(ordered, reports, statuses, {}, infeasible)


# ----------------------------------------------------------------------
# Response documents (shared by server and CLI)
# ----------------------------------------------------------------------
def _envelope(
    op: str,
    request_id: Optional[str],
    budget: Optional[int],
) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "v": PROTOCOL_VERSION, "op": op, "ok": True,
    }
    if request_id is not None:
        document["id"] = request_id
    if budget is not None:
        document["budget"] = budget
    return document


def plan_response(
    request: ServeRequest,
    results: Sequence[Tuple[Optional[str], Dict[str, Any]]],
    budget: Optional[int] = None,
) -> Dict[str, Any]:
    """The response document for one ``plan`` request.

    ``status: "ok"`` carries the serialized report plus an explicit
    provenance; ``status: "infeasible"`` carries the serialized
    Table-2 diagnosis (a terminal answer, still ``ok: true``).

    ``budget`` is the *effective* budget the answer was computed
    under.  A load-shed request reports the degraded budget here --
    the body is byte-identical to one computed for an explicit
    request at that budget, which is exactly what the fingerprint
    says.
    """
    if budget is None:
        budget = request.budget
    document = _envelope("plan", request.request_id, budget)
    _, report_document = results[0]
    if _is_infeasible_document(report_document):
        document["status"] = STATUS_INFEASIBLE
        document["infeasible"] = report_document[_INFEASIBLE_KEY]
    else:
        document["status"] = STATUS_OK
        document["report"] = report_document
        document["provenance"] = report_document.get(
            "provenance", PROVENANCE_COMPLETE
        )
    return document


def sweep_response(
    request: ServeRequest,
    result: SweepResult,
    budget: Optional[int] = None,
) -> Dict[str, Any]:
    """The response document for one ``sweep`` request."""
    from repro.core.serialize import sweep_result_to_dict

    if budget is None:
        budget = request.budget
    document = _envelope("sweep", request.request_id, budget)
    document["status"] = STATUS_OK
    document["counts"] = result.counts()
    document["provenance"] = worst_provenance(
        *(report.provenance for report in result.values())
    )
    document["result"] = sweep_result_to_dict(result)
    return document


def validate_response(
    request: ServeRequest,
    audit_document: Dict[str, Any],
    report_document: Dict[str, Any],
    budget: Optional[int] = None,
) -> Dict[str, Any]:
    """The response document for one ``validate`` request."""
    if budget is None:
        budget = request.budget
    document = _envelope("validate", request.request_id, budget)
    document["status"] = STATUS_OK
    document["passed"] = audit_document["passed"]
    document["audit"] = audit_document
    document["report"] = report_document
    document["provenance"] = report_document.get(
        "provenance", PROVENANCE_COMPLETE
    )
    return document


def error_response(
    error: Exception,
    op: Optional[str] = None,
    request_id: Optional[str] = None,
    status: str = "error",
) -> Dict[str, Any]:
    """A structured error response for any typed failure.

    Non-:class:`SweepError` exceptions degrade to a generic
    ``SweepError`` entry via the PR 3 failure serialization -- a
    response is always produced; the server never hangs a client on
    an exception.  ``status`` lets non-fault rejections (bounded
    admission's ``overloaded``) stay distinguishable from execution
    errors without a second envelope shape.
    """
    from repro.core.serialize import failure_to_dict

    if not isinstance(error, SweepError):
        error = SweepError(
            f"{type(error).__name__}: {error}"
        )
    document: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "status": status,
        "error": failure_to_dict(error),
    }
    if op is not None:
        document["op"] = op
    if request_id is not None:
        document["id"] = request_id
    return document


def execute_request(
    request: ServeRequest,
    extra_env: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """Execute one request inline (the CLI's local path).

    The single-process reference implementation of the server's
    fan-out: same chain layout, same scoped environment, same
    response builders -- the serving differential tests compare the
    two byte for byte.
    """
    if request.op == "plan":
        results = execute_chain(
            list(request.points), False, request.budget,
            request.no_fallback, 0, [0], 0, True, extra_env,
        )
        return plan_response(request, results)
    if request.op == "sweep":
        chains, indices = sweep_chain_layout(request.points)
        chain_results = [
            execute_chain(
                chain, request.warm_start, request.budget,
                request.no_fallback, chain_id, indices[chain_id],
                0, True, extra_env,
            )
            for chain_id, chain in enumerate(chains)
        ]
        result = assemble_sweep_result(
            request.points, chains, chain_results
        )
        return sweep_response(request, result)
    if request.op == "validate":
        audit_document, report_document = execute_validate(
            request.points[0], request.budget,
            request.no_fallback, extra_env,
        )
        return validate_response(
            request, audit_document, report_document
        )
    raise ServeProtocolError(
        f"op {request.op!r} is only served by a running server"
    )

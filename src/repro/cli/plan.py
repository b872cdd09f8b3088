"""``repro plan``: price one grid point through the serving protocol.

Locally, or against a running server (``--remote host:port``).  With
``--json`` the canonical response body is printed verbatim, so local,
remote and served answers are byte-comparable.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import add_workload_args, positive_int
from repro.runner.chain import GridPoint
from repro.runner.errors import ReplicaUnreachable, SweepError
from repro.serve.protocol import (
    ServeRequest,
    canonical_body,
    effective_budget,
    error_response,
    execute_request,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``plan`` verb's arguments."""
    add_workload_args(parser)
    parser.add_argument(
        "--executor", default="transfusion",
        help="executor registry name",
    )
    parser.add_argument(
        "--budget", type=positive_int, default=None, metavar="N",
        help="deterministic search-unit budget",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "advisory deadline mapped once to a deterministic "
            "search-unit budget (tighter of this and --budget wins)"
        ),
    )
    parser.add_argument(
        "--no-fallback", action="store_true",
        help="error instead of degrading on budget exhaustion",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the canonical response body verbatim",
    )
    parser.add_argument(
        "--remote", default="", metavar="HOST:PORT",
        help="send the request to a running `repro serve` instead",
    )
    parser.add_argument(
        "--id", default="", metavar="ID",
        help="correlation id echoed in the response envelope",
    )


def _plan_request(args: argparse.Namespace) -> ServeRequest:
    """Build the admission-normalized ServeRequest for ``plan``."""
    point = GridPoint(
        executor=args.executor, model=args.model, seq_len=args.seq,
        arch=args.arch, batch=args.batch, causal=args.causal,
    )
    return ServeRequest(
        op="plan",
        points=(point,),
        budget=effective_budget(args.budget, args.deadline),
        no_fallback=args.no_fallback,
        request_id=args.id or None,
    )


def run(args: argparse.Namespace) -> int:
    """Price one point through the serving protocol."""
    request = _plan_request(args)
    if args.remote:
        body = _forward(args, request)
        document = json.loads(body)
    else:
        try:
            document = execute_request(request)
        except (SweepError, RuntimeError) as error:
            document = error_response(
                error, "plan", request.request_id
            )
        body = None
    if args.json:
        print(canonical_body(document) if body is None else body)
    else:
        _print_plan_summary(document)
    return 0 if document.get("ok") else 1


def _forward(args: argparse.Namespace, request: ServeRequest) -> str:
    """The response body from ``--remote``.

    A failed call answers with the typed error envelope a server
    would send, never a traceback.
    """
    # The client stack loads only when a request leaves the process.
    from repro.serve.client import (
        parse_endpoint,
        remote_call,
        serve_request_to_dict,
    )

    wire = serve_request_to_dict(request)
    host, port = parse_endpoint(args.remote)
    try:
        _, body = remote_call(host, port, wire)
    except OSError as error:
        # A dead or wedged server is a typed, printable error.
        body = canonical_body(error_response(
            ReplicaUnreachable(
                args.remote, 0, f"{type(error).__name__}: {error}",
            ),
            "plan", request.request_id,
        ))
    return body


def _print_plan_summary(document) -> None:
    """Human rendering of one plan response document."""
    status = document.get("status", "error")
    if status == "ok":
        report = document["report"]
        print(
            f"plan ok: provenance={document['provenance']}"
            + (
                f" budget={document['budget']}"
                if "budget" in document else ""
            )
        )
        for key in sorted(report):
            if isinstance(report[key], (int, float, str)):
                print(f"  {key}: {report[key]}")
    elif status == "infeasible":
        print("plan infeasible:")
        diagnosis = document.get("infeasible", {})
        for key in sorted(diagnosis):
            if isinstance(diagnosis[key], (int, float, str)):
                print(f"  {key}: {diagnosis[key]}")
    else:
        error = document.get("error", {})
        # Typed failures carry their evidence field-by-field, not a
        # "message"; render whichever shape arrived.
        detail = error.get("message") or ", ".join(
            f"{key}={error[key]}"
            for key in sorted(error)
            if key != "type"
        )
        print(
            f"plan error: {error.get('type', 'unknown')}"
            + (f": {detail}" if detail else ""),
            file=sys.stderr,
        )


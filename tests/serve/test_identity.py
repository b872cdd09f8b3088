"""Serving-vs-CLI differential tests: served bytes == cold CLI bytes.

The PR 4/6 differential-oracle pattern applied to the service
boundary: for a seeded grid covering a complete point, a
budget-exhausted point, a fallback-degraded point and a provably
infeasible point, the body a long-lived server returns must be
byte-identical to what ``python -m repro plan --json`` / ``sweep
--json`` print from a cold subprocess.  Identity is the whole
serving contract -- the LRU, the coalescer and the pool must be
invisible in the bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner.pool import InlineWorkerPool
from repro.serve.app import ServeApp
from repro.serve.protocol import execute_request, parse_request
from tests.serve.conftest import POINT, body_of, plan_request, run

SRC = Path(__file__).resolve().parents[2] / "src"

#: Subprocess driver: same shrunken-``edge`` patch as the in-process
#: ``shrunken_edge`` fixture, applied before the CLI runs, so both
#: sides of the differential see the identical architecture.
DRIVER = """
import dataclasses, sys
import repro.runner.chain as chain
from repro.arch.spec import named_architecture

def lookup(name):
    arch = named_architecture(name)
    if name == "edge":
        arch = dataclasses.replace(
            arch,
            buffer=dataclasses.replace(
                arch.buffer, capacity_bytes=4096
            ),
        )
    return arch

chain.named_architecture = lookup
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""

#: Budgets chosen (empirically, deterministic by construction) to
#: pin each provenance class for transfusion/t5/512/cloud/B=4.
BUDGET_COMPLETE = None
BUDGET_EXHAUSTED = 4000   # -> provenance "budget_exhausted"
BUDGET_FALLBACK = 64      # -> provenance "fallback:<rung>"


def cold_cli(*args):
    """Run the CLI in a cold subprocess; returns (exit, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    completed = subprocess.run(
        [sys.executable, "-c", DRIVER, *args],
        capture_output=True, text=True, env=env, timeout=600,
    )
    return completed.returncode, completed.stdout.rstrip("\n")


def plan_args(point, budget=None, deadline=None):
    args = [
        "plan", "--json",
        "--executor", point["executor"],
        "--model", point["model"],
        "--seq", str(point["seq_len"]),
        "--arch", point["arch"],
        "--batch", str(point["batch"]),
    ]
    if budget is not None:
        args += ["--budget", str(budget)]
    if deadline is not None:
        args += ["--deadline", str(deadline)]
    return args


def served_body(document):
    """Serve one request on a fresh inline-pool app."""
    app = ServeApp(InlineWorkerPool(), pressure=0)
    try:
        return body_of(app, document)
    finally:
        app.close()


@pytest.mark.parametrize("budget, expected_provenance", [
    (BUDGET_COMPLETE, "complete"),
    (BUDGET_EXHAUSTED, "budget_exhausted"),
    (BUDGET_FALLBACK, "fallback:first_order"),
])
def test_served_plan_matches_cold_cli(
    budget, expected_provenance
):
    request = plan_request(budget=budget)
    if budget is None:
        del request["budget"]
    served = served_body(request)
    assert json.loads(served)["provenance"] == expected_provenance
    code, cold = cold_cli(*plan_args(POINT, budget=budget))
    assert code == 0
    assert served == cold


@pytest.mark.parametrize("budget", [BUDGET_COMPLETE, BUDGET_FALLBACK])
def test_warm_cli_hit_after_cold_miss_matches_served(
    budget, tmp_path, monkeypatch
):
    """A CLI plan served from the disk cache prints the same bytes as
    the miss that filled it, and both equal the served body."""
    request = plan_request(budget=budget)
    if budget is None:
        del request["budget"]
    served = served_body(request)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reports = tmp_path / "report"
    code, cold = cold_cli(*plan_args(POINT, budget=budget))
    assert code == 0
    filled = sorted(reports.rglob("*.json"))
    assert filled
    code, warm = cold_cli(*plan_args(POINT, budget=budget))
    assert code == 0
    # A hit writes nothing: the report entries are exactly the miss's.
    assert sorted(reports.rglob("*.json")) == filled
    assert served == cold == warm


def test_served_infeasible_diagnosis_matches_cold_cli(
    shrunken_edge,
):
    point = dict(POINT, arch="edge")
    served = served_body({"op": "plan", "point": point})
    document = json.loads(served)
    assert document["ok"] is True
    assert document["status"] == "infeasible"
    assert document["infeasible"]["type"] == "InfeasiblePoint"
    assert document["infeasible"]["diagnosis"]["overflow_words"] > 0
    code, cold = cold_cli(*plan_args(point))
    assert code == 0
    assert served == cold


def test_served_sweep_matches_cold_cli(shrunken_edge):
    """A mixed sweep -- ok chain + infeasible point -- over the wire.

    Point order replicates ``repro.cli.sweep.run``'s grid expansion
    (models x archs x executors x seqs), so the two documents are
    comparable field for field -- and therefore byte for byte.
    """
    points = [
        dict(POINT, seq_len=seq, arch=arch)
        for arch in ("cloud", "edge")
        for seq in (512, 1024)
    ]
    served = served_body({
        "op": "sweep", "points": points,
        "budget": BUDGET_FALLBACK, "warm_start": True,
    })
    document = json.loads(served)
    assert document["ok"] is True
    assert document["counts"] == {"ok": 2, "infeasible": 2}
    code, cold = cold_cli(
        "sweep", "--json",
        "--models", "t5",
        "--seqs", "512", "1024",
        "--archs", "cloud", "edge",
        "--executors", "transfusion",
        "--batch", "4",
        "--budget", str(BUDGET_FALLBACK),
        "--warm-start",
    )
    assert code == 0
    assert served == cold


def test_deadline_request_is_deterministic_against_cli():
    """``deadline_s`` folds to units once: served and cold CLI agree
    byte for byte, and equal the explicit-budget answer."""
    deadline = BUDGET_EXHAUSTED / 50_000   # 4000 units
    served = served_body(plan_request(
        budget=None, deadline_s=deadline
    ))
    assert json.loads(served)["budget"] == BUDGET_EXHAUSTED
    code, cold = cold_cli(*plan_args(POINT, deadline=deadline))
    assert code == 0
    assert served == cold
    explicit = served_body(plan_request(budget=BUDGET_EXHAUSTED))
    assert served == explicit


def test_served_validate_matches_local_protocol_execution():
    request = {"op": "validate", "point": dict(POINT)}
    served = served_body(request)
    local = execute_request(parse_request(request))
    from repro.serve.protocol import canonical_body

    assert served == canonical_body(local)
    assert json.loads(served)["passed"] is True


def test_http_round_trip_matches_cold_cli():
    """The full stack -- HTTP transport included -- stays identical."""
    import asyncio

    from repro.serve.client import remote_call
    from repro.serve.transport import start_http_server

    request = plan_request(budget=BUDGET_FALLBACK)
    app = ServeApp(InlineWorkerPool(), pressure=0)

    async def fetch():
        server = await start_http_server(app, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        status, body = await loop.run_in_executor(
            None, remote_call, "127.0.0.1", port, request
        )
        server.close()
        await server.wait_closed()
        return status, body

    try:
        status, body = run(fetch())
    finally:
        app.close()
    assert status == 200
    code, cold = cold_cli(
        *plan_args(POINT, budget=BUDGET_FALLBACK)
    )
    assert code == 0
    assert body == cold

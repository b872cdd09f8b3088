"""Fault-injection serving battery: typed responses, never hangs.

Reuses the PR 3 ``REPRO_FAULTS`` harness against a running app: a
worker crash mid-request must come back as a structured
``WorkerCrash`` error response (not a hang), the pool must respawn,
and a retried identical request must succeed *and match the cold
answer byte for byte* -- the per-fingerprint attempt counter is what
advances the fault clock past one-shot ``attempt=0`` rules.
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.runner.pool import InlineWorkerPool, WorkerPool
from repro.serve.app import ServeApp
from repro.serve.lru import SaltedLRU
from repro.serve.protocol import ServeRequest
from tests.serve.conftest import (
    POINT,
    body_of,
    doc_of,
    plan_request,
    run,
)

#: A served validate request for the battery's canonical point.
VALIDATE = {"op": "validate", "point": dict(POINT)}


def exiting_validate(*args):
    """Stands in for ``execute_validate``: the worker dies."""
    os._exit(13)


def raising_validate(*args):
    """Stands in for ``execute_validate``: the job raises."""
    raise ValueError("audit exploded")


def cold_answer():
    """The no-faults answer for the canonical plan request."""
    app = ServeApp(InlineWorkerPool(), pressure=0)
    try:
        return body_of(app, plan_request())
    finally:
        app.close()


class TestSerialFaults:
    """Inline-pool faults take the engine's cooperative serial paths."""

    def test_worker_exit_returns_typed_crash_then_recovers(
        self, monkeypatch
    ):
        cold = cold_answer()
        monkeypatch.setenv("REPRO_FAULTS", "exit:chain=0,attempt=0")
        app = ServeApp(InlineWorkerPool(), pressure=0)
        try:
            first = doc_of(app, plan_request(id="r1"))
            assert first["ok"] is False
            assert first["status"] == "error"
            assert first["error"]["type"] == "WorkerCrash"
            assert first["id"] == "r1"
            assert app.pool.generation == 1
            retry = body_of(app, plan_request())
        finally:
            app.close()
        assert json.loads(retry)["ok"] is True
        assert retry == cold
        assert app.errors == 1

    def test_crash_fault_is_a_point_failure(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "crash:chain=0,attempt=0"
        )
        app = ServeApp(InlineWorkerPool(), pressure=0)
        try:
            first = doc_of(app, plan_request())
            assert first["ok"] is False
            assert first["error"]["type"] == "PointFailure"
            assert first["error"]["attempt"] == 0
            retry = doc_of(app, plan_request())
        finally:
            app.close()
        assert retry["ok"] is True

    def test_hang_fault_maps_to_chain_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang:chain=0,attempt=0")
        app = ServeApp(InlineWorkerPool(), pressure=0)
        try:
            first = doc_of(app, plan_request())
            assert first["ok"] is False
            assert first["error"]["type"] == "ChainTimeout"
            retry = doc_of(app, plan_request())
        finally:
            app.close()
        assert retry["ok"] is True

    def test_error_bodies_are_not_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "exit:chain=0,attempt=0")
        app = ServeApp(
            InlineWorkerPool(), lru=SaltedLRU(8), pressure=0
        )
        try:
            doc_of(app, plan_request())
            assert len(app.lru) == 0
            assert doc_of(app, plan_request())["ok"] is True
            assert len(app.lru) == 1
        finally:
            app.close()

    def test_coalesced_followers_receive_the_error_not_a_hang(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "exit:chain=0,attempt=0")
        app = ServeApp(InlineWorkerPool(), pressure=0)

        async def storm():
            return await asyncio.gather(*[
                app.handle(json.dumps(plan_request()))
                for _ in range(4)
            ])

        try:
            bodies = run(storm())
        finally:
            app.close()
        documents = [json.loads(body) for body in bodies]
        assert all(not d["ok"] for d in documents)
        assert {d["error"]["type"] for d in documents} == {
            "WorkerCrash"
        }
        assert app.searches == 1  # one flight, one injected crash


    def test_raising_validate_is_a_point_failure(self, monkeypatch):
        import repro.serve.app as serve_app

        monkeypatch.setattr(
            serve_app, "execute_validate", raising_validate
        )
        app = ServeApp(InlineWorkerPool(), pressure=0)
        try:
            first = doc_of(app, VALIDATE)
        finally:
            app.close()
        assert first["ok"] is False
        assert first["error"]["type"] == "PointFailure"
        assert app.pool.generation == 0


class TestAttemptCounter:
    """The per-fingerprint attempt table holds failed requests only."""

    def test_successful_misses_leave_no_attempt_entries(self):
        app = ServeApp(InlineWorkerPool(), pressure=0)
        try:
            for seq_len in range(64, 64 + 50):
                point = dict(plan_request()["point"], seq_len=seq_len)
                document = doc_of(app, plan_request(point=point))
                assert document["ok"] is True
        finally:
            app.close()
        assert app.searches == 50
        assert app._attempts == {}

    def test_one_shot_crash_fires_once_and_the_retry_succeeds(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=0,attempt=0")
        app = ServeApp(InlineWorkerPool(), pressure=0)
        try:
            first = doc_of(app, plan_request())
            assert first["error"]["type"] == "PointFailure"
            assert len(app._attempts) == 1
            retry = doc_of(app, plan_request())
            again = doc_of(app, plan_request())
        finally:
            app.close()
        assert retry["ok"] is True
        assert again == retry
        assert app.searches == 2
        assert app.errors == 1
        assert app._attempts == {}


class TestWorkerPoolFaults:
    """A real process pool: ``exit`` kills the worker process."""

    def test_broken_pool_respawns_and_retry_matches_cold(
        self, monkeypatch
    ):
        cold = cold_answer()
        monkeypatch.setenv("REPRO_FAULTS", "exit:chain=0,attempt=0")
        app = ServeApp(WorkerPool(1), pressure=0)
        try:
            first = doc_of(app, plan_request())
            assert first["ok"] is False
            assert first["status"] == "error"
            assert first["error"]["type"] == "WorkerCrash"
            assert app.pool.generation == 1
            retry = body_of(app, plan_request())
        finally:
            app.close()
        assert retry == cold

    def test_dead_validate_worker_is_a_typed_crash_and_respawns(
        self, monkeypatch
    ):
        """A served validate that loses its worker answers the same
        typed WorkerCrash a plan does, and the pool is respawned
        at once, so the next validate succeeds."""
        import repro.serve.app as serve_app

        real = serve_app.execute_validate
        monkeypatch.setattr(
            serve_app, "execute_validate", exiting_validate
        )
        app = ServeApp(WorkerPool(1), pressure=0)
        try:
            first = doc_of(app, VALIDATE)
            assert first["ok"] is False
            assert first["status"] == "error"
            assert first["error"]["type"] == "WorkerCrash"
            assert first["error"]["attempt"] == 0
            assert app.pool.generation == 1
            monkeypatch.setattr(serve_app, "execute_validate", real)
            retry = doc_of(app, VALIDATE)
        finally:
            app.close()
        assert retry["ok"] is True
        assert retry["op"] == "validate"

    def test_wedged_worker_is_bounded_by_the_serve_timeout(
        self, monkeypatch
    ):
        """A hung worker cannot hang the client: the wall-clock
        bound kills and respawns the pool, returning a typed
        ChainTimeout."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "hang:chain=0,attempt=0,seconds=30"
        )
        app = ServeApp(WorkerPool(1), pressure=0, timeout=1.0)
        try:
            first = doc_of(app, plan_request())
            assert first["ok"] is False
            assert first["error"]["type"] == "ChainTimeout"
            assert app.pool.generation == 1
            monkeypatch.delenv("REPRO_FAULTS")
            retry = doc_of(app, plan_request())
        finally:
            app.close()
        assert retry["ok"] is True


class TestLoadShedding:
    def test_pressure_tightens_budgets_instead_of_queueing(self):
        """Under pressure the effective budget drops to shed_budget,
        and the shed answer is byte-identical to an explicit request
        at that budget (same fingerprint, same bytes)."""
        app = ServeApp(
            InlineWorkerPool(), pressure=1, shed_budget=64
        )
        distinct = [
            plan_request(budget=4096),
            {
                "op": "plan",
                "point": dict(
                    plan_request()["point"], seq_len=1024
                ),
                "budget": 4096,
            },
        ]

        async def storm():
            return await asyncio.gather(*[
                app.handle(json.dumps(document))
                for document in distinct
            ])

        try:
            bodies = run(storm())
            shed_documents = [
                json.loads(body) for body in bodies
            ]
            shed_count = app.shed
            # The shed request reports the degraded budget...
            assert shed_count >= 1
            assert any(
                d["budget"] == 64 for d in shed_documents
            )
            # ...and its body equals an explicit 64-unit request.
            for document, body in zip(distinct, bodies):
                if json.loads(body)["budget"] != 64:
                    continue
                explicit = dict(document, budget=64)
                assert body_of(app, explicit) == body
        finally:
            app.close()

    def test_no_shedding_below_the_pressure_threshold(self):
        app = ServeApp(
            InlineWorkerPool(), pressure=8, shed_budget=64
        )
        try:
            document = doc_of(app, plan_request(budget=4096))
        finally:
            app.close()
        assert document["budget"] == 4096
        assert app.shed == 0

    def test_already_tight_budgets_are_not_reshed(self):
        app = ServeApp(
            InlineWorkerPool(), pressure=1, shed_budget=4096
        )
        app._inflight_searches = 5  # simulate standing pressure
        budget, shed = app._admission_budget(
            ServeRequest(op="plan", budget=16)
        )
        app.close()
        assert budget == 16
        assert shed is False

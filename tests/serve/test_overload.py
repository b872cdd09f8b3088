"""Bounded admission: typed overload rejection behind the shedding
ladder.

The contract under test (PR 10, serve tier): beyond
``REPRO_SERVE_QUEUE`` in-flight searches a new search is rejected
with a typed ``ServerOverloaded`` body carrying a deterministic
``retry_after_ms`` -- counted separately from fault-path errors,
never cached, visible in ``/stats`` (conditionally: an unbounded app
keeps its pre-queue stats bytes) and in the serve journal.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.runner.errors import SweepConfigError
from repro.runner.pool import InlineWorkerPool
from repro.serve.app import (
    DEFAULT_RETRY_MS,
    ENV_SERVE_QUEUE,
    ServeApp,
    resolve_queue_bound,
)
from repro.serve.journal import ServeJournal
from tests.serve.conftest import POINT, plan_request, run


def bounded_app(**kwargs):
    kwargs.setdefault("pressure", 0)
    return ServeApp(InlineWorkerPool(), **kwargs)


def other_point_request():
    """A plan request with a distinct fingerprint from
    :func:`plan_request`."""
    return plan_request(point=dict(POINT, seq_len=256))


def hold_and_probe(app, blocked_doc, probe_docs):
    """Hold one search at the execute gate; serve probes meanwhile.

    Returns ``(blocked body, [probe bodies])`` -- the probes are
    served while the blocked search is deterministically in flight.
    """

    async def scenario():
        release = asyncio.Event()
        entered = asyncio.Event()
        real_execute = app._execute
        state = {"held": False}

        async def gated(*args, **kwargs):
            # Only the first search is held at the gate; admitted
            # probes execute normally while it is in flight.
            if not state["held"]:
                state["held"] = True
                entered.set()
                await release.wait()
            return await real_execute(*args, **kwargs)

        app._execute = gated
        blocked = asyncio.create_task(
            app.handle(json.dumps(blocked_doc))
        )
        await entered.wait()
        probes = [
            await app.handle(json.dumps(document))
            for document in probe_docs
        ]
        release.set()
        return await blocked, probes

    return run(scenario())


class TestResolution:
    def test_unset_means_unbounded(self, monkeypatch):
        monkeypatch.delenv(ENV_SERVE_QUEUE, raising=False)
        assert resolve_queue_bound() is None

    def test_env_and_argument(self, monkeypatch):
        monkeypatch.setenv(ENV_SERVE_QUEUE, "4")
        assert resolve_queue_bound() == 4
        assert resolve_queue_bound(2) == 2

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv(ENV_SERVE_QUEUE, "0")
        assert resolve_queue_bound() is None
        assert resolve_queue_bound(0) is None

    def test_bad_env_is_typed(self, monkeypatch):
        monkeypatch.setenv(ENV_SERVE_QUEUE, "many")
        with pytest.raises(SweepConfigError):
            resolve_queue_bound()


class TestRejection:
    def test_overload_body_is_typed_and_deterministic(self):
        app = bounded_app(queue=1)
        try:
            blocked, [rejected] = hold_and_probe(
                app, plan_request(), [other_point_request()]
            )
        finally:
            app.close()
        assert json.loads(blocked)["ok"] is True
        document = json.loads(rejected)
        assert document["ok"] is False
        assert document["status"] == "overloaded"
        assert document["error"]["type"] == "ServerOverloaded"
        assert document["error"]["inflight"] == 1
        assert document["error"]["bound"] == 1
        # overshoot 0 -> base hint, deterministically.
        assert document["error"]["retry_after_ms"] == (
            DEFAULT_RETRY_MS
        )
        assert app.overloaded == 1
        # A rejection is not a fault-path error.
        assert app.errors == 0

    def test_custom_retry_base_scales_the_hint(self):
        app = bounded_app(queue=1, retry_ms=250)
        try:
            _, [rejected] = hold_and_probe(
                app, plan_request(), [other_point_request()]
            )
        finally:
            app.close()
        body = json.loads(rejected)
        assert body["error"]["retry_after_ms"] == 250

    def test_rejections_are_never_cached(self):
        app = bounded_app(queue=1)
        try:
            probe = other_point_request()
            _, [rejected] = hold_and_probe(
                app, plan_request(), [probe]
            )
            assert json.loads(rejected)["status"] == "overloaded"
            # The same request served while idle is a fresh search
            # that succeeds -- the overload body never entered the
            # LRU.
            after = json.loads(run(
                app.handle(json.dumps(probe))
            ))
        finally:
            app.close()
        assert after["ok"] is True
        assert app.searches == 2

    def test_identical_storm_rejections_share_bytes(self):
        app = bounded_app(queue=1)
        try:
            probe = other_point_request()
            _, rejected = hold_and_probe(
                app, plan_request(), [probe, probe]
            )
        finally:
            app.close()
        assert len(set(rejected)) == 1
        assert json.loads(rejected[0])["status"] == "overloaded"
        assert app.overloaded == 2

    def test_rejection_keeps_the_request_id(self):
        app = bounded_app(queue=1)
        try:
            _, [rejected] = hold_and_probe(
                app, plan_request(),
                [dict(other_point_request(), id="req-9")],
            )
        finally:
            app.close()
        assert json.loads(rejected)["id"] == "req-9"

    def test_unbounded_app_never_rejects(self):
        app = bounded_app()
        try:
            assert app.queue is None
            _, [served] = hold_and_probe(
                app, plan_request(), [other_point_request()]
            )
        finally:
            app.close()
        assert json.loads(served)["ok"] is True
        assert app.overloaded == 0


class TestStatsAndJournal:
    def test_queue_stats_block_is_conditional(self):
        unbounded = bounded_app()
        try:
            assert "queue" not in unbounded.stats_response()
        finally:
            unbounded.close()
        app = bounded_app(queue=2)
        try:
            _, [rejected, _ok] = hold_and_probe(
                app, plan_request(),
                [other_point_request(),
                 plan_request(point=dict(POINT, seq_len=128))],
            )
            stats = app.stats_response()
        finally:
            app.close()
        # queue=2 admits the probe (1 in flight < 2): nothing was
        # rejected, but the block is present and high_water counted.
        assert stats["queue"]["bound"] == 2
        assert stats["queue"]["overloaded"] == app.overloaded
        assert stats["queue"]["high_water"] == 2

    def test_high_water_and_counts_under_rejection(self):
        app = bounded_app(queue=1)
        try:
            hold_and_probe(
                app, plan_request(), [other_point_request()]
            )
            stats = app.stats_response()
        finally:
            app.close()
        assert stats["queue"] == {
            "bound": 1, "overloaded": 1, "high_water": 1,
        }

    def test_journal_records_overloaded_lines(self, tmp_path):
        journal = ServeJournal(tmp_path / "serve.jsonl")
        app = bounded_app(queue=1, journal=journal)
        try:
            hold_and_probe(
                app, plan_request(), [other_point_request()]
            )
        finally:
            app.close()
        lines = journal.load()
        overloaded = [
            line for line in lines
            if line["source"] == "overloaded"
        ]
        assert len(overloaded) == 1
        assert overloaded[0]["status"] == "overloaded"
        assert "fingerprint" in overloaded[0]


class TestTransport503:
    def test_overloaded_body_maps_to_503(self):
        """HTTP carries the typed rejection as 503 Service
        Unavailable -- distinct from fault-path 400s -- without
        touching the body bytes."""
        from repro.runner.errors import ServerOverloaded
        from repro.serve.protocol import (
            canonical_body,
            error_response,
        )
        from repro.serve.transport import start_http_server

        app = bounded_app(queue=1)
        rejection = canonical_body(error_response(
            ServerOverloaded(1, 1, DEFAULT_RETRY_MS),
            "plan", status="overloaded",
        ))

        async def always_overloaded(document):
            return rejection

        app.handle = always_overloaded

        async def scenario():
            server = await start_http_server(
                app, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                None, _post, port, plan_request()
            )
            server.close()
            await server.wait_closed()
            return result

        try:
            status, body = run(scenario())
        finally:
            app.close()
        assert status == 503
        assert body == rejection


def _post(port, document):
    import http.client

    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=60
    )
    try:
        connection.request(
            "POST", "/v1", body=json.dumps(document)
        )
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


class TestHealthz:
    def test_health_reports_cache_pressure(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "100000")
        app = bounded_app()
        try:
            health = app.health_response()
        finally:
            app.close()
        cache = health["cache"]
        assert cache["enabled"] is True
        assert cache["max_bytes"] == 100000
        assert cache["brownout"] is False
        assert cache["bytes"] >= 0
        assert cache["entries"] >= 0
        assert cache["quarantined"] == 0

    def test_health_with_cache_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        app = bounded_app()
        try:
            health = app.health_response()
        finally:
            app.close()
        assert health["cache"] == {"enabled": False}

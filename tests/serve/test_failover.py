"""Failover battery: dead, hung and half-dead replicas.

The client-side half of the fleet contract: ``fleet_call`` walks the
fingerprint's deterministic preference order with a per-attempt
deadline, folds every network-level failure into typed evidence, and
returns the first real answer -- byte-identical no matter which
replica produced it.  ``plan --remote`` against a dead server is a
typed, printable error, never a traceback and never a hang.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.runner.errors import (
    FleetUnavailable,
    ReplicaUnreachable,
    SweepConfigError,
)
from repro.runner.pool import InlineWorkerPool
from repro.serve.app import ServeApp
from repro.serve.client import (
    DEFAULT_ATTEMPT_TIMEOUT,
    fleet_call,
    resolve_attempt_timeout,
)
from repro.serve.transport import start_http_server
from tests.serve.conftest import plan_request, run


def free_port():
    """A port that was just free -- connecting to it gets refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class FakeReplica:
    """A socket-level imposter for the ugly failure modes.

    ``mode="hang"`` accepts connections and never answers;
    ``mode="torn"`` reads the request, sends half an HTTP response
    and drops the connection (a replica killed mid-write).
    """

    def __init__(self, mode):
        self.mode = mode
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(4)
        self.listener.settimeout(10)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self._conns = []
        self.thread = threading.Thread(
            target=self._serve, daemon=True
        )
        self.thread.start()

    @property
    def endpoint(self):
        return f"127.0.0.1:{self.port}"

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self._conns.append(conn)
            if self.mode == "torn":
                try:
                    conn.settimeout(5)
                    conn.recv(65536)
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Length: 4096\r\n\r\n"
                        b'{"ok": true, "but'
                    )
                    conn.close()
                except OSError:
                    pass
            # mode == "hang": hold the connection open, say nothing.

    def close(self):
        self._stop.set()
        self.listener.close()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


@pytest.fixture
def live_fleet():
    """One real replica (inline pool) plus its bound endpoint.

    Yields ``(app, endpoint, call)`` where ``call(endpoints, doc,
    **kw)`` drives a blocking ``fleet_call`` while the server runs.
    """
    app = ServeApp(InlineWorkerPool(), pressure=0)

    def call(endpoints_for, document, **kwargs):
        async def scenario():
            server = await start_http_server(app, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            endpoint = f"127.0.0.1:{port}"
            loop = asyncio.get_running_loop()
            try:
                return endpoint, await loop.run_in_executor(
                    None,
                    lambda: fleet_call(
                        endpoints_for(endpoint), document,
                        **kwargs,
                    ),
                )
            finally:
                server.close()
                await server.wait_closed()

        return run(scenario())

    yield app, call
    app.close()


class TestFleetCall:
    def test_single_live_replica_answers(self, live_fleet):
        app, call = live_fleet
        endpoint, (status, body, answered_by) = call(
            lambda live: (live,), plan_request()
        )
        assert status == 200
        assert answered_by == endpoint
        assert json.loads(body)["ok"] is True

    def test_dead_replica_fails_over_to_survivor(self, live_fleet):
        """A refused connection moves on; the answer is byte-equal
        to serving the same document directly."""
        app, call = live_fleet
        from repro.serve.protocol import (
            canonical_body,
            execute_request,
            parse_request,
        )

        dead = f"127.0.0.1:{free_port()}"
        endpoint, (status, body, answered_by) = call(
            lambda live: (dead, live), plan_request(),
            attempt_timeout=5,
        )
        assert status == 200
        assert answered_by == endpoint
        assert body == canonical_body(
            execute_request(parse_request(plan_request()))
        )

    def test_hung_replica_times_out_and_fails_over(
        self, live_fleet
    ):
        app, call = live_fleet
        hung = FakeReplica("hang")
        try:
            endpoint, (status, body, answered_by) = call(
                lambda live: (hung.endpoint, live),
                plan_request(), attempt_timeout=2,
            )
        finally:
            hung.close()
        assert status == 200
        assert answered_by == endpoint
        assert json.loads(body)["ok"] is True

    def test_mid_response_kill_fails_over(self, live_fleet):
        """A connection dropped half-way through the response body
        (replica killed mid-write) is a retryable failure, not a
        crash or a partial answer."""
        app, call = live_fleet
        torn = FakeReplica("torn")
        try:
            endpoint, (status, body, answered_by) = call(
                lambda live: (torn.endpoint, live),
                plan_request(), attempt_timeout=5,
            )
        finally:
            torn.close()
        assert status == 200
        assert answered_by == endpoint
        assert json.loads(body)["ok"] is True

    def test_all_dead_raises_typed_evidence(self):
        dead = [f"127.0.0.1:{free_port()}" for _ in range(2)]
        with pytest.raises(FleetUnavailable) as caught:
            fleet_call(tuple(dead), plan_request(),
                       attempt_timeout=2)
        attempts = caught.value.attempts
        assert sorted(
            endpoint for endpoint, _ in attempts
        ) == sorted(dead)
        message = str(caught.value)
        for endpoint in dead:
            assert endpoint in message

    def test_error_bodies_are_answers_not_failures(
        self, live_fleet
    ):
        """A structured ``ok: false`` body from a live replica is a
        final answer -- failover is for network death only."""
        app, call = live_fleet
        _, (status, body, _) = call(
            lambda live: (live,),
            {"op": "warp", "id": "bad-1"},
        )
        assert status == 400
        document = json.loads(body)
        assert document["ok"] is False
        assert document["error"]["type"] == "ServeProtocolError"

    def test_empty_endpoint_list_rejected(self):
        with pytest.raises(SweepConfigError):
            fleet_call((), plan_request())


class TestAttemptTimeout:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(
            "REPRO_FLEET_ATTEMPT_TIMEOUT", raising=False
        )
        assert resolve_attempt_timeout() == (
            DEFAULT_ATTEMPT_TIMEOUT
        )

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_ATTEMPT_TIMEOUT", "2.5")
        assert resolve_attempt_timeout() == 2.5

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_ATTEMPT_TIMEOUT", "2.5")
        assert resolve_attempt_timeout(7.0) == 7.0

    def test_invalid_values_are_typed_errors(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FLEET_ATTEMPT_TIMEOUT", "soonish"
        )
        with pytest.raises(SweepConfigError):
            resolve_attempt_timeout()
        with pytest.raises(SweepConfigError):
            resolve_attempt_timeout(0)


class TestCliRemoteFailures:
    """``plan --remote`` / ``--fleet`` against nothing: typed error
    envelope on stdout (``--json``), readable line on stderr,
    exit 1 -- never a traceback."""

    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def plan_argv(self, *extra):
        return [
            "plan", "--model", "t5", "--seq", "512",
            "--arch", "cloud", "--batch", "4",
            "--budget", "64", *extra,
        ]

    def test_remote_dead_port_json(self, capsys):
        dead = f"127.0.0.1:{free_port()}"
        code, out, err = self.run_cli(
            self.plan_argv("--json", "--remote", dead), capsys
        )
        assert code == 1
        document = json.loads(out)
        assert document["ok"] is False
        assert document["error"]["type"] == "ReplicaUnreachable"
        assert document["error"]["endpoint"] == dead
        assert document["error"]["attempt"] == 0

    def test_remote_dead_port_human(self, capsys):
        dead = f"127.0.0.1:{free_port()}"
        code, out, err = self.run_cli(
            self.plan_argv("--remote", dead), capsys
        )
        assert code == 1
        assert "plan error: ReplicaUnreachable" in err
        assert "Traceback" not in err

    def test_fleet_all_dead_json(self, capsys):
        spec = ",".join(
            f"127.0.0.1:{free_port()}" for _ in range(2)
        )
        code, out, err = self.run_cli(
            self.plan_argv("--json", "--fleet", spec), capsys
        )
        assert code == 1
        document = json.loads(out)
        assert document["ok"] is False
        assert document["error"]["type"] == "FleetUnavailable"

    def test_replica_unreachable_is_typed(self):
        error = ReplicaUnreachable(
            "127.0.0.1:9", 0, "ConnectionRefusedError: refused"
        )
        assert "127.0.0.1:9" in str(error)
        assert error.attempt == 0

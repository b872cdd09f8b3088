"""Circuit breakers and overload retries in the fleet client.

State machine (fake clock, fully deterministic): K consecutive
``ReplicaUnreachable`` failures open an endpoint's circuit; the
seeded cooldown admits a half-open probe; a successful probe
re-closes, a failed one re-opens with a longer (still seeded)
cooldown.  ``fleet_call`` demotes open endpoints below every closed
one -- healthy traffic stops paying a dead replica's connect
timeout -- and honors ``retry_after_ms`` overload hints within a
bounded retry budget.
"""

from __future__ import annotations

import json

import pytest

import repro.serve.client as client_module
from repro.runner.errors import (
    FleetUnavailable,
    ServerOverloaded,
    SweepConfigError,
)
from repro.runner.faults import backoff_seconds
from repro.serve.breaker import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    ENV_FLEET_BREAKER,
    ENV_FLEET_BREAKER_COOLDOWN,
    BreakerRegistry,
    fleet_breaker,
    reset_fleet_breaker,
    resolve_breaker_cooldown,
    resolve_breaker_threshold,
)
from repro.serve.client import (
    ENV_FLEET_RETRY_BUDGET,
    fleet_call,
    resolve_retry_budget,
)
from repro.serve.protocol import canonical_body, error_response
from repro.serve.router import preference_order
from tests.serve.conftest import plan_request


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def registry(threshold=3, cooldown=1.0):
    clock = FakeClock()
    return BreakerRegistry(
        threshold=threshold, cooldown=cooldown, clock=clock
    ), clock


def probe_wait(endpoint, opens, base=1.0):
    """The seeded cooldown before the ``opens``-th reopen's probe."""
    return backoff_seconds(
        f"breaker:{endpoint}", opens - 1, base
    )


OK_BODY = json.dumps({"ok": True, "status": "ok"})


def overloaded_body(retry_after_ms):
    return canonical_body(error_response(
        ServerOverloaded(2, 1, retry_after_ms),
        "plan", status="overloaded",
    ))


class TestResolution:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_FLEET_BREAKER, raising=False)
        monkeypatch.delenv(
            ENV_FLEET_BREAKER_COOLDOWN, raising=False
        )
        monkeypatch.delenv(ENV_FLEET_RETRY_BUDGET, raising=False)
        assert resolve_breaker_threshold() == (
            DEFAULT_BREAKER_THRESHOLD
        )
        assert resolve_breaker_cooldown() == (
            DEFAULT_BREAKER_COOLDOWN
        )
        assert resolve_retry_budget() == 2

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(ENV_FLEET_BREAKER, "5")
        monkeypatch.setenv(ENV_FLEET_BREAKER_COOLDOWN, "0.25")
        monkeypatch.setenv(ENV_FLEET_RETRY_BUDGET, "0")
        assert resolve_breaker_threshold() == 5
        assert resolve_breaker_cooldown() == 0.25
        assert resolve_retry_budget() == 0

    def test_bad_cooldown_is_typed(self):
        with pytest.raises(SweepConfigError):
            resolve_breaker_cooldown(0)

    def test_fleet_breaker_is_a_process_singleton(self):
        reset_fleet_breaker()
        assert fleet_breaker() is fleet_breaker()
        reset_fleet_breaker()


class TestStateMachine:
    def test_stays_closed_below_threshold(self):
        breaker, _ = registry(threshold=3)
        for _ in range(2):
            breaker.record_failure("a:1")
        assert breaker.state("a:1") == "closed"
        assert breaker.available("a:1")

    def test_kth_consecutive_failure_opens(self):
        breaker, _ = registry(threshold=3)
        for _ in range(3):
            breaker.record_failure("a:1")
        assert breaker.state("a:1") == "open"
        assert not breaker.available("a:1")

    def test_success_resets_the_failure_run(self):
        breaker, _ = registry(threshold=3)
        for _ in range(2):
            breaker.record_failure("a:1")
        breaker.record_success("a:1")
        for _ in range(2):
            breaker.record_failure("a:1")
        assert breaker.state("a:1") == "closed"

    def test_cooldown_elapses_into_half_open(self):
        breaker, clock = registry(threshold=1)
        breaker.record_failure("a:1")
        wait = probe_wait("a:1", opens=1)
        clock.advance(wait * 0.5)
        assert not breaker.available("a:1")
        clock.advance(wait)
        assert breaker.available("a:1")
        assert breaker.state("a:1") == "half-open"

    def test_successful_probe_recloses(self):
        breaker, clock = registry(threshold=1)
        breaker.record_failure("a:1")
        clock.advance(probe_wait("a:1", opens=1) + 0.001)
        breaker.record_success("a:1")
        assert breaker.state("a:1") == "closed"

    def test_failed_probe_reopens_with_longer_seed(self):
        breaker, clock = registry(threshold=1)
        breaker.record_failure("a:1")
        first_wait = probe_wait("a:1", opens=1)
        clock.advance(first_wait + 0.001)
        assert breaker.state("a:1") == "half-open"
        breaker.record_failure("a:1")
        assert breaker.state("a:1") == "open"
        second_wait = probe_wait("a:1", opens=2)
        assert second_wait > first_wait
        clock.advance(second_wait * 0.5)
        assert breaker.state("a:1") == "open"
        clock.advance(second_wait)
        assert breaker.state("a:1") == "half-open"

    def test_endpoints_are_independent(self):
        breaker, _ = registry(threshold=1)
        breaker.record_failure("a:1")
        assert not breaker.available("a:1")
        assert breaker.available("b:1")
        assert breaker.state("b:1") == "closed"

    def test_threshold_zero_disables(self):
        breaker, _ = registry(threshold=0)
        for _ in range(10):
            breaker.record_failure("a:1")
        assert breaker.available("a:1")
        assert breaker.state("a:1") == "closed"


class TestFleetCallBreaker:
    ENDPOINTS = ["127.0.0.1:9001", "127.0.0.1:9002"]

    def fake_fleet(self, monkeypatch, dead):
        """remote_call stub: ``dead`` endpoints refuse, the rest
        answer OK.  Returns the attempt log."""
        attempts = []

        def fake_remote(host, port, document, timeout=None):
            endpoint = f"{host}:{port}"
            attempts.append(endpoint)
            if endpoint in dead:
                raise ConnectionRefusedError(
                    111, "connection refused"
                )
            return 200, OK_BODY

        monkeypatch.setattr(
            client_module, "remote_call", fake_remote
        )
        return attempts

    def ranked(self, document):
        from repro.serve.client import fleet_fingerprint

        return preference_order(
            fleet_fingerprint(document), self.ENDPOINTS
        )

    def test_open_endpoint_is_demoted(self, monkeypatch):
        document = plan_request()
        order = self.ranked(document)
        dead = {order[0]}
        attempts = self.fake_fleet(monkeypatch, dead)
        breaker = BreakerRegistry(
            threshold=1, cooldown=1000.0, clock=FakeClock()
        )
        # First call pays the dead endpoint's failure and opens it.
        status, body, endpoint = fleet_call(
            self.ENDPOINTS, document, breaker=breaker,
        )
        assert (status, body) == (200, OK_BODY)
        assert endpoint == order[1]
        assert attempts == [order[0], order[1]]
        assert breaker.state(order[0]) == "open"
        # Steady state: the healthy endpoint is tried first, the
        # dead one never touched while its circuit cools down.
        attempts.clear()
        fleet_call(self.ENDPOINTS, document, breaker=breaker)
        assert attempts == [order[1]]

    def test_all_open_circuits_are_still_probed(self, monkeypatch):
        document = plan_request()
        attempts = self.fake_fleet(
            monkeypatch, set(self.ENDPOINTS)
        )
        breaker = BreakerRegistry(
            threshold=1, cooldown=1000.0, clock=FakeClock()
        )
        with pytest.raises(FleetUnavailable):
            fleet_call(
                self.ENDPOINTS, document, breaker=breaker
            )
        assert len(attempts) == 2
        # Every circuit open: the call degrades to probing them in
        # preference order rather than failing with zero attempts.
        attempts.clear()
        with pytest.raises(FleetUnavailable) as caught:
            fleet_call(
                self.ENDPOINTS, document, breaker=breaker
            )
        assert len(attempts) == 2
        assert len(caught.value.attempts) == 2

    def test_recloses_after_supervisor_restart(self, monkeypatch):
        """The dead replica comes back (the supervisor restarted
        it): the elapsed cooldown admits a probe, the probe answer
        re-closes the circuit."""
        document = plan_request()
        order = self.ranked(document)
        clock = FakeClock()
        breaker = BreakerRegistry(
            threshold=1, cooldown=1.0, clock=clock
        )
        attempts = self.fake_fleet(monkeypatch, {order[0]})
        fleet_call(self.ENDPOINTS, document, breaker=breaker)
        assert breaker.state(order[0]) == "open"
        # Replica restarts; cooldown elapses.
        attempts_live = self.fake_fleet(monkeypatch, set())
        clock.advance(probe_wait(order[0], opens=1) + 0.001)
        status, body, endpoint = fleet_call(
            self.ENDPOINTS, document, breaker=breaker
        )
        assert endpoint == order[0]
        assert breaker.state(order[0]) == "closed"
        assert attempts_live == [order[0]]


class TestOverloadRetries:
    ENDPOINTS = ["127.0.0.1:9001"]

    def scripted(self, monkeypatch, bodies):
        """remote_call returns the scripted bodies in order."""
        calls = []

        def fake_remote(host, port, document, timeout=None):
            calls.append(f"{host}:{port}")
            status, body = bodies[min(
                len(calls) - 1, len(bodies) - 1
            )]
            return status, body

        monkeypatch.setattr(
            client_module, "remote_call", fake_remote
        )
        return calls

    def breaker(self):
        return BreakerRegistry(
            threshold=3, cooldown=1.0, clock=FakeClock()
        )

    def test_retry_after_is_honored(self, monkeypatch):
        calls = self.scripted(monkeypatch, [
            (503, overloaded_body(1)),
            (200, OK_BODY),
        ])
        status, body, _ = fleet_call(
            self.ENDPOINTS, plan_request(),
            breaker=self.breaker(), retry_budget=2,
        )
        assert (status, body) == (200, OK_BODY)
        assert len(calls) == 2

    def test_exhausted_budget_returns_the_typed_body(
        self, monkeypatch
    ):
        rejection = overloaded_body(1)
        calls = self.scripted(monkeypatch, [(503, rejection)])
        status, body, _ = fleet_call(
            self.ENDPOINTS, plan_request(),
            breaker=self.breaker(), retry_budget=1,
        )
        assert status == 503
        assert body == rejection
        assert len(calls) == 2

    def test_zero_budget_never_retries(self, monkeypatch):
        rejection = overloaded_body(1)
        calls = self.scripted(monkeypatch, [(503, rejection)])
        status, body, _ = fleet_call(
            self.ENDPOINTS, plan_request(),
            breaker=self.breaker(), retry_budget=0,
        )
        assert (status, body) == (503, rejection)
        assert len(calls) == 1

    def test_non_overload_errors_are_not_retried(
        self, monkeypatch
    ):
        error_body = json.dumps({
            "ok": False, "status": "error",
            "error": {"type": "SweepError"},
        })
        calls = self.scripted(monkeypatch, [(400, error_body)])
        status, body, _ = fleet_call(
            self.ENDPOINTS, plan_request(),
            breaker=self.breaker(), retry_budget=5,
        )
        assert (status, body) == (400, error_body)
        assert len(calls) == 1

    def test_sleep_is_capped(self, monkeypatch):
        """A hostile/huge hint never stalls the client past the
        patience ceiling."""
        naps = []
        monkeypatch.setattr(
            client_module.time, "sleep",
            lambda seconds: naps.append(seconds),
        )
        self.scripted(monkeypatch, [
            (503, overloaded_body(10 ** 9)),
            (200, OK_BODY),
        ])
        fleet_call(
            self.ENDPOINTS, plan_request(),
            breaker=self.breaker(), retry_budget=1,
        )
        assert naps == [
            client_module.MAX_RETRY_AFTER_MS / 1000.0
        ]

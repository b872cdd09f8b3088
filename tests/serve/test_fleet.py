"""Fleet battery: supervised replicas over one shared cache.

The distributed half of the serving contract, driven stepwise
(:meth:`FleetSupervisor.start` / :meth:`supervise_once` /
:meth:`shutdown`) against real ``repro serve`` subprocesses:

* any replica serves the same bytes for the same fingerprint;
* an externally killed replica is detected, restarted with its
  sticky port, and the fleet keeps answering -- zero lost requests
  through the client's failover;
* a deterministic ``replica-kill`` injection mid-storm loses zero
  requests and never corrupts the shared cache;
* the supervisor journal is fsynced JSONL a crash can only truncate,
  never corrupt.
"""

from __future__ import annotations

import json
import threading
import time
import warnings

import pytest

from repro.runner.errors import JournalTruncation
from repro.runner.journal import tolerant_lines
from repro.serve.client import fleet_call, remote_call
from repro.serve.fleet import FleetSupervisor, probe_health
from tests.serve.conftest import POINT, plan_request

pytestmark = pytest.mark.usefixtures("tmp_path")


def make_fleet(tmp_path, replicas=2, extra_env=None, **kwargs):
    supervisor = FleetSupervisor(
        replicas=replicas,
        cache_dir=str(tmp_path / "cache"),
        journal_dir=str(tmp_path / "journal"),
        jobs=0,
        probe_interval=0.1,
        probe_timeout=1.0,
        max_restarts=3,
        backoff=0.01,
        extra_env=extra_env,
        **kwargs,
    )
    supervisor.start()
    return supervisor


def journal_events(supervisor):
    return [
        entry["event"]
        for entry in tolerant_lines(supervisor.journal_path)
    ]


@pytest.fixture
def fleet(tmp_path):
    supervisor = make_fleet(tmp_path)
    yield supervisor
    supervisor.shutdown()


def endpoint_parts(endpoint):
    host, _, port = endpoint.rpartition(":")
    return host, int(port)


class TestSupervision:
    def test_start_brings_up_distinct_replicas(self, fleet):
        endpoints = fleet.endpoints()
        assert len(endpoints) == 2
        assert len(set(endpoints)) == 2
        for endpoint in endpoints:
            host, port = endpoint_parts(endpoint)
            health = probe_health(host, port, timeout=5)
            assert health["ok"] is True
            assert health["generation"] == 0
            assert health["salt"]
        assert journal_events(fleet)[:4] == [
            "spawn", "ready", "spawn", "ready",
        ]

    def test_any_replica_serves_identical_bytes(self, fleet):
        """The whole point of the shared cache + shared protocol
        builders: ask every replica directly, get the same bytes --
        and the same bytes local protocol execution produces."""
        from repro.serve.protocol import (
            canonical_body,
            execute_request,
            parse_request,
        )

        document = plan_request()
        bodies = []
        for endpoint in fleet.endpoints():
            host, port = endpoint_parts(endpoint)
            status, body = remote_call(
                host, port, document, timeout=60
            )
            assert status == 200
            bodies.append(body)
        assert len(set(bodies)) == 1
        assert bodies[0] == canonical_body(
            execute_request(parse_request(document))
        )

    def test_external_kill_restarts_on_sticky_port(self, fleet):
        victim = fleet.replicas[0]
        old_port = victim.port
        victim.process.kill()
        victim.process.wait()
        events = fleet.supervise_once()
        assert [event["event"] for event in events] == ["crash"]
        assert victim.alive()
        assert victim.port == old_port
        status, body, _ = fleet_call(
            fleet.endpoints(), plan_request(), attempt_timeout=30
        )
        assert status == 200
        assert json.loads(body)["ok"] is True
        recorded = journal_events(fleet)
        assert "crash" in recorded
        assert "restarted" in recorded

    def test_healthy_probes_record_replica_state(self, fleet):
        fleet.supervise_once()
        entries = list(tolerant_lines(fleet.journal_path))
        healthy = [
            entry for entry in entries
            if entry["event"] == "healthy"
        ]
        assert len(healthy) == 2
        for entry in healthy:
            assert entry["generation"] == 0
            assert entry["inflight"] == 0


class TestReplicaFaults:
    def test_mid_storm_kill_loses_zero_requests(self, tmp_path):
        """``replica-kill:replica=0,request=2`` crashes replica 0 on
        its third served request.  A concurrent storm of distinct
        fingerprints over the failover client still gets every
        answer, the answers stay byte-stable across the restart, and
        the shared cache is never corrupted."""
        fleet = make_fleet(
            tmp_path,
            extra_env={
                "REPRO_FAULTS": "replica-kill:replica=0,request=2",
            },
        )
        try:
            # Pick budgets whose fingerprints provably route to
            # each replica (4 apiece), so replica 0 is guaranteed
            # to reach its deterministic kill count -- routing is a
            # pure function of (fingerprint, endpoint set), so this
            # classification matches the client's exactly.
            from repro.serve.client import fleet_fingerprint
            from repro.serve.router import route

            target = fleet.endpoints()[0]
            per_head = {True: [], False: []}
            for budget in range(8, 8 + 8 * 64, 8):
                document = plan_request(budget=budget)
                head = route(
                    fleet_fingerprint(document),
                    fleet.endpoints(),
                )
                bucket = per_head[head == target]
                if len(bucket) < 4:
                    bucket.append(document)
                if all(
                    len(bucket) == 4
                    for bucket in per_head.values()
                ):
                    break
            documents = per_head[True] + per_head[False]
            assert len(documents) == 8
            results = [None] * len(documents)

            def storm(index):
                results[index] = fleet_call(
                    fleet.endpoints(), documents[index],
                    attempt_timeout=30,
                )

            threads = [
                threading.Thread(target=storm, args=(index,))
                for index in range(len(documents))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert all(result is not None for result in results)
            first_bodies = {}
            for document, (status, body, _) in zip(
                documents, results
            ):
                assert status == 200
                assert json.loads(body)["ok"] is True
                first_bodies[document["budget"]] = body
            # The injection actually fired: replica 0 is down (or
            # already restarted); supervise until it is back.
            deadline = time.monotonic() + 30
            fleet.supervise_once()
            while time.monotonic() < deadline:
                if all(
                    replica.alive()
                    for replica in fleet.replicas
                ):
                    break
                fleet.supervise_once()
                time.sleep(0.05)
            assert "crash" in journal_events(fleet)
            # Byte-stability across the crash/restart: re-ask every
            # question; same bytes from whoever answers.
            for document in documents:
                status, body, _ = fleet_call(
                    fleet.endpoints(), document,
                    attempt_timeout=30,
                )
                assert status == 200
                assert body == first_bodies[document["budget"]]
            # Two replicas hammered one cache: nothing corrupted,
            # nothing quarantined.
            assert not (tmp_path / "cache" / "quarantine").exists()
        finally:
            fleet.shutdown()

    def test_wedged_replica_is_restarted(self, tmp_path):
        """``replica-hang`` wedges the whole event loop; probes time
        out twice; the supervisor kills and restarts."""
        fleet = make_fleet(
            tmp_path,
            replicas=1,
            extra_env={
                "REPRO_FAULTS": (
                    "replica-hang:replica=0,request=0,seconds=60"
                ),
            },
        )
        try:
            replica = fleet.replicas[0]
            old_port = replica.port

            def poke():
                try:
                    remote_call(
                        replica.host, replica.port,
                        plan_request(), timeout=0.5,
                    )
                except OSError:
                    pass

            threading.Thread(target=poke, daemon=True).start()
            time.sleep(0.7)   # the poke is now asleep in the loop
            deadline = time.monotonic() + 30
            wedged = False
            while time.monotonic() < deadline and not wedged:
                wedged = any(
                    event["event"] == "wedge"
                    for event in fleet.supervise_once()
                )
            assert wedged
            assert replica.alive()
            assert replica.port == old_port
        finally:
            fleet.shutdown()

    def test_slow_start_injection_delays_ready(self, tmp_path):
        started = time.monotonic()
        fleet = make_fleet(
            tmp_path,
            replicas=1,
            extra_env={
                "REPRO_FAULTS": (
                    "replica-slow:replica=0,seconds=0.5"
                ),
            },
        )
        try:
            elapsed = time.monotonic() - started
            assert elapsed >= 0.5
            assert fleet.endpoints()
        finally:
            fleet.shutdown()


class TestSupervisorJournal:
    def test_torn_tail_is_skipped_with_warning(self, fleet):
        fleet.supervise_once()
        intact = list(tolerant_lines(fleet.journal_path))
        assert intact
        with fleet.journal_path.open("a") as handle:
            handle.write('{"v": 1, "event": "torn-mid-wri')
        with pytest.warns(JournalTruncation):
            recovered = list(tolerant_lines(fleet.journal_path))
        assert recovered == intact

    def test_torn_tail_recovers_under_error_filters(self, fleet):
        with fleet.journal_path.open("a") as handle:
            handle.write('{"half": ')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(tolerant_lines(fleet.journal_path))

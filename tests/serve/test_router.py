"""Router battery: rendezvous hashing is deterministic and minimal.

The router's contract is purely combinatorial -- no sockets here:
same fingerprint + same endpoint set must give the same preference
order everywhere (supervisor, every client, CI), failover must be
the tail of that same order, and removing one endpoint must only
move the fingerprints that preferred it.
"""

from __future__ import annotations

import pytest

from repro.runner.errors import SweepConfigError
from repro.serve.client import fleet_fingerprint
from repro.serve.router import (
    parse_fleet,
    preference_order,
    rendezvous_score,
    route,
)
from tests.serve.conftest import plan_request

FLEET = (
    "127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003",
)


def fingerprints(count):
    return [f"fp-{index:04d}" for index in range(count)]


class TestPreferenceOrder:
    def test_deterministic_across_calls(self):
        for fingerprint in fingerprints(16):
            assert preference_order(
                fingerprint, FLEET
            ) == preference_order(fingerprint, FLEET)

    def test_input_order_irrelevant(self):
        shuffled = (FLEET[2], FLEET[0], FLEET[1])
        for fingerprint in fingerprints(16):
            assert preference_order(
                fingerprint, FLEET
            ) == preference_order(fingerprint, shuffled)

    def test_order_is_a_permutation(self):
        for fingerprint in fingerprints(16):
            assert sorted(
                preference_order(fingerprint, FLEET)
            ) == sorted(FLEET)

    def test_route_is_the_head(self):
        for fingerprint in fingerprints(16):
            assert route(fingerprint, FLEET) == preference_order(
                fingerprint, FLEET
            )[0]

    def test_all_replicas_get_traffic(self):
        """Uniform-ish spread: over many fingerprints every replica
        is someone's first choice."""
        heads = {
            route(fingerprint, FLEET)
            for fingerprint in fingerprints(64)
        }
        assert heads == set(FLEET)

    def test_failover_is_the_tail_of_the_same_list(self):
        """Dropping the preferred replica from the endpoint set gives
        exactly the old order minus its head -- survivors keep their
        relative positions, so every client agrees on the failover
        target without coordination."""
        for fingerprint in fingerprints(32):
            order = preference_order(fingerprint, FLEET)
            survivors = tuple(
                endpoint for endpoint in FLEET
                if endpoint != order[0]
            )
            assert preference_order(
                fingerprint, survivors
            ) == order[1:]

    def test_removal_is_minimal_disruption(self):
        """The rendezvous property: removing one endpoint only moves
        the fingerprints that routed to it."""
        removed = FLEET[1]
        survivors = tuple(
            endpoint for endpoint in FLEET
            if endpoint != removed
        )
        for fingerprint in fingerprints(64):
            before = route(fingerprint, FLEET)
            after = route(fingerprint, survivors)
            if before != removed:
                assert after == before

    def test_score_depends_on_both_inputs(self):
        assert rendezvous_score(
            "fp", FLEET[0]
        ) != rendezvous_score("fp", FLEET[1])
        assert rendezvous_score(
            "fp-a", FLEET[0]
        ) != rendezvous_score("fp-b", FLEET[0])

    def test_route_rejects_empty_endpoint_set(self):
        with pytest.raises(SweepConfigError):
            route("fp", ())


class TestParseFleet:
    def test_comma_separated_endpoints(self):
        assert parse_fleet(
            "127.0.0.1:9001,127.0.0.1:9002"
        ) == ("127.0.0.1:9001", "127.0.0.1:9002")

    def test_whitespace_and_empty_fragments_tolerated(self):
        assert parse_fleet(
            " 127.0.0.1:9001 , ,127.0.0.1:9002, "
        ) == ("127.0.0.1:9001", "127.0.0.1:9002")

    def test_empty_spec_rejected(self):
        with pytest.raises(SweepConfigError, match="at least one"):
            parse_fleet("  ,  ")

    def test_missing_port_rejected(self):
        with pytest.raises(SweepConfigError, match="host:port"):
            parse_fleet("127.0.0.1:9001,no-port-here")

    def test_duplicates_rejected(self):
        """A doubled endpoint would silently double its hash weight."""
        with pytest.raises(SweepConfigError, match="duplicate"):
            parse_fleet("127.0.0.1:9001,127.0.0.1:9001")


class TestFleetFingerprint:
    def test_correlation_id_does_not_route(self):
        """Same question, different ids -> same replica (the id is
        envelope metadata, not request identity)."""
        assert fleet_fingerprint(
            plan_request(id="client-a")
        ) == fleet_fingerprint(plan_request(id="client-b"))

    def test_budget_is_part_of_routing_identity(self):
        assert fleet_fingerprint(
            plan_request(budget=64)
        ) != fleet_fingerprint(plan_request(budget=128))

    def test_matches_the_server_side_fingerprint(self):
        from repro.serve.protocol import (
            parse_request,
            request_fingerprint,
        )

        document = plan_request()
        assert fleet_fingerprint(document) == request_fingerprint(
            parse_request(dict(document, id=None))
        )

"""Deterministic consistent-hash routing for a fleet of replicas.

One replica process coalesces identical in-flight requests and keeps
a per-fingerprint LRU (PR 7).  Spread requests round-robin across K
replicas and both degrade: the same question lands on different
replicas, each pays its own search, and the per-point LRU hit rate
divides by K.  The fix is classic: route *by request fingerprint*,
so one fingerprint always prefers one replica and coalescing keeps
working per-point across the whole fleet.

This module implements rendezvous (highest-random-weight) hashing
over the replica endpoints:

* ``score(fingerprint, endpoint) = SHA-256(fingerprint ":" endpoint)``
* a fingerprint's *preference order* is the endpoints sorted by
  descending score (ties broken by endpoint string -- fully
  deterministic, no clocks, no RNG).

Properties the fleet layer leans on:

* **Deterministic**: same fingerprint + same endpoint set => same
  order, on any host, in any process -- the supervisor, every
  client, and the CI battery all agree without coordination.
* **Failover is the tail of the same list**: when the preferred
  replica is down, the client walks the order; the next entry is
  again consistent across clients, so coalescing degrades to the
  survivor instead of scattering.
* **Minimal disruption**: removing one endpoint only moves the
  fingerprints that preferred it (the rendezvous property); the
  other K-1 keep their assignments and their warm LRUs.

Routing never affects response *bytes* -- any replica serves the
same canonical body for the same fingerprint (shared disk cache,
same code salt); the router only decides who pays the search and
where coalescing concentrates.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

from repro.runner.errors import SweepConfigError


def parse_fleet(spec: str) -> Tuple[str, ...]:
    """Parse a ``host:port,host:port,...`` fleet spec.

    Endpoints are normalized (whitespace stripped) but kept as
    strings -- the endpoint string is the rendezvous node identity,
    so two clients given the same spec route identically.

    Raises:
        SweepConfigError: On an empty spec, an endpoint without a
            port, or duplicate endpoints (duplicates would silently
            double one replica's hash weight).
    """
    from repro.serve.client import parse_endpoint

    endpoints = []
    for fragment in spec.split(","):
        fragment = fragment.strip()
        if not fragment:
            continue
        parse_endpoint(fragment)  # validates host:port shape
        endpoints.append(fragment)
    if not endpoints:
        raise SweepConfigError(
            f"fleet spec must name at least one host:port endpoint, "
            f"got {spec!r}"
        )
    if len(set(endpoints)) != len(endpoints):
        raise SweepConfigError(
            f"fleet spec lists duplicate endpoints: {spec!r}"
        )
    return tuple(endpoints)


def rendezvous_score(fingerprint: str, endpoint: str) -> int:
    """The HRW weight of one (fingerprint, endpoint) pair.

    A SHA-256 over ``fingerprint:endpoint`` read as a big-endian
    integer -- uniform, deterministic, and independent across
    endpoints, which is all rendezvous hashing needs.
    """
    digest = hashlib.sha256(
        f"{fingerprint}:{endpoint}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest, "big")


def preference_order(
    fingerprint: str, endpoints: Sequence[str]
) -> List[str]:
    """Endpoints ordered most- to least-preferred for a fingerprint.

    The head is the replica this fingerprint coalesces on while it is
    healthy; the tail is the deterministic failover sequence every
    client walks in the same order.
    """
    return sorted(
        endpoints,
        key=lambda endpoint: (
            rendezvous_score(fingerprint, endpoint), endpoint
        ),
        reverse=True,
    )


def route(fingerprint: str, endpoints: Sequence[str]) -> str:
    """The preferred replica for a fingerprint (head of the order)."""
    if not endpoints:
        raise SweepConfigError(
            "cannot route against an empty endpoint set"
        )
    return preference_order(fingerprint, endpoints)[0]

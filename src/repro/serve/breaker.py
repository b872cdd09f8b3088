"""Per-replica circuit breakers for the fleet failover client.

Without a breaker the failover client re-probes a dead replica on
every request whose rendezvous preference ranks it first -- each
probe paying a connect timeout before falling through to a healthy
survivor.  The breaker remembers: after ``REPRO_FLEET_BREAKER``
consecutive :class:`~repro.runner.errors.ReplicaUnreachable`
failures an endpoint's circuit *opens* and routing demotes it below
every closed endpoint (see
:func:`repro.serve.client.fleet_call`), so steady-state traffic
stops paying the dead replica's timeout entirely.

State machine (per endpoint)::

    closed --K consecutive failures--> open
    open   --cooldown elapsed-------> half-open (one probe admitted)
    half-open --probe succeeds------> closed
    half-open --probe fails---------> open (longer cooldown)

Cooldowns are *seeded*: the wait before the n-th half-open probe is
``backoff_seconds(f"breaker:{endpoint}", n, base)`` -- the PR 3
deterministic exponential backoff with SHA-256 jitter -- so a given
endpoint re-probes on the same schedule in every run, and a fleet
of clients does not thundering-herd a replica the moment it
restarts.  When the supervisor restarts the replica, the next probe
succeeds and the breaker re-closes; until then every probe re-opens
the circuit with a longer cooldown.

Environment knobs (see :mod:`repro.settings`):
``REPRO_FLEET_BREAKER`` (consecutive failures to open; 0 disables;
default 3) and ``REPRO_FLEET_BREAKER_COOLDOWN`` (base seconds of
the seeded cooldown; default 1.0).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.runner.errors import SweepConfigError
from repro.runner.faults import backoff_seconds
from repro.settings import env_float, env_int

ENV_FLEET_BREAKER = "REPRO_FLEET_BREAKER"
ENV_FLEET_BREAKER_COOLDOWN = "REPRO_FLEET_BREAKER_COOLDOWN"

#: Default consecutive-failure threshold that opens a breaker.
DEFAULT_BREAKER_THRESHOLD = 3
#: Default base seconds of the seeded half-open cooldown.
DEFAULT_BREAKER_COOLDOWN = 1.0


def resolve_breaker_threshold(
    threshold: Optional[int] = None,
) -> int:
    """Failures to open: argument, else ``REPRO_FLEET_BREAKER``,
    else 3.  ``0`` disables the breaker entirely."""
    if threshold is None:
        threshold = env_int(
            ENV_FLEET_BREAKER,
            "a consecutive failure count", minimum=0,
        )
    if threshold is None:
        return DEFAULT_BREAKER_THRESHOLD
    return threshold


def resolve_breaker_cooldown(
    cooldown: Optional[float] = None,
) -> float:
    """Base cooldown seconds: argument, else
    ``REPRO_FLEET_BREAKER_COOLDOWN``, else 1.0."""
    if cooldown is None:
        cooldown = env_float(
            ENV_FLEET_BREAKER_COOLDOWN, "a number of seconds"
        )
    if cooldown is None:
        return DEFAULT_BREAKER_COOLDOWN
    if cooldown <= 0:
        raise SweepConfigError(
            f"breaker cooldown must be > 0 seconds, got {cooldown}"
        )
    return cooldown


class _Circuit:
    """Mutable per-endpoint breaker state."""

    __slots__ = ("failures", "opens", "opened_at")

    def __init__(self) -> None:
        self.failures = 0      # consecutive unreachable attempts
        self.opens = 0         # times this circuit has opened
        self.opened_at: Optional[float] = None


class BreakerRegistry:
    """Circuit breakers for a set of endpoints.

    One registry is shared per client process (see
    :func:`fleet_breaker`); tests construct their own with a fake
    ``clock`` for deterministic time.

    Args:
        threshold: Consecutive failures that open a circuit
            (default: ``REPRO_FLEET_BREAKER``); ``0`` disables.
        cooldown: Base seconds of the seeded half-open cooldown
            (default: ``REPRO_FLEET_BREAKER_COOLDOWN``).
        clock: Monotonic time source (tests inject a fake).
    """

    def __init__(
        self,
        threshold: Optional[int] = None,
        cooldown: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._circuits: Dict[str, _Circuit] = {}

    def threshold(self) -> int:
        """The effective open threshold (env re-read when unset,
        so tests can toggle the knob between calls)."""
        return resolve_breaker_threshold(self._threshold)

    def available(self, endpoint: str) -> bool:
        """Whether routing should try ``endpoint`` at its normal
        rendezvous rank.

        ``True`` for closed circuits and for open circuits whose
        seeded cooldown has elapsed (the half-open probe).  ``False``
        only while an open circuit is cooling down.
        """
        if self.threshold() < 1:
            return True
        circuit = self._circuits.get(endpoint)
        if circuit is None or circuit.opened_at is None:
            return True
        waited = self._clock() - circuit.opened_at
        return waited >= self._probe_after(endpoint, circuit)

    def state(self, endpoint: str) -> str:
        """``closed`` / ``open`` / ``half-open`` for introspection."""
        circuit = self._circuits.get(endpoint)
        if circuit is None or circuit.opened_at is None:
            return "closed"
        waited = self._clock() - circuit.opened_at
        if waited >= self._probe_after(endpoint, circuit):
            return "half-open"
        return "open"

    def record_failure(self, endpoint: str) -> None:
        """One ``ReplicaUnreachable`` against ``endpoint``.

        The K-th consecutive failure opens the circuit; a failed
        half-open probe re-opens it with a longer (still seeded)
        cooldown.
        """
        threshold = self.threshold()
        if threshold < 1:
            return
        circuit = self._circuits.setdefault(endpoint, _Circuit())
        if circuit.opened_at is not None:
            # The half-open probe failed: re-open, longer cooldown.
            circuit.opens += 1
            circuit.opened_at = self._clock()
            return
        circuit.failures += 1
        if circuit.failures >= threshold:
            circuit.opens += 1
            circuit.opened_at = self._clock()

    def record_success(self, endpoint: str) -> None:
        """A response arrived: close the circuit, reset history."""
        self._circuits.pop(endpoint, None)

    def _probe_after(
        self, endpoint: str, circuit: _Circuit
    ) -> float:
        """Seconds an open circuit waits before its half-open probe:
        the PR 3 seeded exponential backoff keyed by endpoint and
        reopen count, so probe schedules are reproducible."""
        return backoff_seconds(
            f"breaker:{endpoint}",
            circuit.opens - 1,
            resolve_breaker_cooldown(self._cooldown),
        )


_fleet_breaker: Optional[BreakerRegistry] = None


def fleet_breaker() -> BreakerRegistry:
    """The process-wide registry :func:`fleet_call` consults."""
    global _fleet_breaker
    if _fleet_breaker is None:
        _fleet_breaker = BreakerRegistry()
    return _fleet_breaker


def reset_fleet_breaker() -> None:
    """Drop all process-wide breaker state (tests)."""
    global _fleet_breaker
    _fleet_breaker = None

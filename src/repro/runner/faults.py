"""Deterministic fault injection and the retry policy for sweeps.

The sweep engine prices hundreds of grid points per run; a production
sweep must survive a crashed worker, a hung TileSeek search or a
corrupted cache entry without losing the rest of the grid.  The typed
errors it reports live in the leaf module :mod:`repro.runner.errors`;
this module provides the machinery that exercises and recovers from
them:

* **A deterministic fault-injection harness** -- ``REPRO_FAULTS``
  holds a spec such as ``crash:chain=2,attempt=0;hang:point=5`` and
  the chain runner consults it at every point boundary, so the test
  suite (and the CI chaos job) can exercise every recovery path
  reproducibly.  Grammar::

      spec    := rule (";" rule)*
      rule    := kind [":" field "=" value ("," field "=" value)*]
      kind    := "crash" | "hang" | "exit"
               | "replica-kill" | "replica-hang" | "replica-slow"
               | "disk-full" | "slow-io" | "cache-evict"
      field   := "chain" | "point" | "attempt" | "request"
               | "replica" | "write" | "seconds"

  ``chain`` matches the chain index (grouping order of
  :func:`repro.runner.chain._chains`), ``point`` the global point
  index in the sweep's input order, ``attempt`` the retry attempt
  (0-based).  A rule with no fields matches everywhere.  ``seconds``
  is a parameter, not a matcher: how long an injected ``hang`` sleeps
  in a pool worker before giving up (default 30).

  Fault kinds:

  - ``crash`` raises :class:`InjectedCrash` (an ordinary exception --
    exercises the per-point failure + retry path).
  - ``hang`` simulates a stuck search: in a pool worker it sleeps
    ``seconds`` then raises :class:`InjectedHang` (the parent's
    per-chain ``future.result(timeout=...)`` fires first when a
    timeout is configured); serially it raises :class:`InjectedHang`
    immediately (a cooperative timeout).
  - ``exit`` kills the worker process with ``os._exit`` -- the real
    ``BrokenProcessPool`` path; serially it raises
    :class:`InjectedWorkerExit`, which the engine maps to
    :class:`WorkerCrash` so serial and parallel recover identically.

  **Replica-level kinds** (fleet serving, :mod:`repro.serve.fleet`)
  fire at *server* sites, not point boundaries: ``request`` matches
  the replica's 0-based served-request count and ``replica`` the
  replica index the supervisor assigns via ``REPRO_FLEET_INDEX``
  (a rule naming ``replica=`` never fires in a process without an
  index).  The chain-runner sites never fire replica rules and the
  server sites never fire chain rules -- the two vocabularies are
  disjoint by construction (:meth:`FaultPlan.fire` vs
  :meth:`FaultPlan.fire_replica`):

  - ``replica-kill`` kills the whole replica process with
    ``os._exit`` as the matching request arrives -- the mid-storm
    crash the fleet battery recovers from.
  - ``replica-hang`` wedges the replica: the event loop sleeps
    ``seconds`` before answering, so health probes and client
    deadlines trip while the process stays alive.
  - ``replica-slow`` delays replica *startup* by ``seconds`` before
    the socket binds (slow-start detection in the supervisor).

  **IO-level kinds** (persistent cache, :mod:`repro.runner.cache`)
  fire at cache-*write* sites via :meth:`FaultPlan.fire_io`:
  ``write`` matches a :class:`~repro.runner.cache.PlanCache`
  instance's 0-based write count, and ``replica`` matches like the
  replica kinds (so a fleet test can starve one replica's disk).
  The third disjoint vocabulary -- chain sites never consult io
  kinds and vice versa:

  - ``disk-full`` raises ``OSError(ENOSPC)`` at the write site --
    the real brownout entry path, without filling a disk.
  - ``slow-io`` sleeps ``seconds`` before the write (a saturated
    device).
  - ``cache-evict`` deletes the entry immediately after it is
    written -- a concurrent GC stealing the key between a ``put``
    and the next ``get``.

Retry backoff is deterministic: ``backoff_seconds`` derives a jitter
factor from a SHA-256 over (key, attempt), so reruns sleep the same
schedule and serial/parallel results stay byte-identical under
retries.

Environment variables: ``REPRO_FAULTS`` (injection spec),
``REPRO_TIMEOUT`` (per-chain seconds, float), ``REPRO_RETRIES``
(extra attempts per chain, int), ``REPRO_BACKOFF`` (base backoff
seconds, default 0).  All are parsed through the typed getters in
:mod:`repro.settings`, so malformed values raise
:class:`SweepConfigError` with the variable name in the message.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.runner.errors import (
    FaultSpecError,
    InjectedCrash,
    InjectedHang,
    InjectedWorkerExit,
    SweepConfigError,
)
from repro.settings import ENV_FAULTS, armed_faults, env_float, env_int

ENV_TIMEOUT = "REPRO_TIMEOUT"
ENV_RETRIES = "REPRO_RETRIES"
ENV_BACKOFF = "REPRO_BACKOFF"

#: How long an injected ``hang`` occupies a pool worker before it
#: gives up on its own (so an un-timed-out sweep still terminates).
DEFAULT_HANG_SECONDS = 30.0


# ----------------------------------------------------------------------
# Fault spec parsing
# ----------------------------------------------------------------------
#: Chain-site kinds, consulted by the sweep engine's point
#: boundaries via :meth:`FaultPlan.fire`.
_CHAIN_KINDS = ("crash", "hang", "exit")

#: Replica-site kinds, consulted by the serving layer via
#: :meth:`FaultPlan.fire_replica` (and ``replica-slow`` at server
#: startup).  Disjoint from the chain kinds so one spec can arm both
#: vocabularies without either masking the other.
_REPLICA_KINDS = ("replica-kill", "replica-hang", "replica-slow")

#: IO-site kinds, consulted by the persistent cache's write sites
#: via :meth:`FaultPlan.fire_io`.  Disjoint from both families
#: above, so one spec can starve the disk mid-storm without
#: shadowing chain or replica rules.
_IO_KINDS = ("disk-full", "slow-io", "cache-evict")

_FAULT_KINDS = _CHAIN_KINDS + _REPLICA_KINDS + _IO_KINDS
_MATCH_FIELDS = (
    "chain", "point", "attempt", "request", "replica", "write",
)


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: a kind plus the sites it fires at.

    Attributes:
        kind: ``crash`` / ``hang`` / ``exit``.
        where: Matcher fields (``chain`` / ``point`` / ``attempt``)
            that must all equal the current context for the rule to
            fire; an empty mapping matches every site.
        seconds: ``hang`` only -- worker-side sleep before giving up.
    """

    kind: str
    where: Mapping[str, int] = field(default_factory=dict)
    seconds: float = DEFAULT_HANG_SECONDS

    def matches(self, context: Mapping[str, int]) -> bool:
        """Whether this rule fires at ``context``."""
        return all(
            key in context and context[key] == value
            for key, value in self.where.items()
        )

    def describe(self) -> str:
        """The rule rendered back in spec grammar."""
        fields = ",".join(
            f"{key}={value}"
            for key, value in sorted(self.where.items())
        )
        return f"{self.kind}:{fields}" if fields else self.kind


@dataclass(frozen=True)
class FaultPlan:
    """A parsed ``REPRO_FAULTS`` spec."""

    rules: Tuple[FaultRule, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.rules)

    def matching(self, **context: int) -> Optional[FaultRule]:
        """The first rule firing at ``context``, or ``None``."""
        for rule in self.rules:
            if rule.matches(context):
                return rule
        return None

    def _matching_kind(
        self, kinds: Tuple[str, ...], context: Mapping[str, int]
    ) -> Optional[FaultRule]:
        """The first rule of one kind family firing at ``context``.

        Chain sites only consult chain kinds and replica sites only
        replica kinds, so arming ``replica-kill`` in a spec never
        shadows a later ``crash`` rule at a point boundary (and vice
        versa).
        """
        for rule in self.rules:
            if rule.kind in kinds and rule.matches(context):
                return rule
        return None

    def fire(self, serial: bool, **context: int) -> None:
        """Raise (or exit) if any chain rule matches the current site.

        Args:
            serial: Whether we are in the parent process (serial
                mode).  ``exit`` only calls ``os._exit`` in a pool
                worker; serially it raises
                :class:`InjectedWorkerExit` instead, and ``hang``
                raises immediately rather than sleeping (the serial
                path has no external timeout to trip).
            context: The site: ``chain``, ``point``, ``attempt``.
        """
        rule = self._matching_kind(_CHAIN_KINDS, context)
        if rule is None:
            return
        site = ", ".join(
            f"{key}={value}" for key, value in sorted(context.items())
        )
        if rule.kind == "crash":
            raise InjectedCrash(f"injected crash at {site}")
        if rule.kind == "hang":
            if not serial:
                time.sleep(rule.seconds)
            raise InjectedHang(f"injected hang at {site}")
        if rule.kind == "exit":
            if serial:
                raise InjectedWorkerExit(
                    f"injected worker exit at {site}"
                )
            os._exit(13)

    def fire_replica(self, **context: int) -> None:
        """Apply any replica rule matching the current server site.

        Consulted by :meth:`repro.serve.app.ServeApp.handle` with
        ``request`` (0-based served-request count) and -- when the
        supervisor exported ``REPRO_FLEET_INDEX`` -- ``replica``.

        ``replica-kill`` exits the whole process (exit code 23, the
        fleet battery's marker); ``replica-hang`` sleeps ``seconds``
        on the event-loop thread, wedging every in-flight connection
        so probes and client deadlines trip; ``replica-slow`` is a
        startup fault and is ignored at request sites (see
        :func:`replica_slow_start_seconds`).
        """
        rule = self._matching_kind(_REPLICA_KINDS, context)
        if rule is None or rule.kind == "replica-slow":
            return
        if rule.kind == "replica-hang":
            time.sleep(rule.seconds)
            return
        os._exit(23)

    def fire_io(self, **context: int) -> Optional[FaultRule]:
        """Apply any io rule matching the current cache-write site.

        Consulted by :meth:`repro.runner.cache.PlanCache.put` with
        ``write`` (the cache instance's 0-based write count) and --
        under a fleet supervisor -- ``replica``.

        ``disk-full`` raises ``OSError(ENOSPC)`` so the *real*
        brownout path runs; ``slow-io`` sleeps ``seconds`` here and
        lets the write proceed.  ``cache-evict`` cannot fire inside
        this method (only the caller knows which entry it wrote), so
        the matched rule is returned and the cache deletes the entry
        it just put -- the caller-visible effect of a concurrent GC
        winning a race.
        """
        rule = self._matching_kind(_IO_KINDS, context)
        if rule is None:
            return None
        site = ", ".join(
            f"{key}={value}" for key, value in sorted(context.items())
        )
        if rule.kind == "disk-full":
            import errno

            raise OSError(
                errno.ENOSPC,
                f"injected disk-full at {site}",
            )
        if rule.kind == "slow-io":
            time.sleep(rule.seconds)
        return rule


def parse_faults(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec into a :class:`FaultPlan`.

    Raises:
        FaultSpecError: On unknown kinds, unknown fields or
            non-numeric values, naming the offending fragment.
    """
    rules = []
    for fragment in spec.split(";"):
        fragment = fragment.strip()
        if not fragment:
            continue
        kind, _, tail = fragment.partition(":")
        kind = kind.strip().lower()
        if kind not in _FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} in {ENV_FAULTS} "
                f"fragment {fragment!r}; choose from "
                f"{sorted(_FAULT_KINDS)}"
            )
        where: Dict[str, int] = {}
        seconds = DEFAULT_HANG_SECONDS
        for clause in filter(None, tail.split(",")):
            name, eq, value = clause.partition("=")
            name = name.strip().lower()
            if not eq:
                raise FaultSpecError(
                    f"expected field=value, got {clause!r} in "
                    f"{ENV_FAULTS} fragment {fragment!r}"
                )
            if name == "seconds":
                try:
                    seconds = float(value)
                except ValueError:
                    raise FaultSpecError(
                        f"seconds must be a number, got {value!r} "
                        f"in {ENV_FAULTS} fragment {fragment!r}"
                    ) from None
                continue
            if name not in _MATCH_FIELDS:
                raise FaultSpecError(
                    f"unknown fault field {name!r} in {ENV_FAULTS} "
                    f"fragment {fragment!r}; choose from "
                    f"{sorted(_MATCH_FIELDS + ('seconds',))}"
                )
            try:
                where[name] = int(value)
            except ValueError:
                raise FaultSpecError(
                    f"{name} must be an integer, got {value!r} in "
                    f"{ENV_FAULTS} fragment {fragment!r}"
                ) from None
        rules.append(
            FaultRule(kind=kind, where=where, seconds=seconds)
        )
    return FaultPlan(tuple(rules))


def active_plan() -> FaultPlan:
    """The fault plan configured via ``REPRO_FAULTS`` (may be empty).

    Parsed on every call (through :func:`repro.settings.armed_faults`):
    the spec is tiny, and tests toggle the env var between sweeps.
    """
    return armed_faults() or FaultPlan()


# ----------------------------------------------------------------------
# Replica-site helpers (fleet serving)
# ----------------------------------------------------------------------
ENV_FLEET_INDEX = "REPRO_FLEET_INDEX"


def replica_context(request: int) -> Dict[str, int]:
    """The replica-site matcher context for one served request.

    ``replica`` is only present when the supervisor exported
    ``REPRO_FLEET_INDEX``, so a rule pinned to a replica index can
    never fire in a standalone (un-supervised) server.
    """
    from repro.settings import env_int

    context = {"request": request}
    index = env_int(ENV_FLEET_INDEX, "a replica index", minimum=0)
    if index is not None:
        context["replica"] = index
    return context


def io_context(write: int) -> Dict[str, int]:
    """The io-site matcher context for one cache write.

    Like :func:`replica_context`, ``replica`` is only present when
    the fleet supervisor exported ``REPRO_FLEET_INDEX``, so a rule
    pinned to one replica's disk never fires elsewhere.
    """
    context = {"write": write}
    index = env_int(ENV_FLEET_INDEX, "a replica index", minimum=0)
    if index is not None:
        context["replica"] = index
    return context


def replica_slow_start_seconds() -> float:
    """How long an armed ``replica-slow`` rule delays server startup.

    Consulted once by ``repro serve`` before binding the socket;
    returns 0 when no ``replica-slow`` rule matches this process's
    replica context (request count 0 -- startup happens before any
    request is served).
    """
    plan = active_plan()
    if not plan:
        return 0.0
    rule = plan._matching_kind(
        ("replica-slow",), replica_context(0)
    )
    return rule.seconds if rule is not None else 0.0


# ----------------------------------------------------------------------
# Timeout / retry / backoff resolution
# ----------------------------------------------------------------------
def resolve_timeout(
    timeout: Optional[float] = None,
) -> Optional[float]:
    """Per-chain timeout: explicit arg, else ``REPRO_TIMEOUT``, else
    no timeout.  ``0`` (or negative) disables."""
    if timeout is None:
        timeout = env_float(ENV_TIMEOUT, "a number of seconds")
        if timeout is None:
            return None
    return timeout if timeout > 0 else None


def resolve_retries(retries: Optional[int] = None) -> int:
    """Extra attempts per chain: arg, else ``REPRO_RETRIES``, else 0."""
    if retries is None:
        retries = env_int(ENV_RETRIES, "an integer attempt count")
        if retries is None:
            return 0
    if retries < 0:
        raise SweepConfigError(
            f"retries must be >= 0, got {retries}"
        )
    return retries


def backoff_seconds(
    key: str, attempt: int, base: Optional[float] = None
) -> float:
    """Deterministic backoff before retry ``attempt + 1``.

    Exponential in the attempt with a seeded jitter factor in
    [1, 2) derived from SHA-256 over ``(key, attempt)`` -- the same
    chain backs off the same way in every rerun, keeping retried
    sweeps reproducible.  ``base`` defaults to ``REPRO_BACKOFF``
    (0 -- no sleeping -- unless configured).
    """
    if base is None:
        env_base = env_float(ENV_BACKOFF, "a number of seconds")
        base = env_base if env_base is not None else 0.0
    if base <= 0:
        return 0.0
    digest = hashlib.sha256(
        f"{key}:{attempt}".encode()
    ).hexdigest()
    jitter = 1.0 + int(digest[:8], 16) / 0xFFFFFFFF
    return base * (2 ** attempt) * jitter

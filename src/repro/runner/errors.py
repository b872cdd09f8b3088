"""The sweep engine's typed failure taxonomy.

Every failure the engine, the plan cache and the serving tier can
surface is a :class:`SweepError` subclass carrying enough structure
to be reported, serialized and retried:

- :class:`PointFailure` -- one grid point raised during pricing.
- :class:`ChainTimeout` -- a chain exceeded ``REPRO_TIMEOUT``.
- :class:`WorkerCrash` -- a pool worker died (``BrokenProcessPool``).
- :class:`InfeasiblePoint` -- no tiling fits the Table-2 buffer
  model for a point; carries a buffer-level diagnosis and is
  surfaced as a distinct ``infeasible`` status, never retried
  (retrying infeasibility is wasted work).
- :class:`CacheCorruption` -- a persistent-cache entry failed to
  parse (also a :class:`Warning`, so the cache can surface it via
  :mod:`warnings` without aborting the read).
- :class:`SweepConfigError` -- malformed configuration
  (``REPRO_JOBS`` / ``REPRO_TIMEOUT`` / ``REPRO_RETRIES`` / fault
  specs).  Also a :class:`ValueError` for backward compatibility.

The ``Injected*`` types are what the ``REPRO_FAULTS`` harness
(:mod:`repro.runner.faults`) raises at an armed site.

A leaf module: it imports nothing from the package, so every layer
can name these types without loading the fault-injection parser,
the retry policy or the sweep fan-out.
"""

from __future__ import annotations

from typing import Any, Mapping


class SweepError(Exception):
    """Base class for every structured sweep-engine failure."""


class SweepConfigError(SweepError, ValueError):
    """Malformed sweep configuration (env var or argument).

    Also a :class:`ValueError` so pre-taxonomy callers that caught
    ``ValueError`` keep working.
    """


class FaultSpecError(SweepConfigError):
    """A ``REPRO_FAULTS`` spec that does not parse."""


class PointFailure(SweepError):
    """One grid point raised during pricing.

    Args:
        point: The failing :class:`~repro.runner.chain.GridPoint`
            (any object with a ``repr`` works; kept whole so callers
            can re-queue it).
        chain_index: Which chain the point ran in.
        attempt: 0-based retry attempt that failed.
        error_type: Class name of the underlying exception.
        message: The underlying exception's message.
    """

    def __init__(
        self,
        point: Any,
        chain_index: int,
        attempt: int,
        error_type: str,
        message: str,
    ) -> None:
        super().__init__(
            f"point {point} failed on attempt {attempt} "
            f"(chain {chain_index}): {error_type}: {message}"
        )
        self.point = point
        self.chain_index = chain_index
        self.attempt = attempt
        self.error_type = error_type
        self.message = message

    def __reduce__(self):
        # Exceptions pickle through ``args`` by default, which does
        # not match this __init__ signature -- workers hand these
        # across the process boundary, so rebuild explicitly.
        return (
            PointFailure,
            (self.point, self.chain_index, self.attempt,
             self.error_type, self.message),
        )


class ChainTimeout(SweepError):
    """A whole chain exceeded its per-chain timeout."""

    def __init__(
        self, chain_index: int, seconds: float, attempt: int
    ) -> None:
        super().__init__(
            f"chain {chain_index} exceeded the {seconds:g}s timeout "
            f"on attempt {attempt}"
        )
        self.chain_index = chain_index
        self.seconds = seconds
        self.attempt = attempt

    def __reduce__(self):
        return (
            ChainTimeout,
            (self.chain_index, self.seconds, self.attempt),
        )


class WorkerCrash(SweepError):
    """A pool worker died mid-chain (``BrokenProcessPool``)."""

    def __init__(
        self, chain_index: int, attempt: int, detail: str = ""
    ) -> None:
        message = (
            f"worker running chain {chain_index} died on attempt "
            f"{attempt}"
        )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.chain_index = chain_index
        self.attempt = attempt
        self.detail = detail

    def __reduce__(self):
        return (
            WorkerCrash,
            (self.chain_index, self.attempt, self.detail),
        )


class InfeasiblePoint(SweepError):
    """No tiling fits the buffer model for a point -- with evidence.

    Unlike the other taxonomy members this is not an *operational*
    failure: the search proved (by Table-2 monotonicity) that nothing
    in the space fits, so the sweep engine reports it as a distinct
    ``infeasible`` status, never retries it, and a ``--keep-going``
    sweep does not fail because of it.

    Args:
        subject: Human description of the infeasible point (workload
            and architecture).
        diagnosis: The JSON-safe rendering of a
            :class:`~repro.resilience.diagnostics.BufferDiagnosis`
            (kept as a plain dict so this module stays import-light
            and the payload drops straight into the JSONL journal).
        point: The :class:`~repro.runner.chain.GridPoint`, attached
            by the chain runner (the search layer does not know it).
    """

    def __init__(
        self,
        subject: str,
        diagnosis: Mapping[str, Any],
        point: Any = None,
    ) -> None:
        diagnosis = dict(diagnosis)
        summary = ""
        try:
            summary = (
                f": {diagnosis['worst_module']} needs "
                f"{diagnosis['required_words']:,} of "
                f"{diagnosis['capacity_words']:,} words "
                f"({diagnosis['overflow_words']:,} over)"
            )
        except (KeyError, TypeError, ValueError):
            pass
        super().__init__(
            f"no tiling fits the buffer for {subject}{summary}"
        )
        self.subject = subject
        self.diagnosis = diagnosis
        self.point = point

    def with_point(self, point: Any) -> "InfeasiblePoint":
        """A copy with the grid point attached (chain runner)."""
        return InfeasiblePoint(self.subject, self.diagnosis, point)

    def __reduce__(self):
        return (
            InfeasiblePoint,
            (self.subject, self.diagnosis, self.point),
        )


class CacheCorruption(SweepError, Warning):
    """A persistent-cache entry failed to parse.

    Doubles as a :class:`Warning` category: the cache quarantines the
    bad file and warns with an instance of this class rather than
    aborting the read (a corrupted entry is always recomputable).
    """

    def __init__(self, path: Any, detail: str) -> None:
        super().__init__(f"corrupted cache entry {path}: {detail}")
        self.path = path
        self.detail = detail

    def __reduce__(self):
        return (CacheCorruption, (self.path, self.detail))


class CacheClearFailure(SweepError, Warning):
    """``PlanCache.clear`` could not delete every entry.

    Doubles as a :class:`Warning`: a survivor (a permission error, a
    file pinned by another process) must not abort the sweep that
    asked for a fresh cache, but reporting a clean wipe that left
    stale entries behind is how a "cleared" cache silently serves
    old results.  ``detail`` names the survivors.
    """

    def __init__(self, path: Any, detail: str) -> None:
        super().__init__(
            f"cache clear under {path} incomplete: {detail}"
        )
        self.path = path
        self.detail = detail

    def __reduce__(self):
        return (CacheClearFailure, (self.path, self.detail))


class CacheBrownout(SweepError, Warning):
    """The persistent cache stopped writing: the disk is full.

    Doubles as a :class:`Warning`: ``ENOSPC``/``EDQUOT`` on a cache
    write must degrade (results are always recomputable), never
    crash a sweep or a replica.  Raised as a warning when the cache
    enters brownout -- writes are skipped, reads still serve, and a
    periodic probe re-tries the disk (see
    :class:`repro.runner.cache.PlanCache`).
    """

    def __init__(self, path: Any, detail: str) -> None:
        super().__init__(
            f"cache brownout at {path}: {detail}"
        )
        self.path = path
        self.detail = detail

    def __reduce__(self):
        return (CacheBrownout, (self.path, self.detail))


class JournalTruncation(SweepError, Warning):
    """A JSONL journal ended in a torn (unparseable) trailing line.

    A replica killed mid-append loses at most the line it was
    writing; loaders skip the torn tail and surface this warning
    instead of raising -- the journal before the tear is intact and
    still trustworthy (every complete line was flushed and fsynced
    at write time).
    """

    def __init__(self, path: Any, detail: str) -> None:
        super().__init__(
            f"journal {path} has a truncated trailing line "
            f"(skipped): {detail}"
        )
        self.path = path
        self.detail = detail

    def __reduce__(self):
        return (JournalTruncation, (self.path, self.detail))


class ReplicaUnreachable(SweepError):
    """One fleet replica did not produce a response.

    Covers a refused connection (dead port), a per-attempt deadline
    expiring against a wedged replica, and a connection dropped
    mid-response (replica killed while writing) -- every network-ish
    way a single attempt can fail without a structured body.

    Args:
        endpoint: The ``host:port`` that failed.
        attempt: 0-based failover attempt index.
        detail: The underlying ``OSError``-family message.
    """

    def __init__(
        self, endpoint: str, attempt: int, detail: str
    ) -> None:
        super().__init__(
            f"replica {endpoint} unreachable on attempt {attempt}: "
            f"{detail}"
        )
        self.endpoint = endpoint
        self.attempt = attempt
        self.detail = detail

    def __reduce__(self):
        return (
            ReplicaUnreachable,
            (self.endpoint, self.attempt, self.detail),
        )


class ServerOverloaded(SweepError):
    """The serve admission queue is full -- a typed, retryable no.

    Distinct from the fault-path errors (crashes, timeouts): the
    request was well-formed and the server is healthy, it simply has
    more work in flight than ``REPRO_SERVE_QUEUE`` allows even at
    the shed budget.  Carries a deterministic ``retry_after_ms``
    hint derived from the overshoot, so a well-behaved client backs
    off proportionally (and reruns produce identical hints).

    Args:
        inflight: Searches in flight when the request was rejected.
        bound: The configured admission bound.
        retry_after_ms: Deterministic client backoff hint.
    """

    def __init__(
        self, inflight: int, bound: int, retry_after_ms: int
    ) -> None:
        super().__init__(
            f"server overloaded: {inflight} searches in flight "
            f"against an admission bound of {bound}; retry in "
            f"{retry_after_ms} ms"
        )
        self.inflight = inflight
        self.bound = bound
        self.retry_after_ms = retry_after_ms

    def __reduce__(self):
        return (
            ServerOverloaded,
            (self.inflight, self.bound, self.retry_after_ms),
        )


class FleetUnavailable(SweepError):
    """Every failover attempt against a fleet failed.

    Carries the per-attempt evidence so a client can report exactly
    which replicas were tried and how each one failed.

    Args:
        attempts: ``(endpoint, detail)`` pairs in the order tried.
    """

    def __init__(self, attempts: Any) -> None:
        attempts = tuple(
            (str(endpoint), str(detail))
            for endpoint, detail in attempts
        )
        described = "; ".join(
            f"{endpoint}: {detail}" for endpoint, detail in attempts
        )
        super().__init__(
            f"no fleet replica answered after {len(attempts)} "
            f"attempt(s) ({described})"
        )
        self.attempts = attempts

    def __reduce__(self):
        return (FleetUnavailable, (self.attempts,))


# ----------------------------------------------------------------------
# Injected-fault exception types
# ----------------------------------------------------------------------
class InjectedFault(RuntimeError):
    """Base class for faults raised by the injection harness."""


class InjectedCrash(InjectedFault):
    """An injected in-point crash (ordinary exception path)."""


class InjectedHang(InjectedFault):
    """An injected hang: the engine treats it as a chain timeout."""


class InjectedWorkerExit(InjectedFault):
    """Serial-mode stand-in for a worker process dying."""

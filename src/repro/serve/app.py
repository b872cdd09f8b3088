"""The serving application: coalescing LRU over a worker pool.

:class:`ServeApp` is the transport-independent core of ``repro
serve``.  Every request takes the same path::

    parse -> admission (deadline -> units, pressure shedding)
          -> LRU lookup -> coalesce -> worker pool -> response body

and every path ends in a *canonical body* produced by the shared
:mod:`repro.serve.protocol` builders -- the same functions the CLI's
local mode uses, which is what the serving differential tests lean
on.

Design points:

* **Identity excludes the correlation id.**  Bodies are computed,
  cached and coalesced for the id-less request; the client's ``id``
  is stamped into the envelope afterwards (a canonical-JSON
  round-trip, byte-stable).  Two clients asking the same question
  share one search and one body.
* **Admission is where time dies.**  A ``deadline_s`` is folded to a
  deterministic search-unit budget before execution (PR 5
  ``UNITS_PER_SECOND``).  Then one ladder: at ``pressure`` in-flight
  searches a generous budget is shed to ``shed_budget`` units, and at
  ``queue`` in-flight searches (``REPRO_SERVE_QUEUE``) new searches
  are rejected with a typed
  :class:`~repro.runner.errors.ServerOverloaded` body carrying a
  deterministic ``retry_after_ms`` hint -- counted separately from
  fault-path errors, journaled as ``overloaded``, and never cached.
  The *effective* budget is reported in the response's ``budget``
  field and keys the LRU/coalescing fingerprint, so a shed answer is
  byte-identical to an explicit request at that budget and can never
  be served as a full-budget one; shedding itself is visible in the
  ``stats`` counters and the journal.
* **Typed errors, never hangs.**  A failed chain (or ``validate``
  job) maps to the sweep taxonomy through the engine's own
  :func:`~repro.runner.chain.chain_failure`; a
  :class:`~repro.runner.errors.WorkerCrash` (``BrokenProcessPool`` or
  the serial-mode :class:`~repro.runner.errors.InjectedWorkerExit`)
  also respawns the pool.  An optional wall-clock
  ``REPRO_SERVE_TIMEOUT`` bounds worker-mode requests as a
  :class:`~repro.runner.errors.ChainTimeout`.  Error bodies resolve
  coalesced followers but are never cached.
* **Retries advance the fault clock.**  A per-fingerprint attempt
  counter feeds the ``REPRO_FAULTS`` ``attempt=`` matchers, so a
  client retry of a failed request runs as attempt 1 -- a
  ``crash:attempt=0`` rule fires exactly once and the retry
  succeeds, matching the sweep engine's retry semantics.  A success
  drops its fingerprint's counter, so the table holds only requests
  whose last attempt failed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runner.cache import code_salt
from repro.runner.chain import chain_failure, chain_layout
from repro.runner.errors import (
    ChainTimeout,
    ServerOverloaded,
    WorkerCrash,
)
from repro.serve.coalesce import Coalescer
from repro.serve.journal import ServeJournal
from repro.serve.lru import SaltedLRU
from repro.serve.protocol import (
    ServeProtocolError,
    ServeRequest,
    canonical_body,
    error_response,
    execute_chain,
    execute_validate,
    parse_request,
    plan_response,
    request_fingerprint,
    sweep_response,
    validate_response,
)
from repro.settings import env_float, env_int

ENV_SERVE_LRU = "REPRO_SERVE_LRU"
ENV_SERVE_TIMEOUT = "REPRO_SERVE_TIMEOUT"
ENV_SERVE_QUEUE = "REPRO_SERVE_QUEUE"

#: Default LRU capacity (entries).
DEFAULT_LRU_ENTRIES = 256
#: Default in-flight-search threshold that triggers shedding.
DEFAULT_PRESSURE = 8
#: Default degraded search-unit budget applied while shedding.
DEFAULT_SHED_BUDGET = 4096
#: Default base of the deterministic ``retry_after_ms`` hint.
DEFAULT_RETRY_MS = 100
#: Overshoot factor cap in the ``retry_after_ms`` hint, so the
#: hint stays bounded however deep the storm.
MAX_RETRY_FACTOR = 64


def resolve_lru_entries(capacity: Optional[int] = None) -> int:
    """LRU capacity: argument, else ``REPRO_SERVE_LRU``, else 256."""
    if capacity is not None:
        return capacity
    value = env_int(ENV_SERVE_LRU, "an entry count", minimum=0)
    return DEFAULT_LRU_ENTRIES if value is None else value


def resolve_queue_bound(
    bound: Optional[int] = None,
) -> Optional[int]:
    """The bounded-admission limit: in-flight searches at which new
    searches are rejected with a typed ``ServerOverloaded`` body
    (``REPRO_SERVE_QUEUE``; unset or ``0`` means unbounded -- the
    historical behavior, byte-identical to a tree without it)."""
    if bound is None:
        bound = env_int(
            ENV_SERVE_QUEUE, "an in-flight search bound", minimum=0
        )
    if bound is None or bound < 1:
        return None
    return bound


def resolve_serve_timeout(
    timeout: Optional[float] = None,
) -> Optional[float]:
    """Optional wall-clock bound on worker-mode requests
    (``REPRO_SERVE_TIMEOUT`` seconds; unset/<=0 disables)."""
    if timeout is None:
        timeout = env_float(
            ENV_SERVE_TIMEOUT, "a number of seconds"
        )
    if timeout is not None and timeout <= 0:
        return None
    return timeout


class ServeApp:
    """The planning service core, independent of transport.

    Args:
        pool: A :class:`~repro.runner.pool.WorkerPool` /
            :class:`~repro.runner.pool.InlineWorkerPool` to execute
            on (required -- the CLI builds one via
            :func:`repro.runner.pool.make_pool`).
        lru: Response-body cache; defaults to a fresh
            :class:`SaltedLRU` sized by ``REPRO_SERVE_LRU``.
        journal: Optional :class:`ServeJournal` recording every
            response.
        pressure: In-flight searches at which budgets are shed
            (default :data:`DEFAULT_PRESSURE`; ``0`` disables
            shedding).
        shed_budget: The degraded unit budget applied while shedding
            (default :data:`DEFAULT_SHED_BUDGET`).
        timeout: Wall-clock request bound override (worker pools
            only; see :func:`resolve_serve_timeout`).
        queue: Bounded-admission override (see
            :func:`resolve_queue_bound`; ``0`` disables).
        retry_ms: Base of the ``retry_after_ms`` hint (default
            :data:`DEFAULT_RETRY_MS`).
    """

    def __init__(
        self,
        pool: Any,
        lru: Optional[SaltedLRU] = None,
        journal: Optional[ServeJournal] = None,
        pressure: Optional[int] = None,
        shed_budget: Optional[int] = None,
        timeout: Optional[float] = None,
        queue: Optional[int] = None,
        retry_ms: int = DEFAULT_RETRY_MS,
    ) -> None:
        self.pool = pool
        self.lru = (
            lru if lru is not None
            else SaltedLRU(resolve_lru_entries())
        )
        self.journal = journal
        self.coalescer = Coalescer()
        self.pressure = (
            DEFAULT_PRESSURE if pressure is None else pressure
        )
        self.shed_budget = (
            DEFAULT_SHED_BUDGET if shed_budget is None else shed_budget
        )
        self.timeout = resolve_serve_timeout(timeout)
        self.queue = resolve_queue_bound(queue)
        self.retry_ms = retry_ms
        self.requests = 0
        self.searches = 0
        self.errors = 0
        self.shed = 0
        self.overloaded = 0
        self._attempts: Dict[str, int] = {}
        self._inflight_searches = 0
        self._inflight_high_water = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    async def handle(
        self, document: Union[str, bytes, Mapping[str, Any]]
    ) -> str:
        """Serve one request; always returns a canonical body.

        Accepts a JSON string/bytes or an already-parsed object.
        Every failure mode -- malformed JSON, schema violations,
        worker crashes, timeouts -- produces a structured error
        body; this coroutine never raises for request-shaped input.
        """
        self.requests += 1
        try:
            if isinstance(document, (str, bytes)):
                try:
                    document = json.loads(document)
                except json.JSONDecodeError as error:
                    raise ServeProtocolError(
                        f"request is not valid JSON: {error}"
                    ) from None
            request = parse_request(document)
        except ServeProtocolError as error:
            self.errors += 1
            request_id = None
            if isinstance(document, Mapping):
                raw_id = document.get("id")
                if isinstance(raw_id, (str, int)):
                    request_id = str(raw_id)
            self._journal("?", "error", status="error")
            return canonical_body(
                error_response(error, request_id=request_id)
            )
        if request.op == "stats":
            body = canonical_body(self.stats_response(request))
            self._journal("stats", "stats", status="ok")
            return body
        return await self._serve(request)

    async def _serve(self, request: ServeRequest) -> str:
        request_id = request.request_id
        anonymous = dataclasses.replace(request, request_id=None)
        budget, shed = self._admission_budget(anonymous)
        fingerprint = request_fingerprint(anonymous, budget)
        cached = self.lru.get(fingerprint)
        if cached is not None:
            self._journal(
                request.op, "lru", fingerprint=fingerprint,
            )
            return _stamp_id(cached, request_id)
        leader, flight = self.coalescer.admit(fingerprint)
        if not leader:
            body = await flight
            self._journal(
                request.op, "coalesced", fingerprint=fingerprint,
            )
            return _stamp_id(body, request_id)
        if (
            self.queue is not None
            and self._inflight_searches >= self.queue
        ):
            # Bounded admission: the shedding ladder above already
            # tightened the budget, but even shed searches pile up
            # under a storm -- beyond the bound, reject with a
            # typed, never-cached overload body (resolving the
            # flight so coalesced followers share the rejection
            # rather than hanging).
            self.overloaded += 1
            body = canonical_body(error_response(
                ServerOverloaded(
                    self._inflight_searches, self.queue,
                    self._retry_after_ms(),
                ),
                request.op,
                status="overloaded",
            ))
            self.coalescer.resolve(fingerprint, body)
            self._journal(
                request.op, "overloaded",
                fingerprint=fingerprint, status="overloaded",
            )
            return _stamp_id(body, request_id)
        self._inflight_searches += 1
        self._inflight_high_water = max(
            self._inflight_high_water, self._inflight_searches
        )
        try:
            body, ok = await self._execute(
                anonymous, budget, shed, fingerprint
            )
        except Exception as error:  # pragma: no cover - last resort
            # Anything the typed paths below missed still resolves
            # the flight: followers must never hang.
            body, ok = canonical_body(
                error_response(error, anonymous.op)
            ), False
        finally:
            self._inflight_searches -= 1
        if ok:
            self.lru.put(fingerprint, body)
        else:
            self.errors += 1
        self.coalescer.resolve(fingerprint, body)
        status = json.loads(body).get("status")
        self._journal(
            request.op,
            "search" if ok else "error",
            fingerprint=fingerprint,
            status=status,
            provenance=json.loads(body).get("provenance"),
            shed=shed,
        )
        return _stamp_id(body, request_id)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admission_budget(
        self, request: ServeRequest
    ) -> Tuple[Optional[int], bool]:
        """The effective budget after load shedding.

        While :attr:`pressure` or more searches are in flight, the
        request budget is tightened to :attr:`shed_budget` (an
        already-tighter budget is kept).  The shed budget is part of
        the request fingerprint, so degraded answers are cached and
        coalesced under their own identity.
        """
        budget = request.budget
        if self.pressure < 1:
            return budget, False
        if self._inflight_searches < self.pressure:
            return budget, False
        if budget is not None and budget <= self.shed_budget:
            return budget, False
        self.shed += 1
        return self.shed_budget, True

    def _retry_after_ms(self) -> int:
        """The deterministic overload backoff hint.

        Proportional to how far past the bound the server is --
        ``base * (overshoot + 1)``, capped -- so identical server
        states produce identical hints (reruns and differential
        tests see the same bytes) and deeper storms push clients
        further away.
        """
        overshoot = self._inflight_searches - (self.queue or 0)
        return self.retry_ms * min(overshoot + 1, MAX_RETRY_FACTOR)

    # ------------------------------------------------------------------
    # Execution on the worker pool
    # ------------------------------------------------------------------
    async def _execute(
        self,
        request: ServeRequest,
        budget: Optional[int],
        shed: bool,
        fingerprint: str,
    ) -> Tuple[str, bool]:
        """Run one admitted request; returns ``(body, cacheable)``."""
        attempt = self._attempts.get(fingerprint, 0)
        self._attempts[fingerprint] = attempt + 1
        self.searches += 1
        extra_env = (
            dict(self.pool.env) if self.pool.serial else None
        )
        try:
            if request.op == "plan":
                results = await self._await_chains(
                    [list(request.points)], [[0]], False,
                    request, budget, attempt, extra_env,
                )
                document = plan_response(
                    request, results[0], budget=budget
                )
            elif request.op == "sweep":
                chains, indices = chain_layout(request.points)
                chain_results = await self._await_chains(
                    chains, indices, request.warm_start,
                    request, budget, attempt, extra_env,
                )
                document = sweep_response(
                    request, chains, chain_results, budget=budget
                )
            else:
                try:
                    future = self.pool.submit(
                        execute_validate, request.points[0], budget,
                        request.no_fallback, extra_env,
                    )
                    audit_doc, report_doc = await self._bounded(
                        asyncio.wrap_future(future), attempt
                    )
                except Exception as error:
                    raise self._chain_failure(
                        error, request.points, 0, attempt
                    )
                document = validate_response(
                    request, audit_doc, report_doc, budget=budget,
                )
        except Exception as error:
            return canonical_body(
                error_response(error, request.op)
            ), False
        self._attempts.pop(fingerprint)
        return canonical_body(document), True

    async def _await_chains(
        self,
        chains: List[List[Any]],
        indices: List[List[int]],
        warm_start: bool,
        request: ServeRequest,
        budget: Optional[int],
        attempt: int,
        extra_env: Optional[Dict[str, str]],
    ) -> List[List[Tuple[Optional[str], Dict[str, Any]]]]:
        """Fan chains onto the pool; re-raise the first chain's
        failure (in chain order) as its typed taxonomy member."""
        futures = [
            asyncio.wrap_future(self.pool.submit(
                execute_chain, chain, warm_start, budget,
                request.no_fallback, chain_id, indices[chain_id],
                attempt, self.pool.serial, extra_env,
            ))
            for chain_id, chain in enumerate(chains)
        ]
        outcomes = await self._bounded(
            asyncio.gather(*futures, return_exceptions=True),
            attempt,
        )
        for chain_id, outcome in enumerate(outcomes):
            if isinstance(outcome, BaseException):
                raise self._chain_failure(
                    outcome, chains[chain_id], chain_id, attempt
                )
        return list(outcomes)

    def _chain_failure(
        self,
        error: BaseException,
        chain: Sequence[Any],
        chain_id: int,
        attempt: int,
    ) -> Exception:
        """Map one job's failure to the sweep taxonomy; a dead
        worker also respawns the pool."""
        failure = chain_failure(
            error, chain, chain_id, attempt, self.timeout
        )
        if isinstance(failure, WorkerCrash):
            self.pool.respawn()
        return failure

    async def _bounded(
        self, awaitable: Any, attempt: int
    ) -> Any:
        """Apply the wall-clock bound (worker pools only).

        A timeout kills and respawns the pool -- the sweep engine's
        wedged-worker discipline -- and surfaces as a typed
        :class:`ChainTimeout`, so a hung worker can never hang a
        client.
        """
        if self.timeout is None or self.pool.serial:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, self.timeout)
        except asyncio.TimeoutError:
            self.pool.respawn()
            raise ChainTimeout(0, self.timeout, attempt) from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_response(
        self, request: Optional[ServeRequest] = None
    ) -> Dict[str, Any]:
        """The ``stats`` op response document (live counters)."""
        from repro.serve.protocol import PROTOCOL_VERSION

        document: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "stats",
            "ok": True,
            "status": "ok",
            "salt": code_salt(),
            "requests": self.requests,
            "searches": self.searches,
            "errors": self.errors,
            "shed": self.shed,
            "lru": self.lru.stats(),
            "coalesce": self.coalescer.stats(),
            "pool": {
                "jobs": self.pool.jobs,
                "serial": self.pool.serial,
                "generation": self.pool.generation,
            },
        }
        # Conditional block: stats bodies keep their pre-queue bytes
        # unless bounded admission is actually configured.
        if self.queue is not None:
            document["queue"] = {
                "bound": self.queue,
                "overloaded": self.overloaded,
                "high_water": self._inflight_high_water,
            }
        if request is not None and request.request_id is not None:
            document["id"] = request.request_id
        return document

    def health_response(self) -> Dict[str, Any]:
        """The ``GET /healthz`` document -- the liveness probe payload.

        Liveness plus the vitals a probe can record: pool generation (how many times workers were
        respawned), in-flight search count, the LRU's
        hit/miss/eviction/invalidation counters, and the shared plan
        cache's disk pressure (bytes on disk against the configured
        budget, and whether writes are in brownout).  Rendered
        through :func:`canonical_body` like every other response, so
        the payload is canonical-JSON stable: same state, same
        bytes.
        """
        from repro.serve.protocol import PROTOCOL_VERSION

        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "salt": code_salt(),
            "generation": self.pool.generation,
            "inflight": self._inflight_searches,
            "requests": self.requests,
            "lru": self.lru.stats(),
            "cache": self._cache_health(),
        }

    @staticmethod
    def _cache_health() -> Dict[str, Any]:
        """Disk usage + brownout state of the shared plan cache.

        Resolved from the serving process's environment -- the same
        view the worker processes inherit -- so a probe sees the disk
        pressure the workers are actually writing under.
        """
        from repro.runner.cache import default_cache

        cache = default_cache()
        if cache is None:
            return {"enabled": False}
        stats = cache.stats()
        return {
            "enabled": True,
            "bytes": stats["bytes"],
            "entries": stats["entries"],
            "max_bytes": stats["max_bytes"],
            "quarantined": stats["quarantined"],
            "brownout": stats["brownout"],
        }

    def close(self) -> None:
        """Shut the worker pool down."""
        self.pool.close()

    def _journal(
        self,
        op: str,
        source: str,
        fingerprint: Optional[str] = None,
        status: Optional[str] = None,
        provenance: Optional[str] = None,
        shed: bool = False,
    ) -> None:
        if self.journal is None:
            return
        self.journal.record(
            op, source,
            fingerprint=fingerprint,
            status=status,
            provenance=provenance,
            generation=self.pool.generation,
            shed=shed,
        )


def _stamp_id(body: str, request_id: Optional[str]) -> str:
    """Stamp a correlation id into a cached/shared canonical body.

    Bodies are computed for the id-less request (identity excludes
    the id); a canonical-JSON round-trip is byte-stable, so stamping
    never perturbs the rest of the document.
    """
    if request_id is None:
        return body
    document = json.loads(body)
    document["id"] = request_id
    return canonical_body(document)

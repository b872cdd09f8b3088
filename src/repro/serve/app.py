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
  ``UNITS_PER_SECOND``); under queue pressure (too many in-flight
  searches) the budget is tightened to the shed budget instead of
  queueing unboundedly.  Behind the shedding ladder sits *bounded
  admission* (``REPRO_SERVE_QUEUE``): when even shed-budget
  searches exceed the bound, new searches are rejected with a typed
  :class:`~repro.runner.errors.ServerOverloaded` body carrying a
  deterministic ``retry_after_ms`` hint -- counted separately from
  fault-path errors, journaled as ``overloaded``, and never cached.  The *effective* budget is reported in the
  response's ``budget`` field and keys the LRU/coalescing
  fingerprint, so a shed answer is byte-identical to an explicit
  request at that budget and can never be served as a full-budget
  one; shedding itself is visible in the ``stats`` counters and the
  journal.
* **Typed errors, never hangs.**  Worker crashes
  (``BrokenProcessPool`` or the serial-mode
  :class:`~repro.runner.errors.InjectedWorkerExit`) respawn the pool
  and return a structured :class:`~repro.runner.errors.WorkerCrash`
  response; injected hangs map to
  :class:`~repro.runner.errors.ChainTimeout`; an optional wall-clock
  ``REPRO_SERVE_TIMEOUT`` bounds worker-mode requests the same way.
  Error bodies resolve coalesced followers but are never cached.
* **Retries advance the fault clock.**  A per-fingerprint attempt
  counter feeds the ``REPRO_FAULTS`` ``attempt=`` matchers, so a
  client retry of a crashed request runs as attempt 1 -- a
  ``crash:attempt=0`` rule fires exactly once and the retry
  succeeds, matching the sweep engine's retry semantics.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.runner.cache import code_salt
from repro.runner.errors import (
    ChainTimeout,
    InjectedHang,
    InjectedWorkerExit,
    PointFailure,
    ServerOverloaded,
    SweepError,
    WorkerCrash,
)
from repro.runner.faults import replica_context
from repro.serve.coalesce import Coalescer
from repro.serve.journal import ServeJournal
from repro.serve.lru import SaltedLRU
from repro.serve.protocol import (
    ServeProtocolError,
    ServeRequest,
    assemble_sweep_result,
    canonical_body,
    error_response,
    execute_chain,
    execute_validate,
    parse_request,
    plan_response,
    request_fingerprint,
    sweep_chain_layout,
    sweep_response,
    validate_response,
)
from repro.settings import armed_faults, env_float, env_int

ENV_SERVE_LRU = "REPRO_SERVE_LRU"
ENV_SERVE_PRESSURE = "REPRO_SERVE_PRESSURE"
ENV_SERVE_SHED_BUDGET = "REPRO_SERVE_SHED_BUDGET"
ENV_SERVE_TIMEOUT = "REPRO_SERVE_TIMEOUT"
ENV_SERVE_QUEUE = "REPRO_SERVE_QUEUE"
ENV_SERVE_RETRY_MS = "REPRO_SERVE_RETRY_MS"

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


def resolve_pressure(pressure: Optional[int] = None) -> int:
    """Shedding threshold: in-flight searches at which budgets
    tighten (``REPRO_SERVE_PRESSURE``; ``0`` disables shedding)."""
    if pressure is not None:
        return pressure
    value = env_int(
        ENV_SERVE_PRESSURE, "an in-flight search count", minimum=0
    )
    return DEFAULT_PRESSURE if value is None else value


def resolve_shed_budget(budget: Optional[int] = None) -> int:
    """The degraded unit budget applied under pressure
    (``REPRO_SERVE_SHED_BUDGET``)."""
    if budget is not None:
        return budget
    value = env_int(
        ENV_SERVE_SHED_BUDGET, "a search unit budget", minimum=1
    )
    return DEFAULT_SHED_BUDGET if value is None else value


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


def resolve_retry_ms(base: Optional[int] = None) -> int:
    """Base milliseconds of the deterministic ``retry_after_ms``
    hint (``REPRO_SERVE_RETRY_MS``; default 100)."""
    if base is not None:
        return base
    value = env_int(
        ENV_SERVE_RETRY_MS, "a millisecond count", minimum=1
    )
    return DEFAULT_RETRY_MS if value is None else value


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
        pressure: Shedding threshold override (see
            :func:`resolve_pressure`).
        shed_budget: Degraded budget override (see
            :func:`resolve_shed_budget`).
        timeout: Wall-clock request bound override (worker pools
            only; see :func:`resolve_serve_timeout`).
        queue: Bounded-admission override (see
            :func:`resolve_queue_bound`; ``0`` disables).
        retry_ms: Base of the ``retry_after_ms`` hint (see
            :func:`resolve_retry_ms`).
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
        retry_ms: Optional[int] = None,
    ) -> None:
        self.pool = pool
        self.lru = (
            lru if lru is not None
            else SaltedLRU(resolve_lru_entries())
        )
        self.journal = journal
        self.coalescer = Coalescer()
        self.pressure = resolve_pressure(pressure)
        self.shed_budget = resolve_shed_budget(shed_budget)
        self.timeout = resolve_serve_timeout(timeout)
        self.queue = resolve_queue_bound(queue)
        self.retry_ms = resolve_retry_ms(retry_ms)
        self.requests = 0
        self.searches = 0
        self.errors = 0
        self.shed = 0
        self.overloaded = 0
        self.learn_consulted = 0
        self.learn_predicted = 0
        self.learn_saved = 0
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

        Replica-level fault rules (``replica-kill`` /
        ``replica-hang``) are consulted here, at the request
        boundary, against the 0-based served-request count -- the
        deterministic clock the fleet battery kills a replica on.
        """
        plan = armed_faults()
        if plan:
            plan.fire_replica(**replica_context(self.requests))
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
        # Genuine cold miss: consult the learned predictor.  A
        # prediction lets the search spend fewer units for the same
        # near-optimal plan, so the effective budget is tightened and
        # -- like shedding -- becomes part of the response identity:
        # the body is byte-identical to an explicit request at the
        # tightened budget with REPRO_LEARN on.
        budget, saved, learned = self._learn_budget(
            anonymous, budget
        )
        if saved:
            fingerprint = request_fingerprint(anonymous, budget)
            cached = self.lru.get(fingerprint)
            if cached is not None:
                self._journal(
                    request.op, "lru", fingerprint=fingerprint,
                    learned=learned, saved=saved,
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
            learned=learned,
            saved=saved,
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

    def _learn_budget(
        self, request: ServeRequest, budget: Optional[int]
    ) -> Tuple[Optional[int], int, bool]:
        """Tighten a cold miss's budget when a prediction exists.

        Returns ``(effective budget, units saved, predicted)``.  Only
        budgeted ``plan`` requests tighten (halved, floor 1): the
        prediction sits in the search's incumbent pool uncharged, so
        the tightened search still returns a plan at least as good as
        the prediction.  Unbudgeted requests run complete searches --
        the predictor can't save units there, so only the counters
        move.  With ``REPRO_LEARN`` off this never consults anything
        and the serve path is byte-identical to pre-learn behavior.
        """
        if request.op != "plan":
            return budget, 0, False
        from repro.learn import learn_enabled

        if not learn_enabled():
            return budget, 0, False
        self.learn_consulted += 1
        if not self._learn_predictions(request):
            return budget, 0, False
        self.learn_predicted += 1
        if budget is None or budget <= 1:
            return budget, 0, True
        tightened = max(1, budget // 2)
        saved = budget - tightened
        self.learn_saved += saved
        return tightened, saved, True

    def _learn_predictions(
        self, request: ServeRequest
    ) -> Tuple[Tuple[int, ...], ...]:
        """The model's predictions for a plan request's point.

        The workers re-derive the same predictions from the shared
        cache when they execute the (tightened) request -- this
        lookup only decides admission, it is never threaded into the
        search by hand.
        """
        from repro.arch.spec import named_architecture
        from repro.learn import predictions_for

        point = request.points[0]
        try:
            return predictions_for(
                point.workload(), named_architecture(point.arch)
            )
        except (KeyError, ValueError):
            # Unknown model/arch names fail later with a typed error
            # body; admission just declines to tighten.
            return ()

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
                chains, indices = sweep_chain_layout(
                    request.points
                )
                chain_results = await self._await_chains(
                    chains, indices, request.warm_start,
                    request, budget, attempt, extra_env,
                )
                result = assemble_sweep_result(
                    request.points, chains, chain_results
                )
                document = sweep_response(
                    request, result, budget=budget
                )
            else:
                future = self.pool.submit(
                    execute_validate, request.points[0], budget,
                    request.no_fallback, extra_env,
                )
                audit_doc, report_doc = await self._bounded(
                    asyncio.wrap_future(future), attempt
                )
                document = validate_response(
                    request, audit_doc, report_doc, budget=budget,
                )
        except SweepError as error:
            return canonical_body(
                error_response(error, request.op)
            ), False
        except Exception as error:
            return canonical_body(
                error_response(error, request.op)
            ), False
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
                raise self._typed_failure(
                    outcome, chains[chain_id], chain_id, attempt
                )
        return list(outcomes)

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

    def _typed_failure(
        self,
        error: BaseException,
        chain: List[Any],
        chain_id: int,
        attempt: int,
    ) -> SweepError:
        """Map one chain failure to the sweep-engine taxonomy,
        respawning the pool when the worker died."""
        if isinstance(error, BrokenProcessPool):
            self.pool.respawn()
            return WorkerCrash(
                chain_id, attempt, "worker process died"
            )
        if isinstance(error, InjectedWorkerExit):
            self.pool.respawn()
            return WorkerCrash(chain_id, attempt, str(error))
        if isinstance(error, InjectedHang):
            return ChainTimeout(
                chain_id, self.timeout or 0.0, attempt
            )
        if isinstance(error, SweepError):
            return error
        return PointFailure(
            chain[0], chain_id, attempt,
            type(error).__name__, str(error),
        )

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
        # Conditional block: stats bodies keep their pre-learn bytes
        # unless the predictor is actually switched on.
        from repro.learn import learn_enabled

        if learn_enabled():
            document["learn"] = {
                "consulted": self.learn_consulted,
                "predicted": self.learn_predicted,
                "saved": self.learn_saved,
            }
        if request is not None and request.request_id is not None:
            document["id"] = request.request_id
        return document

    def health_response(self) -> Dict[str, Any]:
        """The ``GET /healthz`` document -- the supervisor's probe
        payload.

        Liveness plus the vitals the fleet supervisor records with
        every probe: pool generation (how many times workers were
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
        view the worker processes inherit -- so the supervisor's
        probes see the disk pressure its replicas are actually
        writing under.
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
        learned: bool = False,
        saved: int = 0,
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
            learned=learned,
            saved=saved,
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

"""Point- and chain-level pricing: the unit of work every path shares.

A *grid point* (:class:`GridPoint`) is one executor priced on one
workload and architecture; a *chain* is the points of one
executor/model/architecture/batch family in ascending sequence order.
:func:`_run_chain` prices a chain in order -- serving each point's
report from the persistent :class:`~repro.runner.cache.PlanCache`
when possible, consulting the ``REPRO_FAULTS`` plan at every point
boundary and typing every failure.  Everything that prices points goes through it: a local
``repro plan``, a served request (:mod:`repro.serve.protocol`) and
each chain :func:`repro.runner.parallel.run_grid` fans out.

Every caller of :func:`_run_chain` -- ``run_grid`` serial or pooled,
``execute_request`` and ``ServeApp`` -- also shares its chain layout
(:func:`chain_layout`) and failure taxonomy (:func:`chain_failure`).

This module holds no process machinery.  Retries, journaling, pool
fan-out and worker kill/respawn live in :mod:`repro.runner.parallel`
and :mod:`repro.runner.pool`, so a local plan loads none of them.

``jobs`` resolution order (:func:`resolve_jobs`): explicit argument,
then ``REPRO_JOBS``, then 1 (serial).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.arch.spec import named_architecture
from repro.baselines.registry import executor_params, named_executor
from repro.model.config import named_model
from repro.model.workload import Workload
from repro.resilience.budget import fallback_enabled, resolve_budget
from repro.runner.cache import (
    arch_fingerprint,
    code_salt,
    default_cache,
    stable_hash,
    workload_fingerprint,
)
from repro.runner.errors import (
    ChainTimeout,
    InfeasiblePoint,
    InjectedHang,
    InjectedWorkerExit,
    PointFailure,
    SweepConfigError,
    SweepError,
    WorkerCrash,
)
from repro.settings import armed_faults, env_int

if TYPE_CHECKING:
    from repro.sim.stats import RunReport

ENV_JOBS = "REPRO_JOBS"

#: Default batch size (Section 6.1: ``B = 64`` throughout).
DEFAULT_BATCH = 64

#: Per-point sweep statuses carried by
#: :class:`~repro.runner.result.SweepResult`.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped"
STATUS_INFEASIBLE = "infeasible"

#: Marker key wrapping a serialized :class:`InfeasiblePoint` in a
#: chain's result stream (in place of a report document).
_INFEASIBLE_KEY = "__infeasible__"


def _is_infeasible_document(document: Dict[str, Any]) -> bool:
    return _INFEASIBLE_KEY in document


@dataclass(frozen=True)
class GridPoint:
    """One sweep point: an executor priced on one workload.

    Attributes:
        executor: Registry name (``unfused`` ... ``transfusion``).
        model: Model-zoo preset name.
        seq_len: Sequence length ``P``.
        arch: Architecture preset name (Table 3).
        batch: Batch size ``B``.
        causal: Whether attention is causally masked.
    """

    executor: str
    model: str
    seq_len: int
    arch: str
    batch: int = DEFAULT_BATCH
    causal: bool = False

    def workload(self) -> Workload:
        """The workload this point prices."""
        return Workload(
            named_model(self.model),
            seq_len=self.seq_len,
            batch=self.batch,
            causal=self.causal,
        )

    def family(self) -> Tuple[str, str, str, int, bool]:
        """Chain grouping key: everything except the sequence length."""
        return (
            self.executor, self.model, self.arch, self.batch,
            self.causal,
        )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        jobs = env_int(ENV_JOBS, "an integer worker count")
        if jobs is None:
            jobs = 1
    if jobs < 1:
        raise SweepConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def report_cache_payload(point: GridPoint) -> Dict[str, Any]:
    """The content-hash payload identifying one point's report.

    Built from the executor registry's constructor parameters, never
    from an executor instance: a disk-cache hit loads no executor.
    """
    payload = {
        "kind": "report",
        "salt": code_salt(),
        "executor": point.executor,
        "executor_params": executor_params(point.executor),
        "workload": workload_fingerprint(point.workload()),
        "arch": arch_fingerprint(named_architecture(point.arch)),
    }
    # Conditional keys: a budgeted (possibly degraded) report is a
    # different artifact from the unbudgeted one, but unbudgeted
    # sweeps keep their pre-existing disk hashes byte-for-byte.
    budget = resolve_budget()
    if budget is not None:
        payload["budget"] = budget
    if not fallback_enabled():
        payload["no_fallback"] = True
    return payload


def _point_document(
    point: GridPoint,
    cache: Union[Any, None],
    build: Callable[[], Any],
) -> Tuple[Optional[str], Dict[str, Any]]:
    """(cache key, serialized report document) for one point.

    The document is served from the persistent cache when possible;
    both the serial and the parallel path reconstruct reports from
    these documents, which is what makes their outputs byte-identical.
    The key is ``None`` when the cache is disabled.  ``build`` returns
    the executor and is called only on a miss, so a hit never imports
    the executor stack.
    """
    key = payload = None
    if cache is not None:
        payload = report_cache_payload(point)
        key = stable_hash(payload)
        document = cache.get("report", key)
        if document is not None:
            return key, document
    # Serialization loads on a miss only: a hit returns the cached
    # document as it is.
    from repro.core.serialize import report_to_dict

    report = build().run(
        point.workload(), named_architecture(point.arch)
    )
    document = report_to_dict(report)
    if cache is not None:
        cache.put("report", key, document, payload)
    return key, document


def compute_report(
    point: GridPoint,
    cache: Union[Any, None] = None,
) -> RunReport:
    """One point's report, served from the persistent cache if possible.

    Args:
        point: The grid point to price.
        cache: A :class:`PlanCache`, or ``None`` to use the
            environment default (which may be disabled).
    """
    if cache is None:
        cache = default_cache()
    from repro.core.serialize import report_from_dict

    _, document = _point_document(
        point, cache, lambda: named_executor(point.executor)
    )
    return report_from_dict(document)


def _chains(
    points: Sequence[GridPoint],
) -> List[List[GridPoint]]:
    """Group points into per-family chains, sequence ascending.

    Chain order follows first appearance in ``points``; duplicates
    are dropped (the result dict re-expands them).
    """
    grouped: Dict[Tuple, List[GridPoint]] = {}
    for point in points:
        grouped.setdefault(point.family(), [])
        if point not in grouped[point.family()]:
            grouped[point.family()].append(point)
    return [
        sorted(chain, key=lambda p: p.seq_len)
        for chain in grouped.values()
    ]


def chain_layout(
    points: Sequence[GridPoint],
) -> Tuple[List[List[GridPoint]], List[List[int]]]:
    """The chains of ``points`` and each chain point's input index.

    Returns ``(chains, indices)``: per-family chains with sequence
    lengths ascending (:func:`_chains`), and for each chain point the
    position of its first occurrence in ``points`` -- the
    fault-injection ``point=`` matcher space.
    """
    chains = _chains(points)
    first_index: Dict[GridPoint, int] = {}
    for position, point in enumerate(points):
        first_index.setdefault(point, position)
    indices = [
        [first_index[point] for point in chain] for chain in chains
    ]
    return chains, indices


def _is_broken_pool(error: BaseException) -> bool:
    # A BrokenProcessPool can only exist once concurrent.futures has
    # loaded, so a serial sweep never imports it just to ask.
    process = sys.modules.get("concurrent.futures.process")
    return process is not None and isinstance(
        error, process.BrokenProcessPool
    )


def chain_failure(
    error: BaseException,
    chain: Sequence[GridPoint],
    chain_id: int,
    attempt: int,
    timeout: Optional[float],
) -> SweepError:
    """Map an exception one chain raised to the sweep taxonomy.

    An injected hang that gave up on its own is a timeout (``0.0``
    seconds when no ``timeout`` was configured).  A
    :class:`WorkerCrash` tells the caller its worker died, so the
    pool must be abandoned and respawned.
    """
    if isinstance(error, InjectedHang):
        return ChainTimeout(chain_id, timeout or 0.0, attempt)
    if isinstance(error, InjectedWorkerExit) or _is_broken_pool(error):
        return WorkerCrash(
            chain_id, attempt, str(error) or type(error).__name__
        )
    if isinstance(error, SweepError):
        return error
    return PointFailure(
        chain[0], chain_id, attempt, type(error).__name__, str(error)
    )


def _run_chain(
    chain: Sequence[GridPoint],
    chain_index: int = 0,
    attempt: int = 0,
    indices: Optional[Sequence[int]] = None,
    serial: bool = True,
) -> List[Tuple[Optional[str], Dict[str, Any]]]:
    """Price one chain in order.

    Returns ``(cache key, serialized report document)`` pairs aligned
    with the chain.  Consults the ``REPRO_FAULTS`` injection plan (when
    one is armed) at every point boundary, and wraps any per-point
    exception into a typed :class:`PointFailure` naming the point,
    chain and attempt.

    Args:
        chain: The points of one family, sequence ascending.
        chain_index: This chain's index in the sweep (fault-injection
            and error-attribution context).
        attempt: 0-based retry attempt (fault-injection context).
        indices: Global input index of each chain point (fault
            ``point=`` matchers); defaults to chain positions.
        serial: Whether this call runs in the parent process.
    """
    plan = armed_faults()
    cache = default_cache()
    # An unknown executor name fails the whole chain up front, as a
    # plain KeyError rather than a per-point failure.
    executor_params(chain[0].executor)
    executor = None

    def chain_executor() -> Any:
        # Built on the chain's first miss, then reused.
        nonlocal executor
        if executor is None:
            executor = named_executor(chain[0].executor)
        return executor

    results = []
    for position, point in enumerate(chain):
        index = indices[position] if indices is not None else position
        try:
            if plan is not None:
                plan.fire(
                    serial=serial, chain=chain_index, point=index,
                    attempt=attempt,
                )
            key, document = _point_document(
                point, cache, chain_executor
            )
        except (InjectedHang, InjectedWorkerExit):
            raise
        except InfeasiblePoint as failure:
            # Terminal diagnosis, not a fault: record the typed
            # verdict in the result stream (no report document
            # exists) and keep pricing the rest of the chain.
            from repro.core.serialize import failure_to_dict

            results.append((None, {
                _INFEASIBLE_KEY: failure_to_dict(
                    failure.with_point(point)
                ),
            }))
            continue
        except SweepError:
            raise
        except Exception as error:
            raise PointFailure(
                point, chain_index, attempt,
                type(error).__name__, str(error),
            ) from error
        results.append((key, document))
    return results

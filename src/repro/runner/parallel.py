"""Parallel sweep engine: fan a report grid out over processes.

:func:`run_grid` evaluates a list of :class:`GridPoint`\\ s -- the
(executor, model, sequence, architecture) tuples behind every paper
figure -- with four guarantees:

* **Deterministic ordering** -- results come back keyed in the input
  order, whatever the execution schedule was.
* **Serial/parallel equivalence** -- ``jobs=1`` and ``jobs=N``
  produce byte-identical reports.  Points are grouped into *chains*
  (one per executor/model/architecture/batch family, sequence lengths
  ascending); a chain always runs on a single worker, so warm-start
  threading inside a chain is identical in both modes, and both modes
  reconstruct reports through the same serialization round-trip.
  Retries and resume preserve the equivalence: a retried chain
  recomputes deterministically, and a resumed chain is served from
  the same cache documents an uninterrupted run produces.
* **Persistent caching** -- each point consults the content-addressed
  :class:`~repro.runner.cache.PlanCache` before computing, so a warm
  rerun is served from disk.
* **Fault tolerance** -- each chain gets a per-chain timeout
  (``REPRO_TIMEOUT``, measured from when the chain is first observed
  executing on its worker, so queue time is not charged and a hung
  early chain is detected while later chains keep finishing) and
  bounded deterministic retries (``REPRO_RETRIES``); a crashed pool
  worker (``BrokenProcessPool``) only re-runs the chains that were
  lost with it, on a respawned pool, and the abandoned pool's
  workers are killed so a genuinely hung search cannot keep burning
  CPU or stall interpreter exit.  ``strict=False`` degrades gracefully: the returned
  :class:`SweepResult` carries per-point status (``ok`` / ``failed``
  / ``timeout`` / ``skipped`` / ``infeasible``) and the partial
  reports instead of raising on the first failure.  A
  :class:`~repro.runner.journal.SweepJournal` checkpoints every
  completed point's cache key, so ``run_grid(..., resume=True)``
  skips finished work after a crash.
* **Typed infeasibility** -- a point whose workload provably fits no
  tiling (:class:`~repro.runner.errors.InfeasiblePoint`, raised with
  a Table-2 buffer diagnosis) is a *terminal* outcome, not a fault:
  it gets status ``infeasible``, is never retried, never trips
  ``strict``, and its diagnosis is journaled so resume skips the
  proof.  The rest of the chain keeps running (warm-start threading
  simply skips the infeasible point).

Warm starting (``warm_start=True``) threads each chain's TileSeek
best assignment into the next (larger) sequence length's search as an
additional incumbent -- the DNNFuser-style mapping reuse across
similar problems.  Warm assignments are part of every cache key, so
warm and cold sweeps never collide.

Pricing one chain -- points, cache documents, warm-start threading,
fault sites -- is :mod:`repro.runner.chain`; this module is the
fan-out around it: retries, journaling and the process pool's
kill/respawn discipline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.baselines.registry import preload_executors
from repro.core.serialize import failure_from_dict, report_from_dict
from repro.resilience.budget import ENV_BUDGET, ENV_NO_FALLBACK
from repro.runner.cache import ENV_CACHE, ENV_CACHE_DIR, default_cache
from repro.runner.chain import (
    _INFEASIBLE_KEY,
    STATUS_FAILED,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    GridPoint,
    _chains,
    _is_infeasible_document,
    _run_chain,
    resolve_jobs,
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
from repro.runner.faults import (
    backoff_seconds,
    resolve_retries,
    resolve_timeout,
)
from repro.runner.journal import SweepJournal, point_fingerprint
from repro.runner.result import SweepResult

# multiprocessing and concurrent.futures are imported where a sweep
# first fans out: a serial sweep never needs them.
if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.sim.stats import RunReport


def _cache_env(
    cache_dir: Union[str, os.PathLike, None], use_cache: bool
) -> Dict[str, str]:
    """Environment overrides configuring the cache for one sweep."""
    env: Dict[str, str] = {}
    if not use_cache:
        env[ENV_CACHE] = "0"
    elif cache_dir is not None:
        env[ENV_CACHE_DIR] = str(cache_dir)
    return env


def _worker_init(env: Dict[str, str]) -> None:
    """Pool-worker initializer: point the worker at the sweep cache."""
    os.environ.update(env)


@dataclass
class _ChainOutcome:
    """One chain's terminal state after retries."""

    status: str
    results: List[Tuple[Optional[str], Dict[str, Any]]] = field(
        default_factory=list
    )
    error: Optional[SweepError] = None


def _failure_status(error: SweepError) -> str:
    return (
        STATUS_TIMEOUT if isinstance(error, ChainTimeout)
        else STATUS_FAILED
    )


def _journal_chain(
    journal: Optional[SweepJournal],
    chain: Sequence[GridPoint],
    outcome: _ChainOutcome,
    warm_start: bool,
) -> None:
    """Checkpoint a freshly completed chain's points."""
    if journal is None or outcome.status != STATUS_OK:
        return
    for point, (key, document) in zip(chain, outcome.results):
        if _is_infeasible_document(document):
            journal.record_infeasible(
                point, document[_INFEASIBLE_KEY], warm_start
            )
        else:
            journal.record(point, key, warm_start)


def _serial_outcomes(
    chains: Sequence[Sequence[GridPoint]],
    chain_ids: Sequence[int],
    indices: Sequence[Sequence[int]],
    warm_start: bool,
    retries: int,
    timeout: Optional[float],
    strict: bool,
    journal: Optional[SweepJournal],
    outcomes: List[Optional[_ChainOutcome]],
) -> None:
    """Run the pending chains in-process, with retries.

    Injected hangs surface as cooperative :class:`ChainTimeout`\\ s
    (an in-process computation cannot be preempted); real per-chain
    wall-clock timeouts require ``jobs > 1``.
    """
    for chain_id in chain_ids:
        chain = chains[chain_id]
        attempt = 0
        while True:
            error: SweepError
            try:
                outcome = _ChainOutcome(
                    STATUS_OK,
                    results=_run_chain(
                        chain, warm_start, chain_id, attempt,
                        indices[chain_id], serial=True,
                    ),
                )
                outcomes[chain_id] = outcome
                _journal_chain(journal, chain, outcome, warm_start)
                break
            except InjectedHang:
                error = ChainTimeout(chain_id, timeout or 0.0, attempt)
            except InjectedWorkerExit as exc:
                error = WorkerCrash(chain_id, attempt, str(exc))
            except SweepError as exc:
                error = exc
            except Exception as exc:
                error = PointFailure(
                    chain[0], chain_id, attempt,
                    type(exc).__name__, str(exc),
                )
            if attempt < retries:
                time.sleep(backoff_seconds(f"chain-{chain_id}", attempt))
                attempt += 1
                continue
            if strict:
                raise error
            outcomes[chain_id] = _ChainOutcome(
                _failure_status(error), error=error
            )
            break


#: How often the parallel collector re-polls while enforcing
#: per-chain deadlines (to stamp the clock of chains that just left
#: the queue and started executing).
_DEADLINE_POLL_SECONDS = 0.25


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """Forcefully terminate the workers of an abandoned pool.

    ``shutdown(wait=False)`` alone is not enough when a worker is
    genuinely hung: pool workers are non-daemon processes that
    ``concurrent.futures`` joins at interpreter exit, so a wedged
    worker would keep burning CPU alongside the respawned retry pool
    and then stall process shutdown.  SIGKILL is safe here -- a
    finished chain's results already crossed the result pipe, cache
    writes are atomic (temp file + rename), and the lost chains are
    re-run on a fresh pool -- but it cannot be trapped, so any
    worker-side state outside those channels would be lost.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, ValueError, AttributeError):
            pass


def _harvest_future(
    chain_id: int,
    future: Any,
    chain: Sequence[GridPoint],
    attempt: int,
    timeout: Optional[float],
    journal: Optional[SweepJournal],
    warm_start: bool,
    outcomes: List[Optional[_ChainOutcome]],
    failures: Dict[int, SweepError],
) -> bool:
    """Fold one settled future into ``outcomes`` / ``failures``.

    Returns whether the pool must be abandoned (its worker died).
    """
    from concurrent.futures.process import BrokenProcessPool

    try:
        outcome = _ChainOutcome(STATUS_OK, results=future.result())
        outcomes[chain_id] = outcome
        _journal_chain(journal, chain, outcome, warm_start)
    except BrokenProcessPool as exc:
        failures[chain_id] = WorkerCrash(
            chain_id, attempt, str(exc) or type(exc).__name__
        )
        return True
    except InjectedHang:
        # The injected hang gave up on its own (no timeout was
        # configured to preempt it); the worker is healthy again.
        failures[chain_id] = ChainTimeout(
            chain_id, timeout or 0.0, attempt
        )
    except SweepError as exc:
        failures[chain_id] = exc
    except Exception as exc:
        failures[chain_id] = PointFailure(
            chain[0], chain_id, attempt,
            type(exc).__name__, str(exc),
        )
    return False


def _collect_round(
    futures: Dict[int, Any],
    chains: Sequence[Sequence[GridPoint]],
    attempts: Mapping[int, int],
    timeout: Optional[float],
    journal: Optional[SweepJournal],
    warm_start: bool,
    outcomes: List[Optional[_ChainOutcome]],
    failures: Dict[int, SweepError],
) -> Tuple[bool, List[int]]:
    """Settle one pool round's futures under per-chain deadlines.

    Each chain's timeout clock starts when its future is first
    observed executing on a worker (polled every
    ``_DEADLINE_POLL_SECONDS``), not when the parent happens to ask
    for its result -- so queue time behind a busy pool is never
    charged, and a hung early chain is flagged promptly even while
    later chains keep finishing.  Detection granularity is the poll
    interval.

    Returns ``(abandoned, stranded)``: whether the pool must be
    abandoned (a worker hung or died), and the chains whose futures
    never started because every worker was wedged -- those rerun on
    the next round's fresh pool without being charged an attempt.
    """
    from concurrent.futures import FIRST_COMPLETED
    from concurrent.futures import wait as wait_futures

    abandoned = False
    deadlines: Dict[int, float] = {}
    waiting = dict(futures)
    stranded: List[int] = []
    while waiting:
        if timeout is not None:
            now = time.monotonic()
            for chain_id, future in waiting.items():
                if chain_id not in deadlines and future.running():
                    deadlines[chain_id] = now + timeout
            remaining = [
                max(0.0, deadlines[chain_id] - now)
                for chain_id in waiting if chain_id in deadlines
            ]
            wait_for = min([_DEADLINE_POLL_SECONDS] + remaining)
            done, _ = wait_futures(
                list(waiting.values()), timeout=wait_for,
                return_when=FIRST_COMPLETED,
            )
        else:
            done, _ = wait_futures(
                list(waiting.values()), return_when=FIRST_COMPLETED
            )
        settled = sorted(
            chain_id for chain_id, future in waiting.items()
            if future in done
        )
        for chain_id in settled:
            abandoned |= _harvest_future(
                chain_id, waiting.pop(chain_id), chains[chain_id],
                attempts[chain_id], timeout, journal, warm_start,
                outcomes, failures,
            )
        if timeout is None:
            continue
        now = time.monotonic()
        expired = sorted(
            chain_id for chain_id in waiting
            if deadlines.get(chain_id, now + 1.0) <= now
        )
        for chain_id in expired:
            # The worker is stuck; drop the chain here and recover
            # it on a fresh pool (this one's workers get killed).
            failures[chain_id] = ChainTimeout(
                chain_id, timeout, attempts[chain_id]
            )
            waiting.pop(chain_id).cancel()
            abandoned = True
        if abandoned and waiting and not any(
            future.running() or future.done()
            for future in waiting.values()
        ):
            # Every worker is wedged on a timed-out chain, so the
            # queued futures can never start on this pool.  Send
            # them to the next round's fresh pool without charging
            # an attempt -- they never ran.
            stranded = sorted(waiting)
            for chain_id in stranded:
                waiting.pop(chain_id).cancel()
    return abandoned, stranded


def _parallel_outcomes(
    chains: Sequence[Sequence[GridPoint]],
    chain_ids: Sequence[int],
    indices: Sequence[Sequence[int]],
    warm_start: bool,
    retries: int,
    timeout: Optional[float],
    strict: bool,
    journal: Optional[SweepJournal],
    jobs: int,
    env: Dict[str, str],
    outcomes: List[Optional[_ChainOutcome]],
) -> None:
    """Fan the pending chains over a process pool, with recovery.

    Each retry round runs on a fresh pool, so a broken
    (``BrokenProcessPool``) or abandoned (hung worker) pool never
    leaks into the next attempt; only the chains that were actually
    lost are resubmitted, and an abandoned pool's workers are
    explicitly killed (see :func:`_kill_pool_workers`).
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    preload_executors()
    pending: Dict[int, int] = {i: 0 for i in chain_ids}
    while pending:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(env,),
        )
        futures: Dict[int, Any] = {}
        unsubmitted: List[int] = []
        for chain_id, attempt in sorted(pending.items()):
            try:
                futures[chain_id] = pool.submit(
                    _run_chain, chains[chain_id], warm_start,
                    chain_id, attempt, indices[chain_id], False,
                )
            except BrokenProcessPool:
                # A worker died before every chain was queued; the
                # rest never ran, so they join the next round
                # uncharged, like stranded chains.
                unsubmitted.append(chain_id)
        failures: Dict[int, SweepError] = {}
        abandoned, stranded = _collect_round(
            futures, chains, pending, timeout, journal, warm_start,
            outcomes, failures,
        )
        stranded = sorted(stranded + unsubmitted)
        if abandoned:
            # Kill before shutdown(): shutdown drops the executor's
            # process references, after which the workers could no
            # longer be reached.
            _kill_pool_workers(pool)
        pool.shutdown(wait=not abandoned, cancel_futures=True)
        attempts = pending
        pending = {
            chain_id: attempts[chain_id] for chain_id in stranded
        }
        for chain_id, error in sorted(failures.items()):
            attempt = attempts[chain_id]
            if attempt < retries:
                time.sleep(
                    backoff_seconds(f"chain-{chain_id}", attempt)
                )
                pending[chain_id] = attempt + 1
            elif strict:
                raise error
            else:
                outcomes[chain_id] = _ChainOutcome(
                    _failure_status(error), error=error
                )


def _resume_chain(
    chain: Sequence[GridPoint],
    completed: Mapping[str, str],
    infeasible: Mapping[str, Dict[str, Any]],
    cache: Optional[Any],
    warm_start: bool,
) -> Optional[List[Tuple[Optional[str], Dict[str, Any]]]]:
    """Serve a fully journaled chain straight from the cache.

    Returns ``None`` (run the chain normally) unless *every* point is
    journaled and its document is still cached -- partially finished
    chains recompute, hitting the cache for their completed prefix.
    Journaled infeasible verdicts need no cache entry; they replay
    straight from the journal's serialized diagnosis.
    """
    if not (completed or infeasible) or cache is None:
        return None
    results = []
    for point in chain:
        fingerprint = point_fingerprint(point, warm_start)
        diagnosis = infeasible.get(fingerprint)
        if diagnosis is not None:
            results.append((None, {_INFEASIBLE_KEY: diagnosis}))
            continue
        key = completed.get(fingerprint)
        if key is None:
            return None
        document = cache.get("report", key)
        if document is None:
            return None
        results.append((key, document))
    return results


def run_grid(
    points: Sequence[GridPoint],
    jobs: Optional[int] = None,
    cache_dir: Union[str, os.PathLike, None] = None,
    use_cache: bool = True,
    warm_start: bool = False,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    strict: bool = True,
    journal: Union[str, os.PathLike, SweepJournal, None] = None,
    resume: bool = False,
    budget: Optional[int] = None,
    no_fallback: bool = False,
    learn: Optional[bool] = None,
) -> SweepResult:
    """Price a grid of points, optionally fanning out over processes.

    Args:
        points: Grid points; the result preserves their order.
        jobs: Worker processes (``None``: ``REPRO_JOBS``, else 1).
            1 runs serially in-process -- byte-identical to any
            parallel schedule.
        cache_dir: Persistent-cache root override (``None`` keeps the
            ``REPRO_CACHE_DIR`` / default resolution).
        use_cache: ``False`` disables the persistent layer for this
            sweep.
        warm_start: Thread each chain's TileSeek best assignment into
            the next (larger) sequence length's search as an extra
            incumbent.
        timeout: Per-chain timeout in seconds (``None``:
            ``REPRO_TIMEOUT``, else unlimited).  When ``jobs > 1``
            each chain's clock starts when it is first observed
            executing on a worker (polled, so detection granularity
            is ~0.25 s) -- queue time behind a busy pool is not
            charged, and a hung chain is detected even while other
            chains are still running.  Serial mode honors
            cooperative (injected) hangs only.
        retries: Extra attempts per failed chain (``None``:
            ``REPRO_RETRIES``, else 0), with deterministic seeded
            backoff (``REPRO_BACKOFF``).
        strict: ``True`` (default) raises the first typed failure
            once its retries are exhausted -- the historical
            all-or-nothing behavior.  ``False`` degrades gracefully:
            every chain runs, and failures come back as statuses.
        journal: Checkpoint file (path or
            :class:`~repro.runner.journal.SweepJournal`) recording
            each completed point's cache key as chains finish.
        resume: Reload ``journal`` first and serve fully completed
            chains straight from the persistent cache (status
            ``skipped``) instead of re-running them.
        budget: Deterministic search-unit budget applied to every
            point's searches (exported to workers as
            ``REPRO_BUDGET``; ``None`` keeps any ambient setting).
            The same grid with the same budget produces the same
            (possibly degraded) reports on any host at any ``jobs``.
        no_fallback: Disable the graceful-degradation ladder
            (exported as ``REPRO_NO_FALLBACK``): a budget-exhausted
            search raises instead of returning a fallback plan.
        learn: Consult the learned warm-start predictor
            (:mod:`repro.learn`) on every cold tiling search
            (exported as ``REPRO_LEARN``; ``None`` keeps any ambient
            setting, ``False`` forces it off for this sweep).

    Returns:
        A :class:`SweepResult` -- a mapping ``{point: report}`` in
        input order (duplicates collapse onto one entry) carrying
        per-point statuses, typed failures and infeasible diagnoses.
    """
    jobs = resolve_jobs(jobs)
    timeout = resolve_timeout(timeout)
    retries = resolve_retries(retries)
    if budget is not None and budget < 1:
        raise SweepConfigError(
            f"budget must be >= 1 search unit, got {budget}"
        )
    chains = _chains(points)
    first_index: Dict[GridPoint, int] = {}
    for position, point in enumerate(points):
        first_index.setdefault(point, position)
    indices = [
        [first_index[point] for point in chain] for chain in chains
    ]
    env = _cache_env(cache_dir, use_cache)
    # Budget knobs travel the same way the cache config does: set in
    # the parent (and restored on exit) for the serial path, and
    # replayed into every pool worker by _worker_init -- so serial
    # and parallel sweeps see identical settings.
    if budget is not None:
        env[ENV_BUDGET] = str(budget)
    if no_fallback:
        env[ENV_NO_FALLBACK] = "1"
    if learn is not None:
        from repro.learn import ENV_LEARN

        env[ENV_LEARN] = "1" if learn else "0"
    log: Optional[SweepJournal]
    if isinstance(journal, SweepJournal) or journal is None:
        log = journal
    else:
        log = SweepJournal(journal)
    outcomes: List[Optional[_ChainOutcome]] = [None] * len(chains)
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        completed = log.load() if (log and resume) else {}
        journaled_infeasible = (
            log.load_infeasible() if (log and resume) else {}
        )
        cache = default_cache()
        pending_ids = []
        for chain_id, chain in enumerate(chains):
            served = _resume_chain(
                chain, completed, journaled_infeasible, cache,
                warm_start,
            )
            if served is not None:
                outcomes[chain_id] = _ChainOutcome(
                    STATUS_SKIPPED, results=served
                )
            else:
                pending_ids.append(chain_id)
        if pending_ids:
            if jobs == 1 or len(pending_ids) <= 1:
                _serial_outcomes(
                    chains, pending_ids, indices, warm_start,
                    retries, timeout, strict, log, outcomes,
                )
            else:
                _parallel_outcomes(
                    chains, pending_ids, indices, warm_start,
                    retries, timeout, strict, log, jobs, env,
                    outcomes,
                )
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    reports: Dict[GridPoint, RunReport] = {}
    statuses: Dict[GridPoint, str] = {}
    failures: Dict[GridPoint, SweepError] = {}
    infeasible: Dict[GridPoint, InfeasiblePoint] = {}
    for chain, outcome in zip(chains, outcomes):
        assert outcome is not None
        if outcome.status in (STATUS_OK, STATUS_SKIPPED):
            for point, (_, document) in zip(chain, outcome.results):
                if _is_infeasible_document(document):
                    verdict = failure_from_dict(
                        document[_INFEASIBLE_KEY]
                    )
                    if not isinstance(verdict, InfeasiblePoint):
                        verdict = InfeasiblePoint(
                            str(verdict), {}, point
                        )
                    infeasible[point] = verdict
                    statuses[point] = STATUS_INFEASIBLE
                else:
                    reports[point] = report_from_dict(document)
                    statuses[point] = outcome.status
        else:
            for point in chain:
                statuses[point] = outcome.status
                assert outcome.error is not None
                failures[point] = outcome.error
    ordered = list(dict.fromkeys(points))
    result = SweepResult(
        ordered, reports, statuses, failures, infeasible
    )
    if strict:
        result.raise_if_failed()
    return result

"""Parallel sweep engine: fan a report grid out over processes.

:func:`run_grid` evaluates a list of :class:`GridPoint`\\ s -- the
(executor, model, sequence, architecture) tuples behind every paper
figure -- with four guarantees:

* **Deterministic ordering** -- results come back keyed in the input
  order, whatever the execution schedule was.
* **Serial/parallel equivalence** -- ``jobs=1`` and ``jobs=N``
  produce byte-identical reports.  Points are grouped into *chains*
  (one per executor/model/architecture/batch family, sequence lengths
  ascending); a chain always runs on a single worker, and both modes
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
  bounded deterministic retries (``REPRO_RETRIES``).  A parallel
  sweep holds one :class:`~repro.runner.pool.WorkerPool` across all
  its retry rounds; a crashed worker (``BrokenProcessPool``) or a
  hung one only re-runs the chains that were lost with it, after
  :meth:`~repro.runner.pool.WorkerPool.respawn` killed the abandoned
  workers so a genuinely hung search cannot keep burning CPU or stall
  interpreter exit.  ``strict=False`` degrades gracefully: the returned
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
  proof.  The rest of the chain keeps running.

Pricing one chain -- points, cache documents, fault sites, the chain
layout and the failure taxonomy -- is
:mod:`repro.runner.chain`; folding chain outcomes into a
:class:`SweepResult` is :mod:`repro.runner.result`; the pool is
:mod:`repro.runner.pool`.  This module is the fan-out around them:
retries, journaling and per-chain deadlines.
"""

from __future__ import annotations

import os
import time
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

from repro.resilience.budget import ENV_BUDGET, ENV_NO_FALLBACK
from repro.runner.cache import ENV_CACHE, ENV_CACHE_DIR, default_cache
from repro.runner.chain import (
    _INFEASIBLE_KEY,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    GridPoint,
    _is_infeasible_document,
    _run_chain,
    chain_failure,
    chain_layout,
    resolve_jobs,
)
from repro.runner.errors import (
    ChainTimeout,
    SweepConfigError,
    SweepError,
    WorkerCrash,
)
from repro.runner.faults import resolve_retries, resolve_timeout
from repro.runner.journal import SweepJournal, point_fingerprint
from repro.runner.result import ChainOutcome, SweepResult, sweep_result
from repro.settings import scoped_env

# multiprocessing and concurrent.futures (through repro.runner.pool)
# are imported where a sweep first fans out: a serial sweep never
# needs them.


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


def _failure_status(error: SweepError) -> str:
    return (
        STATUS_TIMEOUT if isinstance(error, ChainTimeout)
        else STATUS_FAILED
    )


def _journal_chain(
    journal: Optional[SweepJournal],
    chain: Sequence[GridPoint],
    outcome: ChainOutcome,
) -> None:
    """Checkpoint a freshly completed chain's points."""
    if journal is None:
        return
    for point, (key, document) in zip(chain, outcome.results):
        if _is_infeasible_document(document):
            journal.record_infeasible(point, document[_INFEASIBLE_KEY])
        else:
            journal.record(point, key)


def _serial_outcomes(
    chains: Sequence[Sequence[GridPoint]],
    chain_ids: Sequence[int],
    indices: Sequence[Sequence[int]],
    retries: int,
    timeout: Optional[float],
    strict: bool,
    journal: Optional[SweepJournal],
    outcomes: List[Optional[ChainOutcome]],
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
            try:
                outcome = ChainOutcome(
                    STATUS_OK,
                    results=_run_chain(
                        chain, chain_id, attempt, indices[chain_id],
                        serial=True,
                    ),
                )
                outcomes[chain_id] = outcome
                _journal_chain(journal, chain, outcome)
                break
            except Exception as exc:
                error = chain_failure(
                    exc, chain, chain_id, attempt, timeout
                )
            if attempt < retries:
                attempt += 1
                continue
            if strict:
                raise error
            outcomes[chain_id] = ChainOutcome(
                _failure_status(error), error=error
            )
            break


#: How often the parallel collector re-polls while enforcing
#: per-chain deadlines (to stamp the clock of chains that just left
#: the queue and started executing).
_DEADLINE_POLL_SECONDS = 0.25


def _collect_round(
    futures: Dict[int, Any],
    chains: Sequence[Sequence[GridPoint]],
    attempts: Mapping[int, int],
    timeout: Optional[float],
    journal: Optional[SweepJournal],
    outcomes: List[Optional[ChainOutcome]],
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
            chain = chains[chain_id]
            try:
                outcome = ChainOutcome(
                    STATUS_OK, results=waiting.pop(chain_id).result()
                )
            except Exception as exc:
                failure = chain_failure(
                    exc, chain, chain_id, attempts[chain_id], timeout
                )
                failures[chain_id] = failure
                # A dead worker takes the pool down with it.
                abandoned |= isinstance(failure, WorkerCrash)
                continue
            outcomes[chain_id] = outcome
            _journal_chain(journal, chain, outcome)
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
    retries: int,
    timeout: Optional[float],
    strict: bool,
    journal: Optional[SweepJournal],
    jobs: int,
    env: Dict[str, str],
    outcomes: List[Optional[ChainOutcome]],
) -> None:
    """Fan the pending chains over one process pool, with recovery.

    The pool lives for the whole sweep and is reused across retry
    rounds.  A round that lost a worker (``BrokenProcessPool``, a hung
    chain) or could not queue every chain respawns it before the next
    round -- killing the abandoned workers -- so only the chains that
    were actually lost are resubmitted.  Chains are submitted to the
    executor directly, not through :meth:`WorkerPool.submit`: a broken
    submit must not respawn the pool under chains already queued.
    """
    from concurrent.futures.process import BrokenProcessPool

    from repro.runner.pool import WorkerPool

    pending: Dict[int, int] = {i: 0 for i in chain_ids}
    pool = WorkerPool(min(jobs, len(pending)), env)
    try:
        while pending:
            futures: Dict[int, Any] = {}
            unsubmitted: List[int] = []
            for chain_id, attempt in sorted(pending.items()):
                try:
                    futures[chain_id] = pool.executor.submit(
                        _run_chain, chains[chain_id], chain_id,
                        attempt, indices[chain_id], False,
                    )
                except BrokenProcessPool:
                    # A worker died before every chain was queued;
                    # the rest never ran, so they join the next round
                    # uncharged, like stranded chains.
                    unsubmitted.append(chain_id)
            failures: Dict[int, SweepError] = {}
            abandoned, stranded = _collect_round(
                futures, chains, pending, timeout, journal,
                outcomes, failures,
            )
            if abandoned or unsubmitted:
                pool.respawn()
            attempts = pending
            pending = {
                chain_id: attempts[chain_id]
                for chain_id in sorted(stranded + unsubmitted)
            }
            for chain_id, error in sorted(failures.items()):
                attempt = attempts[chain_id]
                if attempt < retries:
                    pending[chain_id] = attempt + 1
                elif strict:
                    raise error
                else:
                    outcomes[chain_id] = ChainOutcome(
                        _failure_status(error), error=error
                    )
    finally:
        pool.close()


def _resume_chain(
    chain: Sequence[GridPoint],
    completed: Mapping[str, str],
    infeasible: Mapping[str, Dict[str, Any]],
    cache: Optional[Any],
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
        fingerprint = point_fingerprint(point)
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
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    strict: bool = True,
    journal: Union[str, os.PathLike, SweepJournal, None] = None,
    resume: bool = False,
    budget: Optional[int] = None,
    no_fallback: bool = False,
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
        timeout: Per-chain timeout in seconds (``None``:
            ``REPRO_TIMEOUT``, else unlimited).  When ``jobs > 1``
            each chain's clock starts when it is first observed
            executing on a worker (polled, so detection granularity
            is ~0.25 s) -- queue time behind a busy pool is not
            charged, and a hung chain is detected even while other
            chains are still running.  Serial mode honors
            cooperative (injected) hangs only.
        retries: Extra attempts per failed chain (``None``:
            ``REPRO_RETRIES``, else 0).
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
    chains, indices = chain_layout(points)
    env = _cache_env(cache_dir, use_cache)
    # Budget knobs travel the same way the cache config does: set in
    # the parent (and restored on exit) for the serial path, and
    # replayed into every pool worker -- so serial and parallel
    # sweeps see identical settings.
    if budget is not None:
        env[ENV_BUDGET] = str(budget)
    if no_fallback:
        env[ENV_NO_FALLBACK] = "1"
    log: Optional[SweepJournal]
    if isinstance(journal, SweepJournal) or journal is None:
        log = journal
    else:
        log = SweepJournal(journal)
    outcomes: List[Optional[ChainOutcome]] = [None] * len(chains)
    with scoped_env(env):
        completed = log.load() if (log and resume) else {}
        journaled_infeasible = (
            log.load_infeasible() if (log and resume) else {}
        )
        cache = default_cache()
        pending_ids = []
        for chain_id, chain in enumerate(chains):
            served = _resume_chain(
                chain, completed, journaled_infeasible, cache
            )
            if served is not None:
                outcomes[chain_id] = ChainOutcome(
                    STATUS_SKIPPED, results=served
                )
            else:
                pending_ids.append(chain_id)
        if pending_ids:
            if jobs == 1 or len(pending_ids) <= 1:
                _serial_outcomes(
                    chains, pending_ids, indices, retries, timeout,
                    strict, log, outcomes,
                )
            else:
                _parallel_outcomes(
                    chains, pending_ids, indices, retries, timeout,
                    strict, log, jobs, env, outcomes,
                )
    assert all(outcome is not None for outcome in outcomes)
    result = sweep_result(points, chains, outcomes)
    if strict:
        result.raise_if_failed()
    return result

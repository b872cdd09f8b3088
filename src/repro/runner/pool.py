"""Process-pool lifecycle: start method, worker init, kill, reuse.

The pool primitives both process pools share live here:
:func:`_pool_context` (fork when available), :func:`_worker_init`
(replay environment overrides into each worker) and
:func:`_kill_pool_workers` (kill *before* shutdown, which drops the
process references).  :func:`repro.runner.parallel.run_grid` spins a
fresh process pool per sweep round from them -- the right call for a
batch job, but a long-lived service (:mod:`repro.serve`) would pay
pool startup and cold per-process memos on every request.  So this
module also offers two interchangeable reusable wrappers:

* :class:`WorkerPool` -- a :class:`~concurrent.futures.\
  ProcessPoolExecutor` that survives worker crashes: a
  ``BrokenProcessPool`` (or a submit on a broken pool) triggers
  :meth:`WorkerPool.respawn`, which kills the wedged workers and
  builds a fresh pool with the same environment overrides.  The
  ``generation`` counter records every respawn.
* :class:`InlineWorkerPool` -- the same interface over a
  single-thread executor running jobs in the parent process.  Test
  harnesses use it for determinism (monkeypatched state is visible,
  no fork), and ``serial=True`` tells job functions to take the
  sweep engine's serial fault-injection paths (``exit`` raises
  :class:`~repro.runner.errors.InjectedWorkerExit` instead of
  killing the process).

Both expose ``submit`` / ``respawn`` / ``close`` plus ``serial``,
``jobs``, ``generation`` and ``env`` -- the hooks
:class:`repro.serve.app.ServeApp` multiplexes requests onto.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional, Union

from repro.baselines.registry import preload_executors
from repro.runner.errors import SweepConfigError


def _pool_context():
    """The process start-method of every pool (fork when available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


def _worker_init(env: Dict[str, str]) -> None:
    """Pool-worker initializer: replay the environment overrides
    (cache location, budget, fault spec) into the worker."""
    os.environ.update(env)


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


class WorkerPool:
    """A crash-surviving, reusable process pool for request serving.

    Args:
        jobs: Worker process count (>= 1).
        env: Environment overrides replayed into every worker at
            (re)spawn via :func:`_worker_init` -- cache location,
            fault-injection spec, and so on.
    """

    #: Jobs run in worker processes, not the parent.
    serial = False

    def __init__(
        self, jobs: int, env: Optional[Dict[str, str]] = None
    ) -> None:
        if jobs < 1:
            raise SweepConfigError(
                f"pool jobs must be >= 1, got {jobs}"
            )
        self.jobs = jobs
        self.env = dict(env or {})
        self.generation = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        # Fork-started workers (and every respawn) inherit the
        # executor stack instead of each importing it again.
        preload_executors()

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=_pool_context(),
            initializer=_worker_init,
            initargs=(self.env,),
        )

    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._spawn()
        return self._pool

    def submit(
        self, fn: Callable[..., Any], *args: Any
    ) -> Future:
        """Submit one job, respawning first if the pool is broken."""
        try:
            return self._ensure().submit(fn, *args)
        except BrokenProcessPool:
            self.respawn()
            return self._ensure().submit(fn, *args)

    def respawn(self) -> None:
        """Kill the current workers and start a fresh pool.

        Safe to call on a healthy pool (a no-op for queued work would
        lose it, so the serving layer only calls this after a crash
        surfaced -- every in-flight future on the dead pool has
        already raised ``BrokenProcessPool``).
        """
        if self._pool is not None:
            _kill_pool_workers(self._pool)
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.generation += 1

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight jobs."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


class InlineWorkerPool:
    """The :class:`WorkerPool` interface, executed in-process.

    Jobs run one at a time on a single worker thread (so the event
    loop is never blocked, and concurrent requests with different
    scoped environments never race on ``os.environ``).  Monkeypatched
    module state -- shrunken architectures, counting hooks -- stays
    visible to the jobs, which is what deterministic serving tests
    need.
    """

    #: Jobs run in the parent process: fault injection takes its
    #: serial (cooperative) paths.
    serial = True
    jobs = 0

    def __init__(
        self, env: Optional[Dict[str, str]] = None
    ) -> None:
        self.env = dict(env or {})
        self.generation = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=1)
        return self._pool

    def submit(
        self, fn: Callable[..., Any], *args: Any
    ) -> Future:
        """Run one job on the single worker thread."""
        return self._ensure().submit(fn, *args)

    def respawn(self) -> None:
        """Replace the worker thread (parity with the process pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.generation += 1

    def close(self) -> None:
        """Shut the worker thread down."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_pool(
    jobs: int, env: Optional[Dict[str, str]] = None
) -> Union[WorkerPool, InlineWorkerPool]:
    """A pool for ``jobs`` workers; ``0`` selects the inline pool."""
    if jobs == 0:
        return InlineWorkerPool(env)
    return WorkerPool(jobs, env)

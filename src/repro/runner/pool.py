"""Process-pool lifecycle: one crash-surviving pool, and its inline twin.

Every process pool in the package is a :class:`WorkerPool`:
:func:`repro.runner.parallel.run_grid` holds one for a whole sweep
(reused across retry rounds, respawned when a round lost a worker) and
:class:`repro.serve.app.ServeApp` holds one for the life of a server.
Two interchangeable wrappers:

* :class:`WorkerPool` -- a :class:`~concurrent.futures.\
  ProcessPoolExecutor` (fork-started when the platform offers it,
  each worker replaying the pool's environment overrides) that
  survives worker crashes: :meth:`WorkerPool.respawn` kills the
  workers *before* shutting the executor down (shutdown drops the
  process references) and builds a fresh pool lazily on next use.
  The ``generation`` counter records every respawn.
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
:attr:`WorkerPool.executor` hands out the live executor itself, for a
caller (the sweep fan-out) that must see a broken submit rather than
have it respawn the pool under futures already queued.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional, Union

from repro.baselines.registry import preload_executors
from repro.runner.errors import SweepConfigError


class WorkerPool:
    """A crash-surviving, reusable process pool.

    Args:
        jobs: Worker process count (>= 1).
        env: Environment overrides replayed into every worker at
            (re)spawn -- cache location, budget, fault-injection
            spec, and so on.
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

    @staticmethod
    def _init_worker(env: Dict[str, str]) -> None:
        # Runs first in every worker: replay the overrides, and let
        # SIGTERM kill the worker whatever handler the parent (say,
        # ``repro serve``) installed before forking it.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.environ.update(env)

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor, started on first use.

        Its ``submit`` raises ``BrokenProcessPool`` on a dead pool
        instead of respawning (contrast :meth:`submit`): the caller
        decides when the futures already queued are lost.
        """
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                ),
                initializer=WorkerPool._init_worker,
                initargs=(self.env,),
            )
        return self._pool

    def submit(
        self, fn: Callable[..., Any], *args: Any
    ) -> Future:
        """Submit one job, respawning first if the pool is broken."""
        try:
            return self.executor.submit(fn, *args)
        except BrokenProcessPool:
            self.respawn()
            return self.executor.submit(fn, *args)

    def respawn(self) -> None:
        """Kill the current workers; the next use starts a fresh pool.

        Killing, not just ``shutdown(wait=False)``, is what frees a
        genuinely hung worker: pool workers are non-daemon processes
        that ``concurrent.futures`` joins at interpreter exit, so a
        wedged one would keep burning CPU beside the fresh pool and
        then stall process exit.  SIGKILL is safe here -- a finished
        job's result already crossed the result pipe and cache
        writes are atomic (temp file + rename) -- but every job still
        queued or running on this pool is lost, so call it only once
        those are settled or given up.  Kill before ``shutdown``:
        shutdown drops the executor's process references.
        """
        if self._pool is not None:
            for process in list(
                (getattr(self._pool, "_processes", None) or {}).values()
            ):
                try:
                    process.kill()
                except (OSError, ValueError, AttributeError):
                    pass
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

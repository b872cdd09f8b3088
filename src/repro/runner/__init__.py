"""The sweep engine: caching + parallel + fault-tolerant execution.

Five layers make the framework's own hot path (full figure sweeps)
fast, incremental and crash-safe:

* :mod:`repro.runner.cache` -- a content-addressed on-disk cache of
  serialized reports and tiling results, keyed by workload,
  architecture, search parameters and a code-version salt; corrupted
  entries are quarantined with a :class:`CacheCorruption` warning.
* :mod:`repro.runner.chain` -- :class:`GridPoint` and the chain
  runner every path prices points through (a local ``plan``, a
  served request, each chain of a sweep).
* :mod:`repro.runner.parallel` -- :func:`run_grid`, a deterministic
  process-pool fan-out over grid points whose serial and parallel
  outputs are byte-identical, returning a :class:`SweepResult`
  (:mod:`repro.runner.result`) with per-point statuses.
* :mod:`repro.runner.errors` / :mod:`repro.runner.faults` -- the
  typed failure taxonomy (:class:`SweepError` and friends); per-chain
  timeouts + bounded deterministic retries (``REPRO_TIMEOUT`` /
  ``REPRO_RETRIES``) and the ``REPRO_FAULTS`` deterministic
  fault-injection harness.
* :mod:`repro.runner.journal` -- a sweep journal checkpointing every
  completed point's cache key, so ``run_grid(..., resume=True)`` /
  ``sweep --resume`` skips finished work after a crash.
* :mod:`repro.runner.pool` -- the one process-pool lifecycle: a
  crash-respawning :class:`WorkerPool` (and its in-process twin,
  :class:`InlineWorkerPool`) that the sweep fan-out holds for a
  whole sweep and request serving (:mod:`repro.serve`) for the life
  of a server.

Warm-start hooks in :meth:`repro.tileseek.search.TileSeek.search` are
fed by :func:`run_grid`'s per-chain threading of best assignments
across neighboring sequence lengths.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.runner.cache": (
        "PlanCache", "cache_enabled", "code_salt", "default_cache",
        "stable_hash",
    ),
    "repro.runner.chain": (
        "DEFAULT_BATCH", "STATUS_FAILED", "STATUS_INFEASIBLE",
        "STATUS_OK", "STATUS_SKIPPED", "STATUS_TIMEOUT", "GridPoint",
        "compute_report", "report_cache_payload", "resolve_jobs",
    ),
    "repro.runner.errors": (
        "CacheCorruption", "ChainTimeout", "FaultSpecError",
        "InfeasiblePoint", "PointFailure", "SweepConfigError",
        "SweepError", "WorkerCrash",
    ),
    "repro.runner.faults": (
        "FaultPlan", "FaultRule", "active_plan", "parse_faults",
        "resolve_retries", "resolve_timeout",
    ),
    "repro.runner.journal": (
        "SweepJournal", "default_journal_path", "point_fingerprint",
    ),
    "repro.runner.pool": ("InlineWorkerPool", "WorkerPool", "make_pool"),
    "repro.runner.parallel": ("run_grid",),
    "repro.runner.result": ("SweepResult",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

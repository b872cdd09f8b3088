"""Anytime-search resilience: budgets, degradation, diagnostics.

Two pieces turn the framework's two search layers (TileSeek's MCTS,
DPipe's branch-and-bound DFS) into anytime algorithms that degrade
instead of dying:

* :mod:`repro.resilience.budget` -- deterministic unit budgets
  (``REPRO_BUDGET`` / the advisory ``REPRO_DEADLINE``) threaded
  cooperatively through both searches, plus the provenance vocabulary
  (``complete`` / ``budget_exhausted`` / ``fallback:<rung>``) every
  result carries -- the one rung being DPipe's first order, which a
  budget-cut schedule search falls back to.
* :mod:`repro.resilience.diagnostics` -- typed infeasibility: when no
  tiling fits the Table-2 buffer model, a :class:`BufferDiagnosis`
  names the overflowing module, the overflow in words and the
  smallest violating tile, carried by
  :class:`~repro.runner.errors.InfeasiblePoint`.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.resilience.budget": (
        "ENV_BUDGET", "ENV_DEADLINE", "ENV_NO_FALLBACK",
        "PROVENANCE_BUDGET_EXHAUSTED", "PROVENANCE_COMPLETE",
        "RUNG_FIRST_ORDER", "UNITS_PER_SECOND", "Budget",
        "fallback_enabled", "fallback_provenance", "is_degraded",
        "resolve_budget", "worst_provenance",
    ),
    "repro.resilience.diagnostics": (
        "BufferDiagnosis", "diagnose_infeasible",
    ),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

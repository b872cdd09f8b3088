"""The graceful-degradation ladder's rungs.

When a budget cuts a search short and something other than the
search's own answer supplies the result, the result carries
``fallback:<rung>`` provenance
(:func:`repro.resilience.budget.fallback_provenance`):

* ``warm_start`` -- TileSeek reused a caller-provided tiling from a
  neighbouring point (the sweep engine threads the previous seq-len's
  winner along each chain), re-validated against the Table-2 buffer
  model.  TileSeek's own answer always includes the exact optimum of
  its grid (priced before any MCTS iteration), so only a warm start
  that ties or beats it can win a budget-cut search.
* ``first_order`` -- DPipe scheduled the first topological order it
  visited, because its branch-and-bound DFS had no incumbent when the
  budget ran out.

Each rung is *deterministic* (no search, no randomness) and is always
validated by the same auditors as a complete search -- legality holds
at every rung.  If even the minimal tiling overflows the buffer, the
point is infeasible outright and is diagnosed by
:mod:`repro.resilience.diagnostics` instead.
"""

from __future__ import annotations

#: TileSeek's rung: a warm-start tiling reused from a neighbouring
#: point.
RUNG_WARM_START = "warm_start"
#: DPipe's rung: schedule the first topological order directly when
#: the branch-and-bound DFS has no incumbent at budget exhaustion.
RUNG_FIRST_ORDER = "first_order"

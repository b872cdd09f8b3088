"""The graceful-degradation ladder for TileSeek results.

When the MCTS either exhausts its budget without a feasible incumbent
or (pathologically) converges on nothing usable, TileSeek descends a
fixed ladder instead of failing the point:

1. ``warm_start`` -- reuse a caller-provided tiling from a neighbouring
   point (the sweep engine threads the previous seq-len's winner along
   each chain), re-validated against the Table-2 buffer model.
2. ``heuristic`` -- the greedy divisor-based tiling: the largest
   feasible Q tile with minimal companion factors, found by the same
   monotone bound the pruner uses, so it is feasible by construction.
3. ``minimal`` -- the minimal unfused mapping (every factor at its
   grid floor), the most conservative point the space contains.

Each rung is *deterministic* (no search, no randomness) and is always
validated by the same auditors as a complete search -- legality holds
at every rung.  If even the minimal rung overflows the buffer, the
point is infeasible outright and is diagnosed by
:mod:`repro.resilience.diagnostics` instead.

The rung that actually supplied a result is recorded as
``fallback:<rung>`` provenance (:func:`repro.resilience.budget.fallback_provenance`).
"""

from __future__ import annotations

#: Rung 1: a warm-start tiling reused from a neighbouring point.
RUNG_WARM_START = "warm_start"
#: Rung 2: greedy divisor-based heuristic tiling (largest feasible Q
#: tile, minimal companions), validated against Table 2.
RUNG_HEURISTIC = "heuristic"
#: Rung 3: the minimal unfused mapping -- every factor at its floor.
RUNG_MINIMAL = "minimal"
#: DPipe analogue: schedule the first topological order directly when
#: the branch-and-bound DFS has no incumbent at budget exhaustion.
RUNG_FIRST_ORDER = "first_order"

#: Descent order; lower index = preferred (less degraded) rung.
LADDER = (RUNG_WARM_START, RUNG_HEURISTIC, RUNG_MINIMAL)


def classify_rung(
    winner_index: int,
    n_warm: int,
    anchor_is_minimal: bool,
) -> str:
    """Which ladder rung a winning fallback candidate belongs to.

    TileSeek evaluates its fallback candidates in a fixed order: the
    heuristic anchor first, then each validated warm start.  Given
    the index of the winner in that sequence, classify it:

    Args:
        winner_index: 0 for the anchor, ``1..n_warm`` for warm starts.
        n_warm: How many validated warm starts were evaluated.
        anchor_is_minimal: Whether the heuristic anchor collapsed to
            the minimal mapping (no Q tile larger than the floor fits),
            in which case the "heuristic" rung is really "minimal".
    """
    if 1 <= winner_index <= n_warm:
        return RUNG_WARM_START
    if anchor_is_minimal:
        return RUNG_MINIMAL
    return RUNG_HEURISTIC

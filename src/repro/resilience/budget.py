"""Deterministic search budgets and result provenance.

A :class:`Budget` counts *deterministic units* of search work -- MCTS
iterations for TileSeek, DFS node visits for DPipe's branch-and-bound
-- never wall-clock time.  Two runs of the same search under the same
budget therefore spend it at exactly the same point regardless of host
speed or worker count, which is what preserves the sweep engine's
"serial == parallel byte-identical" invariant under degradation.

Wall clocks enter only *advisorily*: ``REPRO_DEADLINE`` (seconds) is
mapped to a unit budget **once at entry** through the fixed
:data:`UNITS_PER_SECOND` rate.  The mapping never re-reads a clock, so
a slow machine produces the same (possibly degraded) result as a fast
one -- the deadline biases how much work is attempted, not what the
answer is.

Every search result carries a *provenance* string:

``complete``
    The search finished: DPipe ran to its order caps; TileSeek
    certified or reached the exact optimum of its grid.
``budget_exhausted``
    The budget ran out mid-search; the best-so-far incumbent was
    returned (an anytime result, still fully validated).
``fallback:<rung>``
    Something other than the search's own answer supplied the
    result.  The one rung is DPipe's :data:`RUNG_FIRST_ORDER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.settings import env_bool, env_float, env_int

ENV_BUDGET = "REPRO_BUDGET"
ENV_DEADLINE = "REPRO_DEADLINE"
ENV_NO_FALLBACK = "REPRO_NO_FALLBACK"

#: Fixed advisory rate mapping a soft deadline to search units.  The
#: constant is part of the contract, not a measurement: changing it
#: changes results under ``REPRO_DEADLINE``, so it must never be
#: derived from the host.
UNITS_PER_SECOND = 50_000

PROVENANCE_COMPLETE = "complete"
PROVENANCE_BUDGET_EXHAUSTED = "budget_exhausted"
_FALLBACK_PREFIX = "fallback:"

#: DPipe's degradation rung: schedule the first topological order
#: directly when the branch-and-bound DFS has no incumbent at budget
#: exhaustion.  Deterministic (no search, no randomness) and audited
#: like a complete search.
RUNG_FIRST_ORDER = "first_order"


def fallback_provenance(rung: str) -> str:
    """The provenance string recorded for one ladder rung."""
    return f"{_FALLBACK_PREFIX}{rung}"


def is_degraded(provenance: str) -> bool:
    """Whether a provenance marks anything short of a complete search."""
    return provenance != PROVENANCE_COMPLETE


def _severity(provenance: str) -> int:
    if provenance.startswith(_FALLBACK_PREFIX):
        return 2
    if provenance == PROVENANCE_BUDGET_EXHAUSTED:
        return 1
    return 0


def worst_provenance(*provenances: str) -> str:
    """Aggregate per-component provenances into one report-level label.

    ``fallback:<rung>`` outranks ``budget_exhausted`` outranks
    ``complete``; ties keep the first (deterministic: callers pass
    components in a fixed order).
    """
    worst = PROVENANCE_COMPLETE
    for provenance in provenances:
        if _severity(provenance) > _severity(worst):
            worst = provenance
    return worst


@dataclass
class Budget:
    """A cooperative, deterministic unit budget for one search.

    Args:
        limit: Maximum units; ``None`` is unlimited (spending is
            still counted, for stats).

    Each search invocation gets a *fresh* budget -- sharing one across
    memoized searches would make results depend on execution order.
    """

    limit: Optional[int]
    spent: int = 0

    def charge(self, units: int = 1) -> bool:
        """Consume ``units``; ``False`` once the budget is exhausted.

        The unit of work gated by a ``True`` return may still run --
        exhaustion is reported *before* the next unit, so a budget of
        ``n`` performs exactly ``n`` units.
        """
        if self.limit is not None and self.spent >= self.limit:
            return False
        self.spent += units
        return True

    def exhausted(self) -> bool:
        """Whether no further units remain."""
        return self.limit is not None and self.spent >= self.limit

    @property
    def remaining(self) -> Optional[int]:
        """Units left, or ``None`` when unlimited."""
        if self.limit is None:
            return None
        return max(0, self.limit - self.spent)


def resolve_budget(limit: Optional[int] = None) -> Optional[int]:
    """The per-search unit limit: argument, else environment, else none.

    ``REPRO_BUDGET`` sets the limit directly; ``REPRO_DEADLINE``
    (seconds) maps to units once through :data:`UNITS_PER_SECOND` and
    the tighter of the two wins.  Returns ``None`` when unbudgeted.
    """
    if limit is None:
        limit = env_int(
            ENV_BUDGET, "a search unit budget", minimum=1
        )
    deadline = env_float(ENV_DEADLINE, "a number of seconds")
    if deadline is not None and deadline > 0:
        units = max(1, int(deadline * UNITS_PER_SECOND))
        limit = units if limit is None else min(limit, units)
    return limit


def fallback_enabled() -> bool:
    """Whether the degradation ladder may run (``REPRO_NO_FALLBACK``)."""
    return not env_bool(ENV_NO_FALLBACK, default=False)

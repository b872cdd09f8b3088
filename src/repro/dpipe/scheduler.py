"""The earliest-finish DP scheduler (Section 4.3, Eq. 43-46).

Given a topological ordering of ops and per-(op, array) latencies, the
scheduler walks the order once.  For each op it computes, per array,

* ``StartT[op][pe] = max(Time[pe], max over deps of EndT[dep])``
  (Eq. 43),
* ``EndT_PE[op][pe] = StartT + Latency[op][pe]`` (Eq. 44),

assigns the op to the array with the earliest completion (Eq. 45) and
advances that array's timeline (Eq. 46).  The result respects both
data dependencies and per-array resource exclusivity, and balances
work across the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Set

from repro.arch.pe import PEArrayKind
from repro.dpipe.latency import ARRAYS, LatencyTable
from repro.validate.config import validation_enabled


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one DP scheduling pass.

    Attributes:
        makespan: Completion time of the last op (seconds).
        assignment: Op name -> PE array chosen by Eq. 45.
        end_times: Op name -> completion time.
        busy_seconds: Total assigned latency per array.
    """

    makespan: float
    assignment: Mapping[str, PEArrayKind]
    end_times: Mapping[str, float]
    busy_seconds: Mapping[PEArrayKind, float]

    def load_split(
        self, table: LatencyTable
    ) -> Dict[PEArrayKind, float]:
        """Compute-load (scalar ops) executed per array."""
        split = [0.0] * len(ARRAYS)
        for name, kind in self.assignment.items():
            base = _strip_epoch(name)
            if base in table.loads:  # virtual ROOT carries no load
                split[ARRAYS.index(kind)] += table.load(base)
        return dict(zip(ARRAYS, split))


def _strip_epoch(name: str) -> str:
    """Remove an epoch prefix (``cur.`` / ``nxt.``) from a node name."""
    return name.split(".", 1)[1] if "." in name else name


def dp_schedule(
    order: Sequence[str],
    preds: Mapping[str, Set[str]],
    table: LatencyTable,
    zero_latency: Set[str] = frozenset(),
) -> ScheduleResult:
    """Run the Eq. 43-46 DP over one topological order.

    Args:
        order: Ops in a valid topological order (epoch-prefixed names
            are resolved to cascade op names for latency lookup).
        preds: Direct dependencies of each op (names as in ``order``).
        table: Per-(op, array) latencies.
        zero_latency: Nodes scheduled at zero cost on any array (the
            virtual ROOT).

    Returns:
        The schedule with makespan, assignment and busy times.
    """
    # Per-array clocks and busy totals, by index into ARRAYS.
    time = [0.0] * len(ARRAYS)
    end: Dict[str, float] = {}
    assignment: Dict[str, PEArrayKind] = {}
    busy = [0.0] * len(ARRAYS)
    seconds = table.seconds
    for node in order:
        dep_ready = max(
            (end[p] for p in preds.get(node, ()) if p in end),
            default=0.0,
        )
        # Strip the epoch prefix once per node, not once per array:
        # this loop is the differential reference for the fused search
        # (repro.dpipe.search) and is still run per candidate order by
        # the legacy path benchmarks compare against.
        base = None if node in zero_latency else _strip_epoch(node)
        best = 0
        best_end = float("inf")
        best_latency = 0.0
        for index in range(len(ARRAYS)):
            if base is None:
                latency = 0.0
            else:
                latency = seconds[(base, index)]
            start = max(time[index], dep_ready)  # Eq. 43
            finish = start + latency  # Eq. 44
            if finish < best_end:  # Eq. 45 (strict: 2D wins ties)
                best = index
                best_end = finish
                best_latency = latency
        end[node] = best_end
        assignment[node] = ARRAYS[best]
        time[best] = best_end  # Eq. 46
        busy[best] += best_latency
    makespan = max(end.values(), default=0.0)
    result = ScheduleResult(
        makespan=makespan,
        assignment=assignment,
        end_times=end,
        busy_seconds=dict(zip(ARRAYS, busy)),
    )
    if validation_enabled():
        # Lazy import: the auditor imports this module for the replay.
        from repro.validate.schedule import audit_schedule

        audit_schedule(
            order, preds, table, result, zero_latency
        ).raise_if_failed()
    return result

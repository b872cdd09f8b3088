"""Epoch-interleaved pipeline windows (Section 4.1, Figure 7d).

For a bipartition ``(G1, G2)`` of a layer DAG, the steady-state
pipeline executes epoch ``e``'s second subgraph concurrently with epoch
``e+1``'s first subgraph.  DPipe models one such *window*: the induced
``G2`` of the current epoch and ``G1`` of the next epoch, joined under
a virtual ROOT node, over which it enumerates topological orderings
and runs the Eq. 43-46 DP.  The best window makespan is the pipeline's
steady-state period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.arch.pe import PEArrayKind
from repro.dpipe.latency import LatencyTable
from repro.dpipe.scheduler import ScheduleResult, dp_schedule
from repro.graph.dag import ComputationDAG
from repro.graph.partition import Bipartition
from repro.graph.toposort import critical_path_order

#: Virtual root node name (Figure 7d).
ROOT = "ROOT"

#: Epoch prefixes inside a window.
CURRENT = "cur."
NEXT = "nxt."


def build_window(
    dag: ComputationDAG, bipartition: Bipartition
) -> ComputationDAG:
    """The one-window DAG: ``G2`` of epoch ``e`` + ``G1`` of ``e+1``.

    A zero-latency virtual ROOT precedes every source of both
    subgraphs, connecting them into a single DAG as the paper
    prescribes before topological-order enumeration.
    """
    g1 = dag.induced(bipartition.first)
    g2 = dag.induced(bipartition.second)
    nodes: List[str] = [ROOT]
    nodes.extend(CURRENT + n for n in g2.nodes)
    nodes.extend(NEXT + n for n in g1.nodes)
    edges: Set[Tuple[str, str]] = set()
    edges.update((CURRENT + u, CURRENT + v) for u, v in g2.edges)
    edges.update((NEXT + u, NEXT + v) for u, v in g1.edges)
    for source in g2.sources():
        edges.add((ROOT, CURRENT + source))
    for source in g1.sources():
        edges.add((ROOT, NEXT + source))
    return ComputationDAG(nodes=tuple(nodes), edges=frozenset(edges))


@dataclass(frozen=True)
class WindowSchedule:
    """Best schedule found for one bipartition's window."""

    bipartition: Bipartition
    order: Tuple[str, ...]
    schedule: ScheduleResult

    @property
    def period_seconds(self) -> float:
        """Steady-state seconds per epoch."""
        return self.schedule.makespan


def _window_weights(
    window: ComputationDAG, table: LatencyTable
) -> dict:
    """Best-case (min-over-arrays) op latencies for the critical-path
    heuristic order."""
    return {
        node: min(
            table.latency(node.split(".", 1)[1], kind)
            for kind in (
                PEArrayKind.ARRAY_2D, PEArrayKind.ARRAY_1D,
            )
        )
        if node != ROOT
        else 0.0
        for node in window.nodes
    }


def best_window_schedule(
    dag: ComputationDAG,
    bipartition: Bipartition,
    table: LatencyTable,
    max_orders: int,
) -> WindowSchedule:
    """DP-evaluate candidate topological orders of the window and
    keep the one with the smallest makespan.

    Candidates: up to ``max_orders`` enumerated orders, plus the
    critical-path list-scheduling order (long chains first) -- cheap
    insurance against the enumeration cap missing good interleavings
    on wide windows.

    Runs the fused branch-and-bound search
    (:func:`repro.dpipe.search.fused_best_order`), which evaluates the
    identical candidate set in the identical order and returns a
    byte-identical winner; :func:`legacy_window_schedule` keeps the
    original two-pass search as the differential reference.
    """
    schedule, _ = best_window_schedule_ex(
        dag, bipartition, table, max_orders
    )
    return schedule


def best_window_schedule_ex(
    dag: ComputationDAG,
    bipartition: Bipartition,
    table: LatencyTable,
    max_orders: int,
    units=None,
) -> Tuple[WindowSchedule, str]:
    """:func:`best_window_schedule` under an optional anytime unit
    budget (:class:`repro.resilience.budget.Budget`).

    Returns the schedule plus its provenance (``complete`` /
    ``budget_exhausted`` / ``fallback:first_order``); the
    critical-path candidate order is always evaluated, budget or not.
    """
    from repro.dpipe.search import fused_best_order_ex

    window = build_window(dag, bipartition)
    order, result, provenance = fused_best_order_ex(
        window, table, max_orders, zero_latency={ROOT},
        extra_orders=(
            critical_path_order(window, _window_weights(window,
                                                        table)),
        ),
        units=units,
    )
    return WindowSchedule(
        bipartition=bipartition, order=order, schedule=result
    ), provenance


def subgraph_makespan(
    dag: ComputationDAG,
    subset: FrozenSet[str],
    table: LatencyTable,
) -> float:
    """DP makespan of one subgraph alone (pipeline fill/drain term)."""
    sub = dag.induced(subset)
    order = sub.topological_order()
    return dp_schedule(order, sub.pred_map(), table).makespan


def cross_epoch_state_edges(cascade) -> List[Tuple[str, str]]:
    """Dependencies spanning consecutive epochs.

    An op reading recurrent state depends on the previous epoch's
    update op for that state, and each update op serializes with its
    own previous instance (the state-register handoff of Cascade 1's
    running max / denominator / numerator).
    """
    edges: List[Tuple[str, str]] = []
    update_ops = {}
    for state_name, sspec in cascade.state.items():
        producer = cascade.producer_of(sspec.update_from)
        if producer is not None:
            update_ops[state_name] = producer.name
    for op in cascade.all_ops:
        for state_name in op.state_inputs:
            if state_name in update_ops:
                edges.append((update_ops[state_name], op.name))
    for producer in update_ops.values():
        edges.append((producer, producer))
    return edges


def build_paired_window(
    dag: ComputationDAG,
    cascade,
) -> ComputationDAG:
    """Two *complete* consecutive epochs as one DAG.

    Unlike the bipartition window (half of each epoch), the paired
    window carries both epochs whole, joined only by the cross-epoch
    state edges.  It prices the overlap available to DAGs with no
    valid bipartition -- e.g. QKV's three independent projections,
    which can spread across both PE arrays *and* across epochs.
    """
    nodes: List[str] = [ROOT]
    nodes.extend(CURRENT + n for n in dag.nodes)
    nodes.extend(NEXT + n for n in dag.nodes)
    edges = set()
    edges.update((CURRENT + u, CURRENT + v) for u, v in dag.edges)
    edges.update((NEXT + u, NEXT + v) for u, v in dag.edges)
    for producer, consumer in cross_epoch_state_edges(cascade):
        edges.add((CURRENT + producer, NEXT + consumer))
    with_preds = {v for _, v in edges}
    for node in nodes[1:]:
        if node not in with_preds:
            edges.add((ROOT, node))
    return ComputationDAG(nodes=tuple(nodes),
                          edges=frozenset(edges))

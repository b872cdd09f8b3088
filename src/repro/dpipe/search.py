"""Fused branch-and-bound search over topological orders (Section 4.3).

The legacy DPipe pipeline (kept as the differential reference) first
materializes up to ``max_orders`` full topological orders of a window
(:func:`repro.graph.toposort.all_topological_orders`) and then runs the
Eq. 43-46 earliest-finish DP over each order from scratch
(:func:`repro.dpipe.scheduler.dp_schedule`).  Orders produced by the
enumeration share long prefixes, so the bulk of that DP work is
repeated, and every DP step pays string hashing (epoch-prefix
stripping, ``(op, array)`` dict lookups) per node per array.

This module fuses the two passes into a single DFS:

* **Interning** -- node names become integer ids once per search;
  epoch prefixes (``cur.`` / ``nxt.``) are pre-stripped and the
  per-(op, array) latencies resolved into flat float lists, so the
  inner loop does zero string hashing or splitting.
* **Incremental DP** -- the DFS carries the DP state (per-array
  clocks, per-node end times, busy totals) down the enumeration tree
  and snapshots/restores it on backtrack, so a prefix shared by many
  orders is scheduled once.  Restores are snapshots, never float
  subtraction, so the state at any leaf is bit-identical to running
  the legacy DP over that order from scratch.
* **Branch and bound** -- once an incumbent (first completed order's
  makespan) exists, a branch is pruned when a lower bound on every
  completion of its prefix is already ``>=`` the incumbent.  Because
  incumbent replacement is strict (``<``, matching the legacy
  first-found-minimum scan), no pruned leaf could ever have replaced
  the winner, so the returned schedule is identical.
* **Exact cap accounting** -- the legacy search evaluates exactly the
  first ``limit`` orders in enumeration order.  When a branch is
  pruned, its leaves are still *counted* (a cheap structural descent
  with no DP work, capped by the remaining budget), so the search
  stops after exactly the same set of orders the legacy path would
  have scored.

Lower-bound soundness (see DESIGN.md for the full argument): with
scheduled prefix ends ``E``, per-array clocks ``c``, and
``tail_min[v]`` the heaviest min-over-arrays-latency path from ``v``,

``LB = max(max(E), min(c) + max(tail_min[r] for r in ready))``

Every unscheduled node is a descendant of some ready node, array
clocks never decrease, and a chain executes sequentially at no less
than min-array latency per op, so any completion's makespan is
``>= LB``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.pe import PEArrayKind
from repro.dpipe.latency import LatencyTable
from repro.dpipe.scheduler import ARRAYS, ScheduleResult, _strip_epoch
from repro.graph.dag import ComputationDAG
from repro.resilience.budget import (
    PROVENANCE_BUDGET_EXHAUSTED,
    PROVENANCE_COMPLETE,
    RUNG_FIRST_ORDER,
    Budget,
    fallback_provenance,
)
from repro.validate.config import validation_enabled


class _Structure:
    """The latency-free half of an :class:`InternedProblem`.

    Ids, id-based predecessor/successor lists, epoch-stripped names,
    a topological order, each node's rank among the sorted names and
    the pruned-leaf count memo depend on the DAG alone, so they are
    built once per DAG instance and shared by every latency table it
    is searched under (the planner's per-cascade skeleton keeps its
    window DAGs alive across tiles).
    """

    __slots__ = ("names", "index", "preds", "succs", "bases",
                 "topo", "pred_map", "name_rank", "pred_masks",
                 "extensions")

    def __init__(self, dag: ComputationDAG) -> None:
        names = dag.nodes
        index = {name: i for i, name in enumerate(names)}
        pred_map = dag.pred_map()
        succ_map = dag.succ_map()
        self.names: Tuple[str, ...] = names
        self.index: Dict[str, int] = index
        self.pred_map: Dict[str, Set[str]] = pred_map
        self.preds: List[List[int]] = [
            [index[p] for p in pred_map[name]] for name in names
        ]
        # Rank-sorted successors: ids are insertion ranks, so a plain
        # ascending sort reproduces all_topological_orders' child
        # order exactly.
        self.succs: List[List[int]] = [
            sorted(index[s] for s in succ_map[name]) for name in names
        ]
        self.bases: Tuple[str, ...] = tuple(
            _strip_epoch(name) for name in names
        )
        indegree = [len(p) for p in self.preds]
        topo: List[int] = [
            v for v in range(len(names)) if indegree[v] == 0
        ]
        cursor = 0
        while cursor < len(topo):
            for s in self.succs[topo[cursor]]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    topo.append(s)
            cursor += 1
        self.topo: Tuple[int, ...] = tuple(topo)
        # critical_path_order's tie-break (the name) as an int.
        rank = [0] * len(names)
        for position, v in enumerate(
            sorted(range(len(names)), key=names.__getitem__)
        ):
            rank[v] = position
        self.name_rank: Tuple[int, ...] = tuple(rank)
        self.pred_masks: Tuple[int, ...] = tuple(
            sum(1 << p for p in preds) for preds in self.preds
        )
        #: ``cap -> {placed mask -> min(leaves, cap)}``, see
        #: :meth:`leaves`.
        self.extensions: Dict[int, Dict[int, int]] = {}

    def leaves(self, placed: int, cap: int) -> int:
        """``min(L, cap)``, where ``L`` counts the orders that complete
        the placed set (a bitmask of ids): the linear extensions of
        the sub-DAG of unplaced nodes.

        Memoised by (mask, cap).  A capped count stops summing its
        children once it reaches ``cap``, so each mask's work is
        bounded by the cap as the enumeration walk it replaces was.
        """
        memo = self.extensions.get(cap)
        if memo is None:
            memo = self.extensions[cap] = {}
        known = memo.get(placed)
        if known is not None:
            return known
        full = (1 << len(self.names)) - 1
        pred_masks = self.pred_masks

        def count(placed: int) -> int:
            total = memo.get(placed)
            if total is None:
                if placed == full:
                    total = 1
                else:
                    total = 0
                    for v, need in enumerate(pred_masks):
                        bit = 1 << v
                        if not placed & bit and need & placed == need:
                            total += count(placed | bit)
                            if total >= cap:
                                total = cap
                                break
                memo[placed] = total
            return total

        return count(placed)

    def critical_path(self, tail_min: Sequence[float]) -> List[int]:
        """:func:`~repro.graph.toposort.critical_path_order` in ids.

        ``tail_min`` is the min-over-arrays critical path from each
        node -- bit for bit the weights ``critical_path_order``
        accumulates for a window (zero for the virtual ROOT) -- and
        the ready node with the heaviest tail, then the smallest
        name, goes first.  That key is a total order, so one sort
        gives each node a priority and a heap replays the
        list-scheduling loop.
        """
        n = len(self.names)
        rank = self.name_rank
        by_priority = sorted(
            range(n), key=lambda v: (-tail_min[v], rank[v])
        )
        priority = [0] * n
        for position, v in enumerate(by_priority):
            priority[v] = position
        indegree = [len(p) for p in self.preds]
        ready = [priority[v] for v in range(n) if indegree[v] == 0]
        heapify(ready)
        order: List[int] = []
        succs = self.succs
        while ready:
            v = by_priority[heappop(ready)]
            order.append(v)
            for s in succs[v]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heappush(ready, priority[s])
        return order


def _structure(dag: ComputationDAG) -> _Structure:
    """``dag``'s :class:`_Structure`, memoised on the instance.

    :class:`ComputationDAG` is a frozen dataclass, so the memo is
    written straight into the instance ``__dict__`` (as
    :func:`functools.cached_property` does); it is not a field, so
    equality, hashing and ``asdict`` never see it, and it lives and
    dies with the DAG.
    """
    structure = dag.__dict__.get("_interned")
    if structure is None:
        structure = _Structure(dag)
        dag.__dict__["_interned"] = structure
    return structure


class InternedProblem:
    """One window/DAG interned for the fused search.

    Node names map to integer ids in DAG insertion order (the same
    order :func:`all_topological_orders` uses for its deterministic
    tie-breaks), predecessor/successor lists are id-based with
    successors rank-sorted, and latencies are flat per-array float
    lists with epoch prefixes already stripped and zero-latency nodes
    (the virtual ROOT) already resolved to 0.0.  Everything but the
    latencies comes from the DAG's memoised :class:`_Structure`.
    """

    __slots__ = (
        "names", "preds", "succs", "lat2", "lat1", "tail_min",
        "pred_map", "zero_latency", "index", "structure",
    )

    def __init__(
        self,
        dag: ComputationDAG,
        table: LatencyTable,
        zero_latency: Set[str] = frozenset(),
    ) -> None:
        structure = _structure(dag)
        self.structure = structure
        self.names: Tuple[str, ...] = structure.names
        self.index: Dict[str, int] = structure.index
        self.pred_map: Dict[str, Set[str]] = structure.pred_map
        self.zero_latency: Set[str] = set(zero_latency)
        self.preds: List[List[int]] = structure.preds
        self.succs: List[List[int]] = structure.succs
        seconds = table.seconds
        lat2: List[float] = []
        lat1: List[float] = []
        for name, base in zip(structure.names, structure.bases):
            if name in zero_latency:
                lat2.append(0.0)
                lat1.append(0.0)
            else:
                lat2.append(seconds[(base, 0)])  # ARRAYS[0], the 2D
                lat1.append(seconds[(base, 1)])
        self.lat2 = lat2
        self.lat1 = lat1
        self.tail_min = self._tails(structure.topo)

    def _tails(self, topo: Sequence[int]) -> List[float]:
        """Min-over-arrays critical path from each node (inclusive)."""
        succs, lat2, lat1 = self.succs, self.lat2, self.lat1
        tail = [0.0] * len(self.names)
        for v in reversed(topo):
            heaviest = 0.0
            for s in succs[v]:
                if tail[s] > heaviest:
                    heaviest = tail[s]
            own = lat2[v] if lat2[v] < lat1[v] else lat1[v]
            tail[v] = own + heaviest
        return tail


def _dp_over_ids(
    problem: InternedProblem, order_ids: Sequence[int]
) -> Tuple[float, List[float], List[int], float, float]:
    """Straight Eq. 43-46 DP over one interned order.

    Used for the extra (critical-path) candidate orders that the
    legacy path appends after enumeration.  Arithmetic matches
    :func:`dp_schedule` exactly.
    """
    lat2, lat1, preds = problem.lat2, problem.lat1, problem.preds
    n_total = len(problem.names)
    ends = [0.0] * n_total
    scheduled = [False] * n_total
    ends_by_pos: List[float] = []
    assign_by_pos: List[int] = []
    clock2 = clock1 = 0.0
    busy2 = busy1 = 0.0
    makespan = 0.0
    for v in order_ids:
        dep_ready = 0.0
        for p in preds[v]:
            if scheduled[p] and ends[p] > dep_ready:
                dep_ready = ends[p]
        finish2 = (clock2 if clock2 > dep_ready else dep_ready) \
            + lat2[v]
        finish1 = (clock1 if clock1 > dep_ready else dep_ready) \
            + lat1[v]
        if finish1 < finish2:  # Eq. 45 (strict: 2D wins ties)
            clock1 = finish1  # Eq. 46
            busy1 += lat1[v]
            ends[v] = finish1
            assign_by_pos.append(1)
        else:
            clock2 = finish2
            busy2 += lat2[v]
            ends[v] = finish2
            assign_by_pos.append(0)
        scheduled[v] = True
        ends_by_pos.append(ends[v])
        if ends[v] > makespan:
            makespan = ends[v]
    return makespan, ends_by_pos, assign_by_pos, busy2, busy1


class _FusedSearch:
    """DFS state for one fused enumerate-and-schedule pass."""

    def __init__(
        self,
        problem: InternedProblem,
        limit: int,
        units: Optional[Budget] = None,
    ) -> None:
        self.problem = problem
        self.limit = limit
        self.budget = limit  # the legacy max-orders cap, not units
        self.units = units
        self.exhausted = False
        n = len(problem.names)
        self.n = n
        self.indegree = [len(p) for p in problem.preds]
        self.ready: List[int] = [
            v for v in range(n) if self.indegree[v] == 0
        ]
        self.order: List[int] = []
        self.ends = [0.0] * n
        self.ends_by_pos: List[float] = []
        self.assign_by_pos: List[int] = []
        self.clock2 = 0.0
        self.clock1 = 0.0
        self.busy2 = 0.0
        self.busy1 = 0.0
        self.max_end = 0.0
        # Incumbent (first-found strict minimum, as in the legacy
        # enumerate-then-score loop).
        self.best_makespan: Optional[float] = None
        self.best_order: Optional[Tuple[int, ...]] = None
        self.best_ends: List[float] = []
        self.best_assign: List[int] = []
        self.best_busy2 = 0.0
        self.best_busy1 = 0.0

    # ------------------------------------------------------------------
    # Fused DFS
    # ------------------------------------------------------------------
    def run(self) -> None:
        if self.budget > 0:
            self._descend()

    def _descend(self) -> bool:
        """Extend the current prefix; False once the budget is spent."""
        if self.units is not None and not self.units.charge():
            # Deterministic unit budget spent: stop expanding and keep
            # whatever incumbent exists (anytime behaviour).  Charged
            # per DFS node visit, so the cut point is identical on
            # every host.
            self.exhausted = True
            return False
        if len(self.order) == self.n:
            self.budget -= 1
            makespan = self.max_end
            if (
                self.best_makespan is None
                or makespan < self.best_makespan
            ):
                self.best_makespan = makespan
                self.best_order = tuple(self.order)
                self.best_ends = list(self.ends_by_pos)
                self.best_assign = list(self.assign_by_pos)
                self.best_busy2 = self.busy2
                self.best_busy1 = self.busy1
            return self.budget > 0
        if self.best_makespan is not None and self._bounded():
            # Every completion of this prefix scores >= the incumbent;
            # count its leaves against the cap without scheduling them.
            return self._count_skipped()
        problem = self.problem
        lat2, lat1 = problem.lat2, problem.lat1
        preds, succs = problem.preds, problem.succs
        ready, indegree = self.ready, self.indegree
        ends = self.ends
        for i in range(len(ready)):
            v = ready.pop(i)
            self.order.append(v)
            dep_ready = 0.0
            for p in preds[v]:
                if ends[p] > dep_ready:
                    dep_ready = ends[p]
            clock2, clock1 = self.clock2, self.clock1
            finish2 = (clock2 if clock2 > dep_ready else dep_ready) \
                + lat2[v]
            finish1 = (clock1 if clock1 > dep_ready else dep_ready) \
                + lat1[v]
            saved_busy2, saved_busy1 = self.busy2, self.busy1
            saved_max = self.max_end
            if finish1 < finish2:  # Eq. 45 (strict: 2D wins ties)
                finish = finish1
                self.clock1 = finish1  # Eq. 46
                self.busy1 += lat1[v]
                self.assign_by_pos.append(1)
            else:
                finish = finish2
                self.clock2 = finish2
                self.busy2 += lat2[v]
                self.assign_by_pos.append(0)
            ends[v] = finish
            self.ends_by_pos.append(finish)
            if finish > self.max_end:
                self.max_end = finish
            opened: List[int] = []
            for s in succs[v]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    opened.append(s)
            ready.extend(opened)
            keep_going = self._descend()
            for s in opened:
                ready.remove(s)
            for s in succs[v]:
                indegree[s] += 1
            self.order.pop()
            self.ends_by_pos.pop()
            self.assign_by_pos.pop()
            # Snapshot restore (never float subtraction): the DP state
            # seen by every sibling is bit-identical to a from-scratch
            # replay of the shared prefix.
            self.clock2, self.clock1 = clock2, clock1
            self.busy2, self.busy1 = saved_busy2, saved_busy1
            self.max_end = saved_max
            ready.insert(i, v)
            if not keep_going:
                return False
        return True

    # ------------------------------------------------------------------
    # Bound
    # ------------------------------------------------------------------
    def _bounded(self) -> bool:
        """Whether no completion of the prefix can beat the incumbent."""
        bound = self.max_end
        tail_min = self.problem.tail_min
        heaviest = 0.0
        for r in self.ready:
            if tail_min[r] > heaviest:
                heaviest = tail_min[r]
        floor = (
            self.clock2 if self.clock2 < self.clock1 else self.clock1
        ) + heaviest
        if floor > bound:
            bound = floor
        assert self.best_makespan is not None
        return bound >= self.best_makespan

    def _count_skipped(self) -> bool:
        """Count the pruned prefix's leaves against the cap.

        The legacy search would have enumerated (and scored) these
        orders, so the cap must consume them: ``min(leaves,
        budget)`` of it, exactly as a structural walk over them
        would, from the memoised count of orders completing the
        placed set.
        """
        placed = 0
        for v in self.order:
            placed |= 1 << v
        leaves = self.problem.structure.leaves(placed, self.limit)
        if leaves >= self.budget:
            self.budget = 0
            return False
        self.budget -= leaves
        return True


def _first_topo_order(problem: InternedProblem) -> List[int]:
    """The first topological order in the deterministic enumeration
    order (always-pick-the-lowest-ranked-ready-node), used as the
    legacy fallback when a unit budget expires before the fused DFS
    completes its first leaf."""
    indegree = [len(p) for p in problem.preds]
    ready = [v for v in range(len(problem.names)) if indegree[v] == 0]
    order: List[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        opened = []
        for s in problem.succs[v]:
            indegree[s] -= 1
            if indegree[s] == 0:
                opened.append(s)
        ready.extend(opened)
        ready.sort()
    return order


def fused_best_order(
    dag: ComputationDAG,
    table: LatencyTable,
    limit: int,
    zero_latency: Set[str] = frozenset(),
    extra_orders: Sequence[Tuple[str, ...]] = (),
) -> Tuple[Tuple[str, ...], ScheduleResult]:
    """Best (order, schedule) over enumerated + extra candidate orders.

    Byte-identical to the legacy two-pass search: evaluate the first
    ``limit`` topological orders of ``dag`` (in
    :func:`all_topological_orders`' deterministic enumeration order)
    with the Eq. 43-46 DP, then any ``extra_orders`` (e.g. the
    critical-path heuristic order), keeping the first strict-minimum
    makespan.

    Args:
        dag: The (window) DAG to search.
        limit: Cap on enumerated orders (the ``max_orders`` budget).
        zero_latency: Nodes scheduled at zero cost (the virtual ROOT).
        extra_orders: Candidate orders appended after enumeration,
            exactly as the legacy path appends the critical-path
            order.

    Returns:
        The winning order and its schedule.  When validation is
        enabled the winning schedule is audited in place (exact
        Eq. 43-46 replay) before being returned.
    """
    names, result, _ = fused_best_order_ex(
        dag, table, limit, zero_latency, extra_orders
    )
    return names, result


def fused_best_order_ex(
    dag: ComputationDAG,
    table: LatencyTable,
    limit: int,
    zero_latency: Set[str] = frozenset(),
    extra_orders: Sequence[Tuple[str, ...]] = (),
    units: Optional[Budget] = None,
    critical_path: bool = False,
) -> Tuple[Tuple[str, ...], ScheduleResult, str]:
    """:func:`fused_best_order` plus an anytime unit budget.

    With ``units=None`` (or an unexhausted budget) this is exactly
    :func:`fused_best_order` with ``complete`` provenance.  When the
    budget runs out mid-DFS the best incumbent so far is returned with
    ``budget_exhausted`` provenance; if no leaf was reached at all,
    the first topological order is scheduled directly (the legacy
    capped-enumeration degenerate case) and the provenance is
    ``fallback:first_order``.  ``extra_orders`` are always evaluated
    -- they are O(n) deterministic candidates.  ``critical_path=True``
    appends one more: :func:`~repro.graph.toposort.critical_path_order`
    under min-over-arrays latencies (zero for ``zero_latency`` nodes),
    built in ids from the interned problem.

    Returns:
        ``(order, schedule, provenance)``.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    problem = InternedProblem(dag, table, zero_latency)
    search = _FusedSearch(problem, limit, units=units)
    search.run()
    provenance = PROVENANCE_COMPLETE
    if search.best_order is not None:
        best_names: Tuple[str, ...] = tuple(
            problem.names[v] for v in search.best_order
        )
        best = (
            search.best_makespan, search.best_ends,
            search.best_assign, search.best_busy2, search.best_busy1,
        )
        if search.exhausted:
            provenance = PROVENANCE_BUDGET_EXHAUSTED
    else:
        # Budget expired before the DFS completed any order: fall
        # back to scheduling the first topological order directly.
        first = _first_topo_order(problem)
        makespan, ends, assign, busy2, busy1 = _dp_over_ids(
            problem, first
        )
        best_names = tuple(problem.names[v] for v in first)
        best = (makespan, ends, assign, busy2, busy1)
        provenance = fallback_provenance(RUNG_FIRST_ORDER)
    index = problem.index
    candidates = [[index[name] for name in extra]
                  for extra in extra_orders]
    if critical_path:
        candidates.append(
            problem.structure.critical_path(problem.tail_min)
        )
    for ids in candidates:
        makespan, ends, assign, busy2, busy1 = _dp_over_ids(
            problem, ids
        )
        if makespan < best[0]:  # strict: first-found winner stands
            best_names = tuple(problem.names[v] for v in ids)
            best = (makespan, ends, assign, busy2, busy1)
    makespan, ends_by_pos, assign_by_pos, busy2, busy1 = best
    end_times: Dict[str, float] = {}
    assignment: Dict[str, PEArrayKind] = {}
    for name, end, kind in zip(best_names, ends_by_pos,
                               assign_by_pos):
        end_times[name] = end
        assignment[name] = ARRAYS[kind]
    result = ScheduleResult(
        makespan=makespan,
        assignment=assignment,
        end_times=end_times,
        busy_seconds={ARRAYS[0]: busy2, ARRAYS[1]: busy1},
    )
    if validation_enabled():
        # The legacy path audits every DP pass; the fused search
        # audits the pass that becomes the plan -- an exact Eq. 43-46
        # replay of the winning schedule under the recorded choices.
        from repro.validate.schedule import audit_schedule

        audit_schedule(
            best_names, problem.pred_map, table, result,
            problem.zero_latency,
        ).raise_if_failed()
    return best_names, result, provenance

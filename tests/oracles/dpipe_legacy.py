"""The original enumerate-then-score DPipe planner, kept verbatim.

The differential reference for the fused search
(:mod:`repro.dpipe.search`) and the kernel-memoizing planner
(:func:`repro.dpipe.planner.plan_cascade`): the property suite and
``benchmarks/bench_framework_perf.py`` assert the production path
returns identical plans and windows -- at a fraction of the cost.
No production path imports this module.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.arch.pe import PEArrayKind
from repro.arch.spec import ArchitectureSpec
from repro.dpipe.latency import LatencyTable, build_latency_table
from repro.dpipe.options import DPipeOptions
from repro.dpipe.pipeline import (
    ROOT,
    WindowSchedule,
    _window_weights,
    build_paired_window,
    build_window,
    subgraph_makespan,
)
from repro.dpipe.planner import DPipePlan, _pinned_table
from repro.dpipe.scheduler import ARRAYS, ScheduleResult, dp_schedule
from repro.einsum.cascade import Cascade
from repro.graph.dag import ComputationDAG
from repro.graph.partition import Bipartition, enumerate_bipartitions
from repro.graph.toposort import (
    all_topological_orders,
    critical_path_order,
)


def legacy_window_schedule(
    dag: ComputationDAG,
    bipartition: Bipartition,
    table: LatencyTable,
    max_orders: int,
) -> WindowSchedule:
    """The original enumerate-then-score window search.

    Kept verbatim as the differential reference for
    :func:`best_window_schedule`: property tests and the framework
    benchmarks assert the fused search returns identical results at a
    fraction of the cost.
    """
    window = build_window(dag, bipartition)
    preds = window.pred_map()
    candidates = list(
        all_topological_orders(window, limit=max_orders)
    )
    candidates.append(
        critical_path_order(window, _window_weights(window, table))
    )
    best: Optional[WindowSchedule] = None
    for order in candidates:
        result = dp_schedule(
            order, preds, table, zero_latency={ROOT}
        )
        if best is None or result.makespan < best.schedule.makespan:
            best = WindowSchedule(
                bipartition=bipartition,
                order=order,
                schedule=result,
            )
    assert best is not None  # every DAG has >= 1 topological order
    return best


def _best_single_epoch(
    dag: ComputationDAG,
    table: LatencyTable,
    max_orders: int,
) -> ScheduleResult:
    """Best single-epoch DP schedule over enumerated topo orders."""
    preds = dag.pred_map()
    best: Optional[ScheduleResult] = None
    for order in all_topological_orders(dag, limit=max_orders):
        result = dp_schedule(order, preds, table)
        if best is None or result.makespan < best.makespan:
            best = result
    assert best is not None
    return best


def _static_pipeline_plan(
    cascade: Cascade,
    layer: str,
    table: LatencyTable,
    n_epochs: int,
) -> DPipePlan:
    """The FuseMax-style static pipeline as a schedule candidate.

    Ops keep their natural arrays and the two per-array stages of
    consecutive epochs fully overlap in steady state: epoch period =
    max of the per-array latency sums, plus one fill.  This schedule
    is a member of DPipe's search space (a source/sink bipartition
    with stage-ordered interleaving); enumerating it explicitly
    guarantees the capped window search never returns anything worse.
    """
    sums: Dict[PEArrayKind, float] = {kind: 0.0 for kind in ARRAYS}
    loads: Dict[PEArrayKind, float] = {kind: 0.0 for kind in ARRAYS}
    for op in cascade.all_ops:
        natural = (
            PEArrayKind.ARRAY_2D
            if op.is_gemm_like
            else PEArrayKind.ARRAY_1D
        )
        sums[natural] += table.latency(op.name, natural)
        loads[natural] += table.load(op.name)
    period = max(sums.values())
    fill = min(sums.values())
    return DPipePlan(
        layer=layer,
        n_epochs=n_epochs,
        epoch_seconds=period,
        total_seconds=n_epochs * period + fill,
        busy_seconds={
            kind: n_epochs * sums[kind] for kind in ARRAYS
        },
        load_split={
            kind: n_epochs * loads[kind] for kind in ARRAYS
        },
        pipelined=True,
    )


def _paired_window_plan(
    cascade: Cascade,
    dag: ComputationDAG,
    layer: str,
    table: LatencyTable,
    n_epochs: int,
    single: ScheduleResult,
    max_orders: int,
) -> Optional[DPipePlan]:
    """Epoch overlap for DAGs regardless of bipartition validity.

    Prices two *whole* consecutive epochs as one DP problem (joined by
    the cross-epoch state edges) and takes half the pair makespan as
    the steady-state period.  This captures overlap the bipartition
    window cannot express -- e.g. QKV's three independent projections
    spreading over both PE arrays *and* two epochs.
    """
    if n_epochs < 2:
        return None
    window = build_paired_window(dag, cascade)
    preds = window.pred_map()
    best: Optional[ScheduleResult] = None
    for order in all_topological_orders(window, limit=max_orders):
        result = dp_schedule(order, preds, table,
                             zero_latency={ROOT})
        if best is None or result.makespan < best.makespan:
            best = result
    assert best is not None
    period = best.makespan / 2.0
    total = single.makespan + (n_epochs - 1) * period
    # The pair carries two epochs of work: halve its busy/load totals
    # to get the per-epoch split.
    split = best.load_split(table)
    return DPipePlan(
        layer=layer,
        n_epochs=n_epochs,
        epoch_seconds=period,
        total_seconds=total,
        busy_seconds={
            kind: n_epochs * best.busy_seconds[kind] / 2.0
            for kind in ARRAYS
        },
        load_split={
            kind: n_epochs * load / 2.0
            for kind, load in split.items()
        },
        pipelined=True,
    )


def plan_cascade_legacy(
    cascade: Cascade,
    layer: str,
    tile: Mapping[str, int],
    arch: ArchitectureSpec,
    n_epochs: int,
    options: DPipeOptions = DPipeOptions(),
) -> DPipePlan:
    """The original enumerate-then-score planner, unfused and
    unmemoized.

    Kept verbatim as the differential reference: the property suite
    and the framework benchmarks assert
    ``plan_cascade(...) == plan_cascade_legacy(...)`` while timing the
    speedup of the fused path.
    """
    if n_epochs <= 0:
        raise ValueError("n_epochs must be positive")
    dag = ComputationDAG.from_cascade(cascade)
    table = build_latency_table(cascade, layer, tile, arch)
    if not options.enable_dp_assignment:
        table = _pinned_table(cascade, table)

    def compute_energy_pj(plan: DPipePlan) -> float:
        return arch.energy.pe_energy_pj(
            plan.load_split[PEArrayKind.ARRAY_2D],
            plan.load_split[PEArrayKind.ARRAY_1D],
        )

    def score(plan: DPipePlan) -> float:
        if options.objective == "latency":
            return plan.total_seconds
        if options.objective == "energy":
            return compute_energy_pj(plan)
        return plan.total_seconds * compute_energy_pj(plan)  # edp

    single = _best_single_epoch(dag, table, options.max_orders)
    best_plan = DPipePlan(
        layer=layer,
        n_epochs=n_epochs,
        epoch_seconds=single.makespan,
        total_seconds=n_epochs * single.makespan,
        busy_seconds={
            kind: n_epochs * single.busy_seconds[kind]
            for kind in ARRAYS
        },
        load_split={
            kind: n_epochs * load
            for kind, load in single.load_split(table).items()
        },
        pipelined=False,
    )
    if not options.enable_pipelining or n_epochs < 2:
        return best_plan

    candidates = [
        _static_pipeline_plan(cascade, layer, table, n_epochs),
    ]
    paired = _paired_window_plan(
        cascade, dag, layer, table, n_epochs, single,
        options.max_orders,
    )
    if paired is not None:
        candidates.append(paired)

    bipartitions = enumerate_bipartitions(
        dag, limit=options.max_bipartitions
    )
    for bipartition in bipartitions:
        window = legacy_window_schedule(
            dag, bipartition, table, options.max_orders
        )
        fill = subgraph_makespan(dag, bipartition.first, table)
        drain = subgraph_makespan(dag, bipartition.second, table)
        total = fill + (n_epochs - 1) * window.period_seconds + drain
        split = window.schedule.load_split(table)
        candidates.append(DPipePlan(
            layer=layer,
            n_epochs=n_epochs,
            epoch_seconds=window.period_seconds,
            total_seconds=total,
            busy_seconds={
                kind: n_epochs
                * window.schedule.busy_seconds[kind]
                for kind in ARRAYS
            },
            load_split={
                kind: n_epochs * load
                for kind, load in split.items()
            },
            bipartition=bipartition,
            window_order=window.order,
            pipelined=True,
        ))
    for candidate in candidates:
        if score(candidate) < score(best_plan):
            best_plan = candidate
    return best_plan

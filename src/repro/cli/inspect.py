"""``repro inspect``: one sub-layer's DPipe window as an ASCII Gantt."""

from __future__ import annotations

import argparse

from repro.arch.spec import named_architecture
from repro.cli import add_workload_args, workload_from


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``inspect`` verb's arguments."""
    add_workload_args(parser)
    parser.add_argument(
        "--layer", default="mha",
        choices=("qkv", "mha", "layernorm", "ffn"),
    )


def run(args: argparse.Namespace) -> int:
    """Render one sub-layer's DPipe schedule as an ASCII Gantt."""
    from repro.dpipe.latency import build_latency_table
    from repro.dpipe.pipeline import ROOT
    from repro.dpipe.planner import plan_cascade, plan_window_schedule
    from repro.dpipe.visualize import render_gantt, schedule_timeline
    from repro.core.executor import TransFusionExecutor
    from repro.graph.dag import ComputationDAG

    arch = named_architecture(args.arch)
    workload = workload_from(args)
    executor = TransFusionExecutor()
    cascade = executor.cascades(
        workload.model, masked=workload.causal
    )[args.layer]
    tile = executor.inner_tile(workload, args.layer, arch)
    n_epochs = executor.epoch_count(workload, args.layer, tile)
    options = executor.dpipe_options
    plan = plan_cascade(
        cascade, args.layer, tile, arch, n_epochs, options
    )
    table = build_latency_table(cascade, args.layer, tile, arch)
    print(
        f"{args.layer} on {arch.name}: {n_epochs:,} epochs, "
        f"steady-state period {plan.epoch_seconds:.3e}s, "
        f"pipelined={plan.pipelined}"
    )
    # Re-derive the window through the planner's own search entry so
    # the rendered Gantt always matches the plan (same fused search,
    # same options -- previously this re-searched with a hardcoded
    # max_orders and could drift from the planner).
    window = plan_window_schedule(
        cascade, args.layer, tile, arch, plan, options
    )
    if window is not None:
        timeline = schedule_timeline(
            window.schedule, table, zero_latency={ROOT}
        )
        print(render_gantt(timeline))
    else:
        from repro.dpipe.scheduler import dp_schedule

        dag = ComputationDAG.from_cascade(cascade)
        result = dp_schedule(
            dag.topological_order(), dag.pred_map(), table
        )
        print(render_gantt(schedule_timeline(result, table)))
    return 0


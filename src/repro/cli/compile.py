"""``repro compile``: compile a workload with TransFusion.

Prints the plan: TileSeek tiling, per-layer DPipe schedules and
residency.
"""

from __future__ import annotations

import argparse

from repro.arch.spec import named_architecture
from repro.cli import add_workload_args, workload_from


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``compile`` verb's arguments."""
    add_workload_args(parser)
    parser.add_argument(
        "--out", default="",
        help="write the compiled plan as JSON to this path",
    )


def run(args: argparse.Namespace) -> int:
    """Compile one workload with TransFusion and print the plan."""
    from repro.core.framework import TransFusion

    arch = named_architecture(args.arch)
    workload = workload_from(args)
    plan = TransFusion(arch).compile(workload)
    print(f"workload: {plan.workload} on {plan.architecture}")
    print(f"tiling:   {plan.tiling.config}")
    assessment = plan.tiling.assessment
    print(
        f"          kv passes {assessment.kv_passes}, weight passes "
        f"{assessment.weight_passes}, buffer "
        f"{assessment.buffer_words_required:.3e} / "
        f"{arch.buffer_words:.3e} words"
    )
    for layer in plan.layers:
        state = "pipelined" if layer.pipelined else "sequential"
        print(
            f"  {layer.layer:10s} {state:10s}"
            f" epochs={layer.plan.n_epochs:>11,d}"
            f" total={layer.plan.total_seconds:.4e}s"
        )
    summary = plan.summary(arch)
    print(
        f"per-layer latency {summary['latency_s']:.4e}s, energy "
        f"{summary['energy_pj'] / 1e12:.3f} J, DRAM "
        f"{summary['dram_words']:.3e} words"
    )
    if args.out:
        from repro.core.serialize import save_plan

        path = save_plan(plan, arch, args.out)
        print(f"plan written to {path}")
    return 0


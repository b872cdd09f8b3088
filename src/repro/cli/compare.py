"""``repro compare``: every executor on one workload, side by side.

Prints latency, speedup over Unfused, utilization and energy.
"""

from __future__ import annotations

import argparse

from repro.arch.spec import named_architecture
from repro.cli import add_workload_args, workload_from


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``compare`` verb's arguments."""
    add_workload_args(parser)


def run(args: argparse.Namespace) -> int:
    """Run every executor on one workload and print a comparison."""
    from repro.arch.pe import PEArrayKind
    from repro.core.framework import DEFAULT_EXECUTORS, compare_executors
    from repro.metrics.tables import format_table

    arch = named_architecture(args.arch)
    workload = workload_from(args)
    reports = compare_executors(workload, arch,
                                executors=DEFAULT_EXECUTORS)
    base = reports["unfused"].latency_seconds(arch)
    rows = []
    for name, report in reports.items():
        util = report.utilization(arch)
        rows.append([
            name,
            report.latency_seconds(arch),
            base / report.latency_seconds(arch),
            util[PEArrayKind.ARRAY_2D],
            util[PEArrayKind.ARRAY_1D],
            report.energy(arch).total_pj / 1e12,
        ])
    print(format_table(
        ["executor", "latency (s)", "speedup", "2D util", "1D util",
         "energy (J)"],
        rows,
        title=f"{workload.describe()} on {arch.name}, per layer",
    ))
    return 0


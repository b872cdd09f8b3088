"""``repro figures``: regenerate one of the paper's figures as a table."""

from __future__ import annotations

import argparse
import sys


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``figures`` verb's arguments."""
    parser.add_argument(
        "figure",
        choices=("fig8", "fig9", "fig10", "fig11", "fig12",
                 "fig13", "table2"),
    )


def run(args: argparse.Namespace) -> int:
    """Re-run the benchmark harness for one paper figure."""
    import subprocess

    bench = {
        "fig8": "bench_fig08_speedup.py",
        "fig9": "bench_fig09_pe_size.py",
        "fig10": "bench_fig10_utilization.py",
        "fig11": "bench_fig11_contribution.py",
        "fig12": "bench_fig12_energy.py",
        "fig13": "bench_fig13_breakdown.py",
        "table2": "bench_table2_buffer.py",
    }[args.figure]
    return subprocess.call([
        sys.executable, "-m", "pytest", f"benchmarks/{bench}",
        "--benchmark-only", "-q",
    ])


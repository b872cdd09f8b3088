#!/usr/bin/env python
"""Regenerate the entire evaluation in one command.

Prewarms the persistent sweep cache over the figure grid (optionally
in parallel with ``--jobs``), runs the full test suite, every
per-figure benchmark harness (tables archived under
``benchmarks/results/``), and prints the headline paper-vs-measured
summary at the end.  Each benchmark harness runs in its own pytest
process; the prewarmed cache means none of them redo TileSeek/DPipe
planning from scratch.

Usage:
    python scripts/reproduce_all.py [--skip-tests] [--jobs N]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run(args: list) -> int:
    print(f"$ {' '.join(args)}", flush=True)
    return subprocess.call(args, cwd=REPO)


def prewarm(jobs: int, retries: int, timeout: float) -> bool:
    """Populate the persistent cache over the main figure grid.

    The grid matches Figures 8-13's hot loop (Llama3 across the
    1K-1M sequence sweep plus the model suite at 64K, cloud and
    edge), so the cache keys match the figures'
    :func:`repro.experiments.runner.get_report` lookups exactly.

    Runs fault-tolerantly: failed chains retry with deterministic
    backoff, completed points are journaled (so a killed prewarm
    resumes where it stopped on the next invocation), and any point
    that still fails is reported and *skipped* -- the per-figure
    benchmark that needs it will recompute it, so a flaky chain
    never sinks the whole reproduction.  Returns whether every point
    prewarmed cleanly.
    """
    from repro.experiments.fig08_speedup import EXECUTORS
    from repro.experiments.runner import (
        BATCH,
        DEFAULT_SEQ_LENGTHS,
        EVAL_MODELS,
    )
    from repro.runner import GridPoint, default_journal_path, run_grid

    executors = ("unfused",) + EXECUTORS
    points = [
        GridPoint(executor=name, model="llama3", seq_len=seq,
                  arch=arch, batch=BATCH)
        for arch in ("cloud", "edge")
        for name in executors
        for seq in DEFAULT_SEQ_LENGTHS
    ] + [
        GridPoint(executor=name, model=model, seq_len=65536,
                  arch=arch, batch=BATCH)
        for arch in ("cloud", "edge")
        for name in executors
        for model in EVAL_MODELS
    ]
    start = time.perf_counter()
    result = run_grid(
        points,
        jobs=jobs,
        retries=retries,
        timeout=timeout if timeout > 0 else None,
        strict=False,
        journal=default_journal_path(points),
        resume=True,
    )
    counts = ", ".join(
        f"{status}={count}"
        for status, count in sorted(result.counts().items())
    )
    print(
        f"prewarmed {len(result)}/{len(result.points)} grid points "
        f"in {time.perf_counter() - start:.1f}s "
        f"(jobs={jobs}; {counts})",
        flush=True,
    )
    for point in result.failed_points():
        print(f"  PREWARM {result.statuses[point].upper()}: "
              f"{result.failures[point]}", flush=True)
    return result.ok


def headline() -> None:
    from repro.experiments.fig08_speedup import fig8a
    from repro.experiments.fig10_utilization import fig10a
    from repro.metrics.speedup import geomean
    from repro.metrics.tables import format_table

    data = fig8a()
    rows = []
    paper = {
        ("cloud", "fusemax"): 1.6, ("cloud", "fusemax+lf"): 1.3,
        ("cloud", "flat"): 7.0, ("edge", "fusemax"): 2.2,
        ("edge", "fusemax+lf"): 1.8, ("edge", "flat"): 3.2,
    }
    for arch, per_seq in data.items():
        for name in ("fusemax", "fusemax+lf", "flat"):
            measured = geomean(
                per_seq[s]["transfusion"] / per_seq[s][name]
                for s in per_seq
            )
            rows.append([
                arch, f"TransFusion / {name}",
                paper[(arch, name)], measured,
            ])
    util = fig10a()
    tf_util = sum(u["transfusion"]["2d"] for u in util.values())
    tf_util /= len(util)
    rows.append(["cloud", "TransFusion 2D utilization", 0.58,
                 tf_util])
    print()
    print(format_table(
        ["arch", "quantity", "paper", "measured"],
        rows,
        title="Headline reproduction summary (geomean, Llama3 "
              "1K-1M)",
    ))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-tests", action="store_true",
                        help="only run the benchmark harnesses")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="processes used to prewarm the sweep cache",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per failed prewarm chain",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-chain prewarm timeout in seconds (0: unlimited)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(REPO / "src"))
    if not prewarm(args.jobs, args.retries, args.timeout):
        print("prewarm left gaps; benchmarks will recompute them",
              flush=True)
    if not args.skip_tests:
        rc = run([sys.executable, "-m", "pytest", "tests/"])
        if rc:
            return rc
    rc = run([
        sys.executable, "-m", "pytest", "benchmarks/",
        "--benchmark-only", "-q",
    ])
    if rc:
        return rc
    headline()
    print(
        "\nPer-figure tables archived under benchmarks/results/; "
        "see EXPERIMENTS.md for the\npaper-vs-measured index."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

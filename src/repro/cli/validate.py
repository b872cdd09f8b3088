"""``repro validate``: audit one grid point with every invariant auditor.

The point's report is served from the plan cache when possible; the
schedule / tiling / conservation / oracle auditors check it, and
``--out`` writes the structured audit report as JSON.
"""

from __future__ import annotations

import argparse

from repro.arch.spec import named_architecture
from repro.cli import add_workload_args


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``validate`` verb's arguments."""
    add_workload_args(parser)
    parser.add_argument(
        "--executor", default="transfusion",
        help="executor registry name",
    )
    parser.add_argument(
        "--out", default="",
        help="write the audit report as JSON to this path",
    )


def run(args: argparse.Namespace) -> int:
    """Audit one grid point (cached plan or fresh computation)."""
    from repro.core.serialize import save_audit_report
    from repro.metrics.tables import format_table
    from repro.runner import GridPoint
    from repro.validate.runner import validate_point

    point = GridPoint(
        executor=args.executor, model=args.model, seq_len=args.seq,
        arch=args.arch, batch=args.batch, causal=args.causal,
    )
    audit, report = validate_point(point)
    arch = named_architecture(args.arch)
    rows = [
        [auditor, passed, total]
        for auditor, (passed, total) in sorted(
            audit.counts().items()
        )
    ]
    print(format_table(
        ["auditor", "passed", "checks"],
        rows,
        title=f"audit of {audit.subject}",
    ))
    print(
        f"report: latency {report.latency_seconds(arch):.4e}s, "
        f"DRAM {report.dram_words():.3e} words, energy "
        f"{report.energy(arch).total_pj / 1e12:.3f} J"
    )
    for check in audit.failures():
        print(f"FAIL {check.auditor}.{check.name}: {check.detail}")
    if args.out:
        path = save_audit_report(audit, args.out)
        print(f"audit report written to {path}")
    if audit.ok:
        print(f"OK: all {len(audit.checks)} checks passed")
        return 0
    return 1


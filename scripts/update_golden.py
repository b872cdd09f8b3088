#!/usr/bin/env python3
"""Regenerate the golden-corpus snapshots under ``tests/golden/``.

Run after an *intentional* change to the cost model, then review the
diff: every changed number is a behavior change the commit message
should be able to explain.

    python scripts/update_golden.py

Snapshots are re-priced from scratch (the persistent plan cache is
bypassed) with the invariant auditors enabled, so a corrupted model
fails here before it can be frozen into the corpus.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

# Fresh computation with auditing on: never freeze a cached or
# unvalidated report.
os.environ["REPRO_CACHE"] = "0"
os.environ["REPRO_VALIDATE"] = "1"


def main() -> int:
    from repro.runner.chain import compute_report
    from repro.validate.golden import (
        GOLDEN_DEGRADED_BUDGET,
        golden_degraded_document,
        golden_degraded_filename,
        golden_degraded_points,
        golden_dir,
        golden_document,
        golden_filename,
        golden_points,
        render_golden,
    )

    directory = golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    expected = set()
    for point in golden_points():
        report = compute_report(point)
        path = directory / golden_filename(point)
        path.write_text(
            render_golden(golden_document(point, report))
        )
        expected.add(path.name)
        print(f"wrote {path.relative_to(REPO)}")
    # Degraded snapshots: the same executor under a tiny search-unit
    # budget.  The auditors stay on -- fallback plans must satisfy
    # every invariant a complete search does.
    os.environ["REPRO_BUDGET"] = str(GOLDEN_DEGRADED_BUDGET)
    try:
        for point in golden_degraded_points():
            report = compute_report(point)
            path = directory / golden_degraded_filename(point)
            path.write_text(
                render_golden(golden_degraded_document(point, report))
            )
            expected.add(path.name)
            print(f"wrote {path.relative_to(REPO)}")
    finally:
        del os.environ["REPRO_BUDGET"]
    strays = sorted(
        p.name for p in directory.glob("*.json")
        if p.name not in expected
    )
    for name in strays:
        print(f"WARNING: stray snapshot {name} (corpus shrank? "
              f"delete it by hand)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Golden-corpus specification and canonical rendering.

The corpus freezes the fused executor's reports for a small grid --
3 models x 2 architectures x 2 sequence lengths -- as pretty-printed,
key-sorted JSON under ``tests/golden/``.  A regression test re-prices
every point and diffs the canonical rendering byte for byte;
``scripts/update_golden.py`` regenerates the snapshots after an
intentional model change.

Two *degraded* snapshots ride along: the same executor priced under a
tiny deterministic search budget (``REPRO_BUDGET``), freezing the
fallback ladder's output.  Degradation is part of the reproducible
surface -- the same budget must yield the same (labeled) plan on any
host -- so its plans are frozen exactly like the healthy ones.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List

from repro.runner.chain import GridPoint
from repro.sim.stats import RunReport

#: The frozen corpus grid (kept small: ~2 s to re-price in full).
GOLDEN_MODELS = ("bert", "t5", "llama3")
GOLDEN_ARCHS = ("cloud", "edge")
GOLDEN_SEQS = (512, 1024)
GOLDEN_BATCH = 4
GOLDEN_EXECUTOR = "transfusion"


def golden_dir() -> Path:
    """The checked-in snapshot directory (``tests/golden/``)."""
    return (
        Path(__file__).resolve().parents[3] / "tests" / "golden"
    )


def golden_points() -> List[GridPoint]:
    """The corpus grid, in deterministic order."""
    return [
        GridPoint(
            executor=GOLDEN_EXECUTOR, model=model, seq_len=seq,
            arch=arch, batch=GOLDEN_BATCH,
        )
        for model in GOLDEN_MODELS
        for arch in GOLDEN_ARCHS
        for seq in GOLDEN_SEQS
    ]


#: Search-unit budget behind the degraded snapshots: small enough to
#: exhaust every search (TileSeek runs 400 iterations by default) and
#: force the fallback ladder, large enough to exercise the budgeted
#: search loop itself.
GOLDEN_DEGRADED_BUDGET = 16


def golden_degraded_points() -> List[GridPoint]:
    """The degraded-corpus points (priced under
    ``REPRO_BUDGET=GOLDEN_DEGRADED_BUDGET``)."""
    return [
        GridPoint(
            executor=GOLDEN_EXECUTOR, model="t5", seq_len=512,
            arch="cloud", batch=GOLDEN_BATCH,
        ),
        GridPoint(
            executor=GOLDEN_EXECUTOR, model="llama3", seq_len=1024,
            arch="edge", batch=GOLDEN_BATCH,
        ),
    ]


def golden_filename(point: GridPoint) -> str:
    """Snapshot filename for one corpus point."""
    return (
        f"{point.executor}-{point.model}-{point.arch}"
        f"-p{point.seq_len}-b{point.batch}.json"
    )


def golden_degraded_filename(point: GridPoint) -> str:
    """Snapshot filename for one degraded corpus point."""
    return golden_filename(point).replace(
        ".json", f"-budget{GOLDEN_DEGRADED_BUDGET}.json"
    )


def golden_document(
    point: GridPoint, report: RunReport
) -> Dict[str, Any]:
    """The JSON document frozen for one corpus point."""
    from repro.core.serialize import report_to_dict

    return {"point": asdict(point), "report": report_to_dict(report)}


def golden_degraded_document(
    point: GridPoint, report: RunReport
) -> Dict[str, Any]:
    """The JSON document frozen for one degraded corpus point.

    Records the budget alongside the report so the snapshot is
    self-describing (the report's ``provenance`` says *how* the
    search degraded; the budget says *why*).
    """
    document = golden_document(point, report)
    document["budget"] = GOLDEN_DEGRADED_BUDGET
    return document


def render_golden(document: Dict[str, Any]) -> str:
    """Canonical byte rendering (diff-stable across platforms)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"

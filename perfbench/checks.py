"""Correctness checks: every one that fails counts as a failed
operation and makes the run exit non-zero."""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, Optional

import inputs


def ok_body(body: str) -> bool:
    """A canonical response body with ``ok: true``."""
    try:
        document = json.loads(body)
    except ValueError:
        return False
    return isinstance(document, dict) and document.get("ok") is True


def _grid_point(point: inputs.Point):
    from repro.runner import GridPoint

    return GridPoint(
        executor=point.executor, model=point.model,
        seq_len=point.seq_len, arch=point.arch, batch=point.batch,
        causal=point.causal,
    )


def golden_report_mismatch(
    point: inputs.Point, report: Dict[str, Any]
) -> Optional[str]:
    """Compare one report with its ``tests/golden`` snapshot, byte for
    byte, in the corpus's own rendering."""
    from repro.validate import golden

    grid_point = _grid_point(point)
    document: Dict[str, Any] = {
        "point": asdict(grid_point), "report": report,
    }
    if point.budget is None:
        name = golden.golden_filename(grid_point)
    else:
        document["budget"] = point.budget
        name = golden.golden_degraded_filename(grid_point)
    expected = (golden.golden_dir() / name).read_text()
    if golden.render_golden(document) != expected:
        return f"report differs from golden snapshot {name}"
    return None


def golden_mismatch(point: inputs.Point, body: str) -> Optional[str]:
    return golden_report_mismatch(point, json.loads(body)["report"])


def audit(point: inputs.Point, report: Dict[str, Any]) -> Optional[str]:
    """Audit one plan with ``repro.validate`` and compare its report.

    Runs the schedule replay, tiling recompute, conservation and
    NumPy-oracle auditors in this process.
    """
    from repro.core.serialize import canonical_json, report_to_dict
    from repro.validate.runner import validate_point

    audit_report, audited = validate_point(_grid_point(point))
    if not audit_report.ok:
        failed = [check.name for check in audit_report.failures]
        return f"audit failed for {point}: {failed[:5]}"
    if canonical_json(report_to_dict(audited)) != canonical_json(report):
        return f"audited report differs from the measured one: {point}"
    return None


def inprocess_body(document: Dict[str, Any]) -> str:
    """The body ``execute_request`` produces for a request document."""
    from repro.serve.protocol import (
        canonical_body,
        execute_request,
        parse_request,
    )

    return canonical_body(execute_request(parse_request(document)))

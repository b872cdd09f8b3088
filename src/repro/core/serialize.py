"""Plan serialization: export compiled plans as JSON documents.

A compiled plan is the artifact a downstream compiler or runtime would
consume -- the outer tiling factors, each sub-layer's pipeline
bipartition and op-to-array assignment hints, and the cost estimates.
This module flattens :class:`~repro.core.plan.CompiledPlan` into a
JSON-safe dictionary (and back to disk), so plans can be archived,
diffed and shipped.

It also provides exact (bit-preserving) round-trips for
:class:`~repro.sim.stats.RunReport` and
:class:`~repro.tileseek.search.TileSeekResult` -- the value types the
persistent sweep cache (:mod:`repro.runner.cache`) stores on disk.
JSON float serialization uses ``repr``, so every ``float`` survives a
dump/load cycle bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Union

from repro.arch.pe import PEArrayKind
# Re-exported: the benchmark under perfbench/ imports it from here.
from repro.core.wire import canonical_json  # noqa: F401
from repro.resilience.budget import PROVENANCE_COMPLETE

if TYPE_CHECKING:
    from repro.arch.spec import ArchitectureSpec
    from repro.core.plan import CompiledPlan
    from repro.sim.stats import PhaseStats, RunReport
    from repro.tileseek.search import TileSeekResult
    from repro.validate.report import AuditReport


def plan_to_dict(
    plan: CompiledPlan, arch: ArchitectureSpec
) -> Dict[str, Any]:
    """Flatten a compiled plan into JSON-safe primitives."""
    tiling = plan.tiling
    document: Dict[str, Any] = {
        "workload": plan.workload,
        "architecture": plan.architecture,
        "tiling": {
            "factors": tiling.config.as_dict(),
            "feasible": tiling.feasible,
            "buffer_words_required": (
                tiling.assessment.buffer_words_required
            ),
            "dram_words": tiling.assessment.dram_words,
            "kv_passes": tiling.assessment.kv_passes,
            "weight_passes": tiling.assessment.weight_passes,
            "search_evaluations": tiling.stats.evaluations,
        },
        "layers": [],
        "interlayer": [
            {
                "tensor": boundary.name,
                "producer": boundary.producer,
                "consumer": boundary.consumer,
                "residency": boundary.residency.value,
                "words_per_tile": boundary.words_per_tile,
                "reason": boundary.reason,
            }
            for boundary in plan.interlayer.boundaries
        ],
        "summary": plan.summary(arch),
    }
    for compiled in plan.layers:
        layer_plan = compiled.plan
        entry: Dict[str, Any] = {
            "layer": compiled.layer,
            "pipelined": layer_plan.pipelined,
            "n_epochs": layer_plan.n_epochs,
            "epoch_seconds": layer_plan.epoch_seconds,
            "total_seconds": layer_plan.total_seconds,
            "busy_seconds": {
                kind.value: seconds
                for kind, seconds in layer_plan.busy_seconds.items()
            },
            "load_split": {
                kind.value: load
                for kind, load in layer_plan.load_split.items()
            },
        }
        if layer_plan.bipartition is not None:
            entry["bipartition"] = {
                "first": sorted(layer_plan.bipartition.first),
                "second": sorted(layer_plan.bipartition.second),
            }
        if layer_plan.window_order:
            entry["window_order"] = list(layer_plan.window_order)
        document["layers"].append(entry)
    return document


def save_plan(
    plan: CompiledPlan,
    arch: ArchitectureSpec,
    path: Union[str, Path],
) -> Path:
    """Write a compiled plan to ``path`` as pretty-printed JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(plan_to_dict(plan, arch), indent=2,
                   sort_keys=True)
        + "\n"
    )
    return path


def load_plan_dict(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a plan document written by :func:`save_plan`."""
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# RunReport round-trip
# ----------------------------------------------------------------------
def phase_to_dict(phase: PhaseStats) -> Dict[str, Any]:
    """Flatten one :class:`PhaseStats` into JSON-safe primitives."""
    return {
        "name": phase.name,
        "compute_seconds": phase.compute_seconds,
        "busy_seconds": {
            kind.value: seconds
            for kind, seconds in phase.busy_seconds.items()
        },
        "dram_words": phase.dram_words,
        "overlap_dram": phase.overlap_dram,
        "ops_2d": phase.ops_2d,
        "ops_1d": phase.ops_1d,
        "buffer_words": phase.buffer_words,
        "rf_words": phase.rf_words,
    }


def phase_from_dict(document: Dict[str, Any]) -> PhaseStats:
    """Rebuild a :class:`PhaseStats` written by :func:`phase_to_dict`."""
    from repro.sim.stats import PhaseStats

    return PhaseStats(
        name=document["name"],
        compute_seconds=document["compute_seconds"],
        busy_seconds={
            PEArrayKind(kind): seconds
            for kind, seconds in document["busy_seconds"].items()
        },
        dram_words=document["dram_words"],
        overlap_dram=document["overlap_dram"],
        ops_2d=document["ops_2d"],
        ops_1d=document["ops_1d"],
        buffer_words=document["buffer_words"],
        rf_words=document["rf_words"],
    )


def report_to_dict(report: RunReport) -> Dict[str, Any]:
    """Flatten a :class:`RunReport` into JSON-safe primitives.

    ``provenance`` is emitted only when the report is degraded, so
    documents of complete runs are byte-identical to those written
    before provenance tracking existed.
    """
    document = {
        "executor": report.executor,
        "workload": report.workload,
        "architecture": report.architecture,
        "phases": [phase_to_dict(ph) for ph in report.phases],
    }
    if report.provenance != PROVENANCE_COMPLETE:
        document["provenance"] = report.provenance
    return document


def report_from_dict(document: Dict[str, Any]) -> RunReport:
    """Rebuild a :class:`RunReport` written by :func:`report_to_dict`."""
    from repro.sim.stats import RunReport

    return RunReport(
        executor=document["executor"],
        workload=document["workload"],
        architecture=document["architecture"],
        phases=[phase_from_dict(ph) for ph in document["phases"]],
        provenance=document.get("provenance", PROVENANCE_COMPLETE),
    )


# ----------------------------------------------------------------------
# SweepResult / failure-taxonomy round-trip
# ----------------------------------------------------------------------
#: Constructor-aligned fields per serializable failure type.
_FAILURE_FIELDS = {
    "PointFailure": (
        "point", "chain_index", "attempt", "error_type", "message",
    ),
    "ChainTimeout": ("chain_index", "seconds", "attempt"),
    "WorkerCrash": ("chain_index", "attempt", "detail"),
    "CacheCorruption": ("path", "detail"),
    "CacheClearFailure": ("path", "detail"),
    "CacheBrownout": ("path", "detail"),
    "JournalTruncation": ("path", "detail"),
    "ReplicaUnreachable": ("endpoint", "attempt", "detail"),
    "FleetUnavailable": ("attempts",),
    "ServerOverloaded": ("inflight", "bound", "retry_after_ms"),
    "InfeasiblePoint": ("subject", "diagnosis", "point"),
}

#: Failure types whose ``point`` field round-trips as a GridPoint.
_POINTED_FAILURES = ("PointFailure", "InfeasiblePoint")

#: Message-only failure types (configuration / protocol errors):
#: the concrete type survives the wire, the message is the payload.
_MESSAGE_FAILURES = (
    "SweepConfigError", "FaultSpecError", "ServeProtocolError",
)


def _message_failure_type(name: str) -> Any:
    from repro.runner import errors

    if name == "ServeProtocolError":
        from repro.serve.protocol import ServeProtocolError

        return ServeProtocolError
    return getattr(errors, name)


def failure_to_dict(failure: Any) -> Dict[str, Any]:
    """Flatten one :class:`~repro.runner.errors.SweepError` into
    JSON-safe primitives.

    Typed failures round-trip field by field; message-only types
    (config/protocol errors) round-trip as type + message; anything
    else degrades to a generic ``SweepError`` entry carrying its
    message.
    """
    name = type(failure).__name__
    if name in _MESSAGE_FAILURES:
        return {"type": name, "message": str(failure)}
    fields = _FAILURE_FIELDS.get(name)
    if fields is None:
        return {"type": "SweepError", "message": str(failure)}
    document: Dict[str, Any] = {"type": name}
    for field in fields:
        value = getattr(failure, field)
        if dataclasses.is_dataclass(value) and not isinstance(
            value, type
        ):
            value = dataclasses.asdict(value)
        elif isinstance(value, Path):
            value = str(value)
        document[field] = value
    return document


def failure_from_dict(document: Dict[str, Any]) -> Any:
    """Rebuild a failure written by :func:`failure_to_dict`."""
    from repro.runner import errors
    from repro.runner.chain import GridPoint

    name = document["type"]
    if name in _MESSAGE_FAILURES:
        return _message_failure_type(name)(
            document.get("message", "")
        )
    fields = _FAILURE_FIELDS.get(name)
    if fields is None:
        return errors.SweepError(document.get("message", ""))
    values = []
    for field in fields:
        value = document[field]
        if (
            name in _POINTED_FAILURES
            and field == "point"
            and isinstance(value, dict)
        ):
            value = GridPoint(**value)
        values.append(value)
    return getattr(errors, name)(*values)


def sweep_result_to_dict(result: Any) -> Dict[str, Any]:
    """Flatten a :class:`~repro.runner.result.SweepResult` into
    JSON-safe primitives (reports, statuses and typed failures, all
    aligned with the point list).  The ``infeasible`` list (typed
    buffer diagnoses) is emitted only when non-empty, so documents of
    all-feasible sweeps keep their historical byte layout."""
    points = result.points
    infeasible = getattr(result, "infeasible", {})
    document = {
        "points": [dataclasses.asdict(point) for point in points],
        "statuses": [result.statuses[point] for point in points],
        "reports": [
            report_to_dict(result[point])
            if point in result else None
            for point in points
        ],
        "failures": [
            failure_to_dict(result.failures[point])
            if point in result.failures else None
            for point in points
        ],
    }
    if infeasible:
        document["infeasible"] = [
            failure_to_dict(infeasible[point])
            if point in infeasible else None
            for point in points
        ]
    return document


def sweep_result_from_dict(document: Dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.runner.result.SweepResult` written
    by :func:`sweep_result_to_dict`."""
    from repro.runner.chain import GridPoint
    from repro.runner.result import SweepResult

    points = [GridPoint(**entry) for entry in document["points"]]
    reports = {
        point: report_from_dict(entry)
        for point, entry in zip(points, document["reports"])
        if entry is not None
    }
    statuses = dict(zip(points, document["statuses"]))
    failures = {
        point: failure_from_dict(entry)
        for point, entry in zip(points, document["failures"])
        if entry is not None
    }
    infeasible = {
        point: failure_from_dict(entry)
        for point, entry in zip(
            points, document.get("infeasible", ())
        )
        if entry is not None
    }
    return SweepResult(
        points, reports, statuses, failures, infeasible
    )


def save_sweep_result(
    result: Any, path: Union[str, Path]
) -> Path:
    """Write a sweep result to ``path`` as canonical JSON (key-sorted,
    ``repr``-rendered floats -- byte-stable across processes)."""
    path = Path(path)
    path.write_text(
        json.dumps(sweep_result_to_dict(result), indent=2,
                   sort_keys=True)
        + "\n"
    )
    return path


# ----------------------------------------------------------------------
# TileSeekResult round-trip
# ----------------------------------------------------------------------
def tileseek_result_to_dict(result: TileSeekResult) -> Dict[str, Any]:
    """Flatten a :class:`TileSeekResult` into JSON-safe primitives.

    Degradation bookkeeping (``provenance``, ``dead_ends``,
    ``exhausted``) is emitted only when it deviates from the healthy
    defaults, so complete-search documents keep their historical byte
    layout (and disk hashes).
    """
    assessment = result.assessment
    stats = result.stats
    stats_document: Dict[str, Any] = {
        "iterations": stats.iterations,
        "evaluations": stats.evaluations,
        "best_reward": stats.best_reward,
        "best_assignment": list(stats.best_assignment),
        "tree_nodes": stats.tree_nodes,
    }
    if stats.dead_ends:
        stats_document["dead_ends"] = stats.dead_ends
    if stats.exhausted:
        stats_document["exhausted"] = True
    document: Dict[str, Any] = {
        "config": result.config.as_dict(),
        "assessment": {
            "feasible": assessment.feasible,
            "buffer_words_required": assessment.buffer_words_required,
            "dram_words": assessment.dram_words,
            "dram_seconds": assessment.dram_seconds,
            "energy_pj": assessment.energy_pj,
            "kv_passes": assessment.kv_passes,
            "weight_passes": assessment.weight_passes,
        },
        "stats": stats_document,
    }
    if result.provenance != PROVENANCE_COMPLETE:
        document["provenance"] = result.provenance
    return document


def audit_report_to_dict(report: AuditReport) -> Dict[str, Any]:
    """Flatten an :class:`AuditReport` into JSON-safe primitives."""
    return {
        "subject": report.subject,
        "passed": report.ok,
        "checks": [
            {
                "auditor": check.auditor,
                "name": check.name,
                "passed": check.passed,
                "detail": check.detail,
            }
            for check in report.checks
        ],
    }


def audit_report_from_dict(document: Dict[str, Any]) -> AuditReport:
    """Rebuild an :class:`AuditReport` written by
    :func:`audit_report_to_dict`."""
    from repro.validate.report import AuditCheck, AuditReport

    return AuditReport(
        subject=document["subject"],
        checks=[
            AuditCheck(
                auditor=check["auditor"],
                name=check["name"],
                passed=check["passed"],
                detail=check["detail"],
            )
            for check in document["checks"]
        ],
    )


def save_audit_report(
    report: AuditReport, path: Union[str, Path]
) -> Path:
    """Write an audit report to ``path`` as canonical JSON.

    Key-sorted, ``repr``-rendered floats: byte-stable across processes
    and ``PYTHONHASHSEED`` values (the determinism suite asserts it).
    """
    path = Path(path)
    path.write_text(
        json.dumps(audit_report_to_dict(report), indent=2,
                   sort_keys=True)
        + "\n"
    )
    return path


def tileseek_result_from_dict(
    document: Dict[str, Any]
) -> TileSeekResult:
    """Rebuild a :class:`TileSeekResult` written by
    :func:`tileseek_result_to_dict`."""
    from repro.tileseek.buffer_model import TilingConfig
    from repro.tileseek.evaluate import TilingAssessment
    from repro.tileseek.mcts import MCTSStats
    from repro.tileseek.search import TileSeekResult

    stats = document["stats"]
    return TileSeekResult(
        config=TilingConfig(**document["config"]),
        assessment=TilingAssessment(**document["assessment"]),
        stats=MCTSStats(
            iterations=stats["iterations"],
            evaluations=stats["evaluations"],
            best_reward=stats["best_reward"],
            best_assignment=tuple(stats["best_assignment"]),
            tree_nodes=stats["tree_nodes"],
            dead_ends=stats.get("dead_ends", 0),
            exhausted=stats.get("exhausted", False),
        ),
        provenance=document.get(
            "provenance", PROVENANCE_COMPLETE
        ),
    )

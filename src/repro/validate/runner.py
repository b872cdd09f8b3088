"""Audit orchestration: run every auditor against one grid point.

:func:`validate_point` is the engine behind ``python -m repro
validate``: it prices (or fetches from the PR-1 plan cache) one
:class:`~repro.runner.chain.GridPoint`, then runs the tiling,
conservation, oracle and schedule auditors over the resulting
artifacts and returns one merged :class:`AuditReport`.

Imported lazily by its consumers (CLI, tests, golden scripts) -- it
pulls in the sweep engine, which sits above the modules the hook
layer instruments.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.spec import named_architecture
from repro.baselines.base import SUBLAYERS
from repro.baselines.registry import named_executor
from repro.runner.chain import GridPoint, compute_report
from repro.sim.stats import RunReport
from repro.tileseek.evaluate import dram_traffic_words
from repro.validate.config import force_validation
from repro.validate.conservation import audit_conservation
from repro.validate.oracle import (
    audit_cascade_numerics,
    audit_compute_counts,
)
from repro.validate.report import AuditReport, AuditViolation
from repro.validate.tiling import audit_tiling


def validate_point(
    point: GridPoint,
    cache: Optional[object] = None,
) -> Tuple[AuditReport, RunReport]:
    """Audit one grid point end to end.

    Args:
        point: The (executor, model, sequence, architecture) point.
        cache: A :class:`~repro.runner.cache.PlanCache`, or ``None``
            for the environment default -- cached plans from PR 1's
            store are audited without being recomputed.

    Returns:
        The merged audit report and the run report it audited.
    """
    arch = named_architecture(point.arch)
    workload = point.workload()
    audit = AuditReport(
        f"{point.executor}:{workload.describe()}:{arch.name}"
    )
    # Hooks raise on the *first* violation; the explicit audit below
    # records every check instead, so disable them while computing.
    with force_validation(False):
        run = compute_report(point, cache=cache)
        executor = named_executor(point.executor)
        traffic = None
        if hasattr(executor, "tiling"):
            tiling = executor.tiling(workload, arch)
            traffic = dram_traffic_words(
                tiling.config, workload, arch.buffer_words
            )
            audit_tiling(
                tiling.config, tiling.assessment, workload, arch,
                report=audit,
            )
    audit_conservation(
        run, arch, workload=workload, traffic=traffic, report=audit
    )
    if hasattr(executor, "tiling"):
        audit_compute_counts(
            executor, workload, arch, run, report=audit
        )
    if hasattr(executor, "layer_plan"):
        # Re-plan each sub-layer with the dp_schedule hook forced on:
        # every DP pass of the bipartition/topological-order search is
        # audited in place (dependency order, booking, epoch legality,
        # exact earliest-finish replay).
        with force_validation(True):
            for layer in SUBLAYERS:
                try:
                    executor.layer_plan(workload, arch, layer)
                except AuditViolation as violation:
                    audit.merge(violation.report)
                else:
                    audit.record(
                        "schedule", f"replan_{layer}", True,
                        "every DP pass audited during re-planning",
                    )
    audit_cascade_numerics(
        activation=workload.model.activation,
        masked=workload.causal,
        report=audit,
    )
    return audit, run

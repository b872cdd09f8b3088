"""Unit tests for the four auditors.

Each auditor is exercised both ways: genuine artifacts from the real
pipeline must pass every check, and deliberately corrupted copies must
be caught by the specific check guarding that invariant (the
acceptance criterion: one seeded violation per auditor, minimum).
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from repro.arch.pe import PEArrayKind
from repro.arch.spec import edge_architecture
from repro.baselines.registry import named_executor
from repro.core.serialize import (
    audit_report_from_dict,
    audit_report_to_dict,
    save_audit_report,
)
from repro.dpipe.latency import LatencyTable
from repro.dpipe.scheduler import dp_schedule
from repro.model.config import named_model
from repro.model.workload import Workload
from repro.sim.stats import RunReport
from repro.tileseek.buffer_model import (
    MIN_COMPANION_FACTORS,
    TilingConfig,
    fused_buffer_requirement,
    intra_tile_p_prime,
    max_feasible_q_tile,
)
from repro.tileseek.evaluate import assess_tiling, dram_traffic_words
from repro.validate import (
    AuditReport,
    AuditViolation,
    force_validation,
    validation_enabled,
)
from repro.validate.conservation import audit_conservation
from repro.validate.oracle import (
    audit_cascade_numerics,
    audit_compute_counts,
)
from repro.validate.schedule import audit_schedule
from repro.validate.tiling import audit_tiling

K2 = PEArrayKind.ARRAY_2D
K1 = PEArrayKind.ARRAY_1D


def failed(report: AuditReport, name: str) -> bool:
    """Whether a specific named check failed in ``report``."""
    return any(
        check.name == name and not check.passed
        for check in report.checks
    )


# ----------------------------------------------------------------------
# Config / flag plumbing
# ----------------------------------------------------------------------
class TestValidationFlag:
    def test_suite_default_is_on(self):
        assert validation_enabled()

    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert not validation_enabled()

    def test_force_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        with force_validation(True):
            assert validation_enabled()
        assert not validation_enabled()

    def test_force_nests_and_restores(self):
        with force_validation(False):
            assert not validation_enabled()
            with force_validation(True):
                assert validation_enabled()
            assert not validation_enabled()
        assert validation_enabled()


# ----------------------------------------------------------------------
# Schedule auditor
# ----------------------------------------------------------------------
def diamond():
    """A four-op diamond DAG with hand-priced latencies."""
    order = ["a", "b", "c", "d"]
    preds = {"a": set(), "b": {"a"}, "c": {"a"}, "d": {"b", "c"}}
    seconds = {
        ("a", 0): 1.0, ("a", 1): 2.0,
        ("b", 0): 2.0, ("b", 1): 1.0,
        ("c", 0): 1.0, ("c", 1): 3.0,
        ("d", 0): 1.0, ("d", 1): 1.0,
    }
    loads = {"a": 10.0, "b": 20.0, "c": 10.0, "d": 5.0}
    return order, preds, LatencyTable(seconds=seconds, loads=loads)


class TestScheduleAuditor:
    def test_genuine_schedule_passes(self):
        order, preds, table = diamond()
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        report = audit_schedule(order, preds, table, result)
        assert report.ok, report.failures()

    def test_hook_audits_in_place(self):
        order, preds, table = diamond()
        with force_validation(True):
            result = dp_schedule(order, preds, table)
        assert result.makespan > 0.0

    def test_tampered_makespan_caught(self):
        order, preds, table = diamond()
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        bad = dataclasses.replace(
            result, makespan=result.makespan * 1.1 + 1.0
        )
        report = audit_schedule(order, preds, table, bad)
        assert failed(report, "makespan")

    def test_tampered_end_time_caught(self):
        order, preds, table = diamond()
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        ends = dict(result.end_times)
        ends["b"] += 0.25
        bad = dataclasses.replace(result, end_times=ends)
        report = audit_schedule(order, preds, table, bad)
        assert not report.ok
        assert failed(report, "earliest_finish") or failed(
            report, "greedy_optimality"
        )

    def test_tampered_assignment_caught(self):
        order, preds, table = diamond()
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        assignment = dict(result.assignment)
        flip = {K2: K1, K1: K2}
        assignment["b"] = flip[assignment["b"]]
        bad = dataclasses.replace(result, assignment=assignment)
        report = audit_schedule(order, preds, table, bad)
        assert not report.ok

    def test_tampered_busy_caught(self):
        order, preds, table = diamond()
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        busy = dict(result.busy_seconds)
        busy[K2] += 1.0
        bad = dataclasses.replace(result, busy_seconds=busy)
        report = audit_schedule(order, preds, table, bad)
        assert failed(report, "busy_accounting")

    def test_dependency_violation_caught(self):
        order, preds, table = diamond()
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        # Same artifacts audited against an order that schedules a
        # consumer before its producer.
        bad_order = ["b", "a", "c", "d"]
        report = audit_schedule(bad_order, preds, table, result)
        assert failed(report, "dependency_order")

    def test_missing_node_caught(self):
        order, preds, table = diamond()
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        ends = dict(result.end_times)
        ends.pop("d")
        bad = dataclasses.replace(result, end_times=ends)
        report = audit_schedule(order, preds, table, bad)
        assert failed(report, "coverage")

    def test_epoch_violation_caught(self):
        # A current-epoch node must never consume next-epoch output.
        order = ["nxt.b", "cur.a"]
        preds = {"nxt.b": set(), "cur.a": {"nxt.b"}}
        table = LatencyTable(
            seconds={
                ("a", 0): 1.0, ("a", 1): 1.0,
                ("b", 0): 1.0, ("b", 1): 1.0,
            },
            loads={"a": 1.0, "b": 1.0},
        )
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        report = audit_schedule(order, preds, table, result)
        assert failed(report, "epoch_legality")

    def test_hook_raises_audit_violation(self, monkeypatch):
        order, preds, table = diamond()
        # Corrupt the latency table *after* scheduling by auditing
        # against different inputs: the hook path is covered by
        # scheduling under a table the replay disagrees with.
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        other = LatencyTable(
            seconds={k: v * 2.0 for k, v in table.seconds.items()},
            loads=table.loads,
        )
        report = audit_schedule(order, preds, other, result)
        assert not report.ok
        with pytest.raises(AuditViolation):
            report.raise_if_failed()


# ----------------------------------------------------------------------
# Tiling auditor
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiling_setup():
    arch = edge_architecture()
    model = named_model("bert")
    workload = Workload(model, seq_len=512, batch=4)
    rows, cols = arch.array_2d.rows, arch.array_2d.cols
    p = max_feasible_q_tile(
        model, workload.seq_len, arch.buffer_words,
        m0=cols, rows=rows,
    )
    config = TilingConfig(
        m0=cols, p=p, p_prime=intra_tile_p_prime(p, rows),
        **MIN_COMPANION_FACTORS,
    )
    assessment = assess_tiling(config, workload, arch)
    return arch, workload, config, assessment


class TestTilingAuditor:
    def test_genuine_tiling_passes(self, tiling_setup):
        arch, workload, config, assessment = tiling_setup
        report = audit_tiling(config, assessment, workload, arch)
        assert report.ok, report.failures()

    def test_search_winner_passes(self, tiling_setup):
        arch, workload, _, _ = tiling_setup
        executor = named_executor("transfusion")
        with force_validation(False):
            result = executor.tiling(workload, arch)
        report = audit_tiling(
            result.config, result.assessment, workload, arch
        )
        assert report.ok, report.failures()

    def test_genuine_rejection_passes(self, tiling_setup):
        arch, workload, config, assessment = tiling_setup
        overflow = TilingConfig(
            b=64, d=4096, m1=256, m0=config.m0, p=4096, s=8192,
            p_prime=intra_tile_p_prime(4096, arch.array_2d.rows),
        )
        assert (
            fused_buffer_requirement(overflow, workload.model)
            > arch.buffer_words
        )
        report = audit_tiling(
            config, assessment, workload, arch, rejected=[overflow]
        )
        assert report.ok, report.failures()

    def test_tampered_buffer_requirement_caught(self, tiling_setup):
        arch, workload, config, assessment = tiling_setup
        bad = dataclasses.replace(
            assessment,
            buffer_words_required=assessment.buffer_words_required + 1,
        )
        report = audit_tiling(config, bad, workload, arch)
        assert failed(report, "buffer_recompute")

    def test_flipped_feasibility_caught(self, tiling_setup):
        arch, workload, config, assessment = tiling_setup
        bad = dataclasses.replace(
            assessment, feasible=not assessment.feasible
        )
        report = audit_tiling(config, bad, workload, arch)
        assert failed(report, "feasibility_flag")

    def test_tampered_traffic_caught(self, tiling_setup):
        arch, workload, config, assessment = tiling_setup
        bad = dataclasses.replace(
            assessment, dram_words=assessment.dram_words + 1.0
        )
        report = audit_tiling(config, bad, workload, arch)
        assert failed(report, "traffic_recompute")

    def test_wrong_p_prime_caught(self, tiling_setup):
        arch, workload, config, assessment = tiling_setup
        bad = dataclasses.replace(
            config, p_prime=config.p_prime + 1
        )
        report = audit_tiling(bad, assessment, workload, arch)
        assert failed(report, "p_prime_ceil")

    def test_fitting_incumbent_flagged_as_bad_rejection(
        self, tiling_setup
    ):
        arch, workload, config, assessment = tiling_setup
        # Presenting a *fitting* config as rejected is a search bug:
        # TileSeek discarded a feasible candidate as infeasible.
        report = audit_tiling(
            config, assessment, workload, arch, rejected=[config]
        )
        assert failed(report, "rejected_overflows")


# ----------------------------------------------------------------------
# Conservation auditor
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fused_run():
    arch = edge_architecture()
    workload = Workload(named_model("bert"), seq_len=512, batch=4)
    executor = named_executor("transfusion")
    with force_validation(False):
        run = executor.run(workload, arch)
        tiling = executor.tiling(workload, arch)
    traffic = dram_traffic_words(
        tiling.config, workload, arch.buffer_words
    )
    return arch, workload, run, traffic


class TestConservationAuditor:
    def test_genuine_report_passes(self, fused_run):
        arch, workload, run, traffic = fused_run
        report = audit_conservation(
            run, arch, workload=workload, traffic=traffic
        )
        assert report.ok, report.failures()

    def test_every_executor_passes(self):
        arch = edge_architecture()
        workload = Workload(named_model("t5"), seq_len=512, batch=4)
        for name in ("unfused", "flat", "fusemax", "fusemax+lf",
                     "transfusion"):
            with force_validation(False):
                run = named_executor(name).run(workload, arch)
            report = audit_conservation(run, arch)
            assert report.ok, (name, report.failures())

    def test_negative_quantity_caught(self, fused_run):
        arch, _, run, _ = fused_run
        bad = copy.deepcopy(run)
        bad.phases[0].dram_words = -1.0
        report = audit_conservation(bad, arch)
        assert failed(report, "finite_nonnegative")

    def test_impossible_op_count_caught(self, fused_run):
        arch, _, run, _ = fused_run
        bad = copy.deepcopy(run)
        bad.phase("qkv").ops_2d *= 1e9
        report = audit_conservation(bad, arch)
        assert failed(report, "throughput_bound")

    def test_busy_beyond_makespan_caught(self, fused_run):
        arch, _, run, _ = fused_run
        bad = copy.deepcopy(run)
        phase = bad.phase("ffn")
        phase.busy_seconds[K2] = phase.compute_seconds * 2.0 + 1.0
        report = audit_conservation(bad, arch)
        assert failed(report, "busy_within_makespan")

    def test_missing_rf_traffic_caught(self, fused_run):
        arch, _, run, _ = fused_run
        bad = copy.deepcopy(run)
        bad.phase("mha").rf_words = 0.0
        report = audit_conservation(bad, arch)
        assert failed(report, "register_floor")

    def test_wrong_energy_breakdown_caught(self, fused_run):
        arch, _, run, _ = fused_run

        class MispricedReport(RunReport):
            def energy(self, spec):
                breakdown = super().energy(spec)
                return dataclasses.replace(
                    breakdown, dram_pj=breakdown.dram_pj + 1.0
                )

        bad = MispricedReport(
            executor=run.executor, workload=run.workload,
            architecture=run.architecture,
            phases=copy.deepcopy(run.phases),
        )
        report = audit_conservation(bad, arch)
        assert failed(report, "energy_recompute")

    def test_unbalanced_phase_traffic_caught(self, fused_run):
        arch, workload, run, traffic = fused_run
        bad = copy.deepcopy(run)
        bad.phase("mha").dram_words += 1.0
        report = audit_conservation(
            bad, arch, workload=workload, traffic=traffic
        )
        assert failed(report, "phase_traffic_balance")
        assert failed(report, "total_traffic_balance")


# ----------------------------------------------------------------------
# Differential oracle
# ----------------------------------------------------------------------
class TestOracle:
    def test_genuine_counts_pass(self, fused_run):
        arch, workload, run, _ = fused_run
        executor = named_executor("transfusion")
        report = audit_compute_counts(executor, workload, arch, run)
        assert report.ok, report.failures()

    def test_inflated_op_count_caught(self, fused_run):
        arch, workload, run, _ = fused_run
        executor = named_executor("transfusion")
        bad = copy.deepcopy(run)
        bad.phase("qkv").ops_2d *= 2.0
        report = audit_compute_counts(executor, workload, arch, bad)
        assert failed(report, "phase_op_counts")

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_cascade_numerics_pass(self, activation, masked):
        report = audit_cascade_numerics(
            activation=activation, masked=masked
        )
        assert report.ok, report.failures()

    def test_cascade_numerics_larger_extents(self):
        report = audit_cascade_numerics(
            extents={
                "h": 4, "e": 8, "f": 8, "p": 16, "m1": 4, "m0": 8,
                "d": 32, "s": 24,
            },
            seed=99,
        )
        assert report.ok, report.failures()


# ----------------------------------------------------------------------
# Report machinery and serialization
# ----------------------------------------------------------------------
class TestAuditReportMachinery:
    def make_report(self):
        report = AuditReport("unit")
        report.record("schedule", "makespan", True, "ok")
        report.record("tiling", "accepted_fits", False, "overflow")
        report.record("tiling", "p_prime_ceil", True)
        return report

    def test_counts_and_failures(self):
        report = self.make_report()
        assert not report.ok
        assert report.counts() == {
            "schedule": (1, 1), "tiling": (1, 2)
        }
        assert [c.name for c in report.failures()] == [
            "accepted_fits"
        ]

    def test_violation_message_names_checks(self):
        report = self.make_report()
        with pytest.raises(AuditViolation) as excinfo:
            report.raise_if_failed()
        assert "tiling.accepted_fits" in str(excinfo.value)
        assert excinfo.value.report is report

    def test_merge_accumulates(self):
        left = AuditReport("left")
        left.record("schedule", "makespan", True)
        right = AuditReport("right")
        right.record("oracle", "ffn_numerics", True)
        assert left.merge(right) is left
        assert len(left.checks) == 2

    def test_round_trip_preserves_everything(self):
        report = self.make_report()
        document = audit_report_to_dict(report)
        rebuilt = audit_report_from_dict(document)
        assert rebuilt.subject == report.subject
        assert rebuilt.checks == report.checks
        assert audit_report_to_dict(rebuilt) == document

    def test_save_writes_canonical_json(self, tmp_path):
        report = self.make_report()
        path = save_audit_report(report, tmp_path / "audit.json")
        text = path.read_text()
        document = json.loads(text)
        assert document["passed"] is False
        assert document["subject"] == "unit"
        assert len(document["checks"]) == 3
        # Canonical: re-dumping yields the identical bytes.
        assert (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
            == text
        )

"""Property-based auditor tests (seeded generators, no deps).

Randomized-but-reproducible inputs stand in for a property-testing
library: a seeded :class:`random.Random` drives generators for DAG
schedules, tiling configurations and phase reports, and each property
is checked across many seeds.  Mutation-style negatives corrupt one
quantity of a genuine artifact and assert the audit catches it.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

from repro.arch.pe import PEArrayKind
from repro.arch.spec import edge_architecture
from repro.core.serialize import audit_report_to_dict
from repro.dpipe.latency import LatencyTable
from repro.dpipe.scheduler import dp_schedule
from repro.model.config import named_model
from repro.model.workload import Workload
from repro.sim.stats import PhaseStats, RunReport
from repro.tileseek.buffer_model import (
    TilingConfig,
    fused_buffer_requirement,
    intra_tile_p_prime,
)
from repro.tileseek.evaluate import assess_tiling
from repro.validate import force_validation
from repro.validate.conservation import audit_conservation
from repro.validate.schedule import audit_schedule
from repro.validate.tiling import audit_tiling

K2 = PEArrayKind.ARRAY_2D
K1 = PEArrayKind.ARRAY_1D

SEEDS = range(10)


def failed(report, name: str) -> bool:
    return any(
        check.name == name and not check.passed
        for check in report.checks
    )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def random_dag(rng: random.Random, n_nodes: int = 12):
    """A random DAG in topological order with random latencies."""
    names = [f"op{i}" for i in range(n_nodes)]
    preds = {names[0]: set()}
    for j in range(1, n_nodes):
        fan_in = rng.randint(0, min(j, 3))
        preds[names[j]] = set(rng.sample(names[:j], fan_in))
    seconds = {}
    for name in names:
        for index in (0, 1):  # ARRAYS order: 2D, then 1D
            seconds[(name, index)] = rng.choice(
                [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]
            )
    loads = {name: float(rng.randint(1, 1000)) for name in names}
    return names, preds, LatencyTable(seconds=seconds, loads=loads)


def random_tiling(rng: random.Random, arch) -> TilingConfig:
    """A random tiling respecting the fixed PE-mapping factors."""
    rows, cols = arch.array_2d.rows, arch.array_2d.cols
    p = rng.choice([1, 8, 32, 64, 128, 256, 512])
    return TilingConfig(
        b=rng.choice([1, 2, 4]),
        d=rng.choice([16, 32, 64]),
        m1=rng.choice([1, 2, 4]),
        m0=cols,
        p=p,
        s=rng.choice([16, 32, 64]),
        p_prime=intra_tile_p_prime(p, rows),
    )


def random_phase(rng: random.Random, name: str, arch) -> PhaseStats:
    """A physically consistent random phase."""
    makespan = rng.uniform(1e-6, 1e-3)
    busy_2d = rng.uniform(0.0, makespan)
    busy_1d = rng.uniform(0.0, makespan)
    ops_2d = rng.uniform(
        0.0, arch.array_2d.num_pes * arch.clock_hz * busy_2d
    )
    ops_1d = rng.uniform(
        0.0, arch.array_1d.num_pes * arch.clock_hz * busy_1d
    )
    return PhaseStats(
        name=name,
        compute_seconds=makespan,
        busy_seconds={K2: busy_2d, K1: busy_1d},
        dram_words=rng.uniform(0.0, 1e9),
        ops_2d=ops_2d,
        ops_1d=ops_1d,
        buffer_words=rng.uniform(0.0, 1e9),
        rf_words=2.0 * (ops_2d + ops_1d) + rng.uniform(0.0, 1e6),
    )


def random_report(rng: random.Random, arch) -> RunReport:
    return RunReport(
        executor="synthetic",
        workload=f"synthetic-{rng.randint(0, 1 << 30)}",
        architecture=arch.name,
        phases=[
            random_phase(rng, name, arch)
            for name in ("qkv", "mha", "layernorm", "ffn")
        ],
    )


# ----------------------------------------------------------------------
# Schedule properties
# ----------------------------------------------------------------------
class TestScheduleProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dp_output_always_audits_clean(self, seed):
        rng = random.Random(seed)
        order, preds, table = random_dag(rng)
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        report = audit_schedule(order, preds, table, result)
        assert report.ok, report.failures()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_end_time_mutation_caught(self, seed):
        rng = random.Random(seed)
        order, preds, table = random_dag(rng)
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        ends = dict(result.end_times)
        victim = rng.choice(order)
        ends[victim] = ends[victim] + 0.25
        bad = dataclasses.replace(result, end_times=ends)
        report = audit_schedule(order, preds, table, bad)
        assert not report.ok

    @pytest.mark.parametrize("seed", SEEDS)
    def test_makespan_mutation_caught(self, seed):
        rng = random.Random(seed)
        order, preds, table = random_dag(rng)
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        bad = dataclasses.replace(
            result, makespan=result.makespan * 1.1 + 0.1
        )
        report = audit_schedule(order, preds, table, bad)
        assert failed(report, "makespan")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_busy_mutation_caught(self, seed):
        rng = random.Random(seed)
        order, preds, table = random_dag(rng)
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        busy = dict(result.busy_seconds)
        busy[rng.choice((K2, K1))] += 1.0
        bad = dataclasses.replace(result, busy_seconds=busy)
        report = audit_schedule(order, preds, table, bad)
        assert failed(report, "busy_accounting")


# ----------------------------------------------------------------------
# Tiling properties
# ----------------------------------------------------------------------
class TestTilingProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_assessment_always_audits_clean(self, seed):
        rng = random.Random(seed)
        arch = edge_architecture()
        model = named_model(rng.choice(["bert", "t5", "xlm"]))
        workload = Workload(
            model, seq_len=rng.choice([256, 512, 1024]), batch=4
        )
        config = random_tiling(rng, arch)
        assessment = assess_tiling(config, workload, arch)
        if assessment.feasible:
            report = audit_tiling(config, assessment, workload, arch)
        else:
            # Infeasible samples are legitimate *rejections*; audit
            # them alongside a known-feasible accepted config.
            accepted = TilingConfig(
                b=1, d=16, m1=1, m0=arch.array_2d.cols, p=1, s=16,
                p_prime=intra_tile_p_prime(1, arch.array_2d.rows),
            )
            assert (
                fused_buffer_requirement(accepted, model)
                <= arch.buffer_words
            )
            report = audit_tiling(
                accepted, assess_tiling(accepted, workload, arch),
                workload, arch, rejected=[config],
            )
        assert report.ok, report.failures()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_assessment_mutations_caught(self, seed):
        rng = random.Random(seed)
        arch = edge_architecture()
        workload = Workload(named_model("bert"), seq_len=512, batch=4)
        config = random_tiling(rng, arch)
        assessment = assess_tiling(config, workload, arch)
        mutations = [
            (
                dataclasses.replace(
                    assessment, dram_words=assessment.dram_words + 1.0
                ),
                "traffic_recompute",
            ),
            (
                dataclasses.replace(
                    assessment,
                    buffer_words_required=(
                        assessment.buffer_words_required + 1
                    ),
                ),
                "buffer_recompute",
            ),
            (
                dataclasses.replace(
                    assessment, feasible=not assessment.feasible
                ),
                "feasibility_flag",
            ),
        ]
        for bad, check in mutations:
            report = audit_tiling(config, bad, workload, arch)
            assert failed(report, check), check


# ----------------------------------------------------------------------
# Conservation properties
# ----------------------------------------------------------------------
class TestConservationProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_consistent_report_audits_clean(self, seed):
        arch = edge_architecture()
        report = random_report(random.Random(seed), arch)
        audit = audit_conservation(report, arch)
        assert audit.ok, audit.failures()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutations_caught(self, seed):
        arch = edge_architecture()
        rng = random.Random(seed)
        base = random_report(rng, arch)
        victim = rng.choice(["qkv", "mha", "layernorm", "ffn"])

        inflated = copy.deepcopy(base)
        inflated.phase(victim).ops_2d *= 1e9
        assert failed(
            audit_conservation(inflated, arch), "throughput_bound"
        )

        overbusy = copy.deepcopy(base)
        phase = overbusy.phase(victim)
        phase.busy_seconds[K1] = phase.compute_seconds * 2.0 + 1.0
        assert failed(
            audit_conservation(overbusy, arch),
            "busy_within_makespan",
        )

        negative = copy.deepcopy(base)
        negative.phase(victim).dram_words = -1.0
        assert failed(
            audit_conservation(negative, arch), "finite_nonnegative"
        )

        starved = copy.deepcopy(base)
        phase = starved.phase(victim)
        phase.rf_words = phase.ops_2d + phase.ops_1d  # below 2x floor
        if phase.ops_2d + phase.ops_1d > 0.0:
            assert failed(
                audit_conservation(starved, arch), "register_floor"
            )


# ----------------------------------------------------------------------
# Serialization properties
# ----------------------------------------------------------------------
class TestSerializationProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_audit_twice_serializes_identically(self, seed):
        rng = random.Random(seed)
        order, preds, table = random_dag(rng)
        with force_validation(False):
            result = dp_schedule(order, preds, table)
        first = audit_report_to_dict(
            audit_schedule(order, preds, table, result)
        )
        second = audit_report_to_dict(
            audit_schedule(order, preds, table, result)
        )
        assert first == second

"""Extreme-workload robustness: the search must stay correct at the
edges of the input space (million-token sequences, single-PE arrays,
batch 1) and fail loudly with a typed diagnosis when nothing fits."""

from __future__ import annotations

import dataclasses

import pytest

from repro.model.config import named_model
from repro.model.workload import Workload
from repro.resilience.budget import PROVENANCE_COMPLETE
from repro.resilience.diagnostics import diagnose_infeasible
from repro.runner.errors import InfeasiblePoint
from repro.tileseek.buffer_model import fused_buffer_requirement
from repro.tileseek.search import TileSeek
from repro.validate.tiling import audit_tiling


def audited(result, workload, arch):
    audit_tiling(
        result.config, result.assessment, workload, arch
    ).raise_if_failed()


class TestMillionTokenSequence:
    def test_feasible_on_edge(self, edge):
        workload = Workload(
            named_model("t5"), seq_len=1 << 20, batch=1
        )
        result = TileSeek(iterations=24, seed=0).search(
            workload, edge
        )
        assert result.feasible
        assert result.provenance == PROVENANCE_COMPLETE
        assert 1 <= result.config.p <= workload.seq_len
        assert (
            fused_buffer_requirement(result.config, workload.model)
            <= edge.buffer_words
        )
        audited(result, workload, edge)

    def test_feasible_even_under_a_starvation_budget(self, edge):
        workload = Workload(
            named_model("t5"), seq_len=1 << 20, batch=1
        )
        result = TileSeek(iterations=200, seed=0).search(
            workload, edge, budget=2
        )
        assert result.feasible
        # At a million tokens the greedy anchor is the grid optimum:
        # the certificate answers before the budget is charged.
        assert result.provenance == PROVENANCE_COMPLETE
        assert result.stats.iterations == 0
        audited(result, workload, edge)


class TestDegeneratePEArrays:
    def test_single_pe_2d_array(self, edge, small_workload):
        arch = edge.with_2d_array(1, 1)
        result = TileSeek(iterations=24, seed=0).search(
            small_workload, arch
        )
        assert result.feasible
        assert result.assessment.dram_seconds > 0
        audited(result, small_workload, arch)

    def test_single_lane_1d_array(self, edge, small_workload):
        arch = dataclasses.replace(
            edge,
            name="edge-1lane",
            array_1d=dataclasses.replace(edge.array_1d, cols=1),
        )
        result = TileSeek(iterations=24, seed=0).search(
            small_workload, arch
        )
        assert result.feasible
        assert result.assessment.dram_seconds > 0
        audited(result, small_workload, arch)


class TestBatchOne:
    def test_batch_one_tiles_to_one(self, edge):
        workload = Workload(named_model("t5"), seq_len=512, batch=1)
        result = TileSeek(iterations=24, seed=0).search(
            workload, edge
        )
        assert result.feasible
        assert result.config.b == 1
        audited(result, workload, edge)


class TestUndersizedBuffer:
    def test_typed_diagnosis_matches_direct_probe(self, edge):
        arch = dataclasses.replace(
            edge,
            name="edge-tiny",
            buffer=dataclasses.replace(
                edge.buffer, capacity_bytes=4096
            ),
        )
        workload = Workload(named_model("t5"), seq_len=512, batch=4)
        with pytest.raises(InfeasiblePoint) as err:
            TileSeek(iterations=24, seed=0).search(workload, arch)
        verdict = err.value
        assert "edge-tiny" in verdict.subject
        probe = diagnose_infeasible(
            workload.model,
            arch.buffer_words,
            m0=arch.array_2d.cols,
            rows=arch.array_2d.rows,
        )
        assert probe is not None
        assert verdict.diagnosis == probe.as_dict()
        assert verdict.diagnosis["capacity_words"] == (
            arch.buffer_words
        )
        assert verdict.diagnosis["overflow_words"] == (
            verdict.diagnosis["required_words"] - arch.buffer_words
        )

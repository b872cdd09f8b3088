"""Tests for the TransFusion executor."""

import dataclasses

import pytest

from repro.arch.pe import PEArrayKind
from repro.core.executor import TransFusionExecutor
from repro.dpipe.planner import DPipeOptions
from repro.model.config import named_model
from repro.model.workload import Workload


@pytest.fixture
def executor():
    return TransFusionExecutor()


class TestTilingIntegration:
    def test_tiling_is_memoized(self, executor, llama_workload,
                                cloud):
        first = executor.tiling(llama_workload, cloud)
        second = executor.tiling(llama_workload, cloud)
        assert first is second

    def test_tiling_is_feasible(self, executor, llama_workload,
                                cloud, edge):
        for arch in (cloud, edge):
            result = executor.tiling(llama_workload, arch)
            assert result.feasible

    def test_different_arch_different_cache_entry(
        self, executor, llama_workload, cloud, edge
    ):
        a = executor.tiling(llama_workload, cloud)
        b = executor.tiling(llama_workload, edge)
        assert a is not b

    def test_same_name_different_buffer_different_tiling(
        self, executor, edge
    ):
        """The in-process memo is keyed by the architecture's
        contents: a second spec named ``edge`` with a quarter of the
        buffer gets its own search, whose tiling fits that buffer."""
        workload = Workload(named_model("t5"), seq_len=512, batch=4)
        smaller = dataclasses.replace(
            edge,
            buffer=dataclasses.replace(
                edge.buffer,
                capacity_bytes=edge.buffer.capacity_bytes // 4,
            ),
        )
        assert smaller.name == edge.name
        full = executor.tiling(workload, edge)
        cut = executor.tiling(workload, smaller)
        assert cut.config != full.config
        assert cut.assessment.buffer_words_required <= (
            smaller.buffer_words
        )
        assert executor.tiling(workload, edge) is full


class TestLayerPlans:
    def test_plans_for_all_sublayers(self, executor, llama_workload,
                                     cloud):
        for layer in ("qkv", "mha", "layernorm", "ffn"):
            plan = executor.layer_plan(llama_workload, cloud, layer)
            assert plan.total_seconds > 0
            assert plan.n_epochs >= 1

    def test_mha_plan_pipelines(self, executor, llama_workload,
                                cloud):
        plan = executor.layer_plan(llama_workload, cloud, "mha")
        assert plan.pipelined


class TestPhases:
    def test_phase_traffic_apportionment(self, executor,
                                         llama_workload, cloud):
        report = executor.run(llama_workload, cloud)
        assert report.phase("layernorm").dram_words == 0.0
        assert report.phase("qkv").dram_words > 0
        assert report.phase("mha").dram_words > 0
        assert report.phase("ffn").dram_words > 0

    def test_layernorm_phase_counted_twice(self, executor,
                                           llama_workload, cloud):
        report = executor.run(llama_workload, cloud)
        single = executor.layer_plan(
            llama_workload, cloud, "layernorm"
        )
        assert report.phase(
            "layernorm"
        ).compute_seconds == pytest.approx(
            2 * single.total_seconds
        )

    def test_all_phases_overlap_dram(self, executor, llama_workload,
                                     cloud):
        report = executor.run(llama_workload, cloud)
        assert all(p.overlap_dram for p in report.phases)

    def test_ops_split_across_both_arrays_on_edge(
        self, executor, llama_workload, edge
    ):
        report = executor.run(llama_workload, edge)
        total_2d = sum(p.ops_2d for p in report.phases)
        total_1d = sum(p.ops_1d for p in report.phases)
        # DPipe load balancing: neither array idles on edge.
        assert total_1d > 0.3 * total_2d


class TestAblationOptions:
    def test_static_options_slow_it_down(self, llama_workload, edge):
        full = TransFusionExecutor().run(llama_workload, edge)
        static = TransFusionExecutor(
            dpipe_options=DPipeOptions(
                enable_pipelining=False,
                enable_dp_assignment=False,
            )
        ).run(llama_workload, edge)
        assert static.latency_seconds(edge) > full.latency_seconds(
            edge
        )

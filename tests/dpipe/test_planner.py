"""Tests for the DPipe planner and its ablation switches."""

import pytest

from repro.arch.pe import PEArrayKind
from repro.dpipe.latency import build_latency_table
from repro.dpipe.planner import DPipeOptions, plan_cascade
from repro.einsum.builders import (
    attention_cascade,
    ffn_cascade,
    layernorm_cascade,
    qkv_cascade,
)
from repro.sim.mapping import inner_tile_extents


def plan_for(layer, builder, arch, n_epochs=256, seq=65536,
             options=DPipeOptions()):
    from repro.model.config import named_model

    model = named_model("llama3")
    extents = model.extents()
    extents.update({"p": seq, "m0": seq, "m1": 1})
    cascade = builder()
    tile = inner_tile_extents(layer, extents, arch.array_2d)
    return plan_cascade(cascade, layer, tile, arch, n_epochs,
                        options)


class TestPlannerBasics:
    def test_invalid_epochs_rejected(self, cloud):
        with pytest.raises(ValueError, match="positive"):
            plan_for("mha", attention_cascade, cloud, n_epochs=0)

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DPipeOptions(max_orders=0)

    def test_single_epoch_never_pipelines(self, cloud):
        plan = plan_for("mha", attention_cascade, cloud, n_epochs=1)
        assert not plan.pipelined

    def test_total_scales_with_epochs(self, cloud):
        small = plan_for("mha", attention_cascade, cloud,
                         n_epochs=10)
        large = plan_for("mha", attention_cascade, cloud,
                         n_epochs=1000)
        assert large.total_seconds > 50 * small.total_seconds

    def test_busy_and_load_totals_positive(self, cloud):
        plan = plan_for("mha", attention_cascade, cloud)
        assert sum(plan.busy_seconds.values()) > 0
        assert sum(plan.load_split.values()) > 0


class TestPipeliningBenefit:
    def test_mha_pipelines_on_cloud(self, cloud):
        plan = plan_for("mha", attention_cascade, cloud)
        assert plan.pipelined
        assert plan.bipartition is not None

    def test_pipelining_beats_no_pipelining(self, cloud):
        full = plan_for("mha", attention_cascade, cloud)
        no_pipe = plan_for(
            "mha", attention_cascade, cloud,
            options=DPipeOptions(enable_pipelining=False),
        )
        assert full.total_seconds < no_pipe.total_seconds

    def test_qkv_pipelines_via_paired_window(self, edge):
        # The edgeless QKV DAG has no valid bipartition, but the
        # paired-window candidate overlaps its three independent
        # GEMMs across epochs *and* arrays: 3 GEMM units over 2
        # arrays -> 1.5 units per epoch, i.e. 2x over the pinned
        # serial schedule (3 units).
        plan = plan_for("qkv", qkv_cascade, edge)
        assert plan.pipelined
        pinned = plan_for(
            "qkv", qkv_cascade, edge,
            options=DPipeOptions(
                enable_pipelining=False,
                enable_dp_assignment=False,
            ),
        )
        assert plan.total_seconds == pytest.approx(
            pinned.total_seconds / 2.0, rel=0.05
        )

    def test_qkv_single_epoch_still_balances(self, edge):
        # Without pipelining, the DP assignment alone gets 1.5x.
        plan = plan_for(
            "qkv", qkv_cascade, edge,
            options=DPipeOptions(enable_pipelining=False),
        )
        assert not plan.pipelined
        pinned = plan_for(
            "qkv", qkv_cascade, edge,
            options=DPipeOptions(
                enable_pipelining=False,
                enable_dp_assignment=False,
            ),
        )
        assert plan.total_seconds == pytest.approx(
            pinned.total_seconds / 1.5, rel=0.05
        )

    def test_ffn_splits_gemms_on_edge(self, edge):
        full = plan_for("ffn", ffn_cascade, edge)
        static = plan_for(
            "ffn", ffn_cascade, edge,
            options=DPipeOptions(
                enable_pipelining=False,
                enable_dp_assignment=False,
            ),
        )
        assert static.total_seconds / full.total_seconds > 1.8

    def test_layernorm_splits_vector_work_on_cloud(self, cloud):
        full = plan_for("layernorm", layernorm_cascade, cloud)
        static = plan_for(
            "layernorm", layernorm_cascade, cloud,
            options=DPipeOptions(
                enable_pipelining=False,
                enable_dp_assignment=False,
            ),
        )
        assert static.total_seconds / full.total_seconds > 1.3


class TestObjectives:
    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            DPipeOptions(objective="throughput")

    def test_energy_objective_trades_latency_for_energy(self, cloud):
        from repro.arch.pe import PEArrayKind

        def pe_energy(plan):
            return cloud.energy.pe_energy_pj(
                plan.load_split[PEArrayKind.ARRAY_2D],
                plan.load_split[PEArrayKind.ARRAY_1D],
            )

        fast = plan_for("mha", attention_cascade, cloud,
                        options=DPipeOptions(objective="latency"))
        lean = plan_for("mha", attention_cascade, cloud,
                        options=DPipeOptions(objective="energy"))
        assert lean.total_seconds >= fast.total_seconds
        assert pe_energy(lean) <= pe_energy(fast)

    def test_edp_between_the_extremes(self, cloud):
        fast = plan_for("mha", attention_cascade, cloud,
                        options=DPipeOptions(objective="latency"))
        edp = plan_for("mha", attention_cascade, cloud,
                       options=DPipeOptions(objective="edp"))
        assert edp.total_seconds >= fast.total_seconds


class TestAblationMonotonicity:
    @pytest.mark.parametrize("layer,builder", [
        ("mha", attention_cascade),
        ("ffn", ffn_cascade),
        ("layernorm", layernorm_cascade),
        ("qkv", qkv_cascade),
    ])
    def test_full_dpipe_is_fastest_variant(
        self, cloud, edge, layer, builder
    ):
        for arch in (cloud, edge):
            full = plan_for(layer, builder, arch)
            for options in (
                DPipeOptions(enable_pipelining=False),
                DPipeOptions(enable_dp_assignment=False),
                DPipeOptions(
                    enable_pipelining=False,
                    enable_dp_assignment=False,
                ),
            ):
                variant = plan_for(layer, builder, arch,
                                   options=options)
                assert (
                    full.total_seconds
                    <= variant.total_seconds + 1e-12
                )

    def test_pinned_assignment_uses_natural_arrays(self, cloud):
        plan = plan_for(
            "mha", attention_cascade, cloud,
            options=DPipeOptions(
                enable_dp_assignment=False,
                enable_pipelining=False,
            ),
        )
        # All GEMM load must sit on the 2D array when pinned.
        assert plan.load_split[PEArrayKind.ARRAY_2D] > 0
        assert plan.load_split[PEArrayKind.ARRAY_1D] > 0


class TestFusedPlannerEqualsLegacy:
    """The memoized fused planner is a drop-in for the legacy one:
    byte-identical plans (same floats, same dict orders) across
    layers, architectures, objectives and ablation switches."""

    CASES = [
        ("qkv", qkv_cascade),
        ("mha", attention_cascade),
        ("layernorm", layernorm_cascade),
        ("ffn", ffn_cascade),
    ]

    def assert_plans_identical(self, fused, legacy):
        assert fused == legacy
        # Float-accumulation order matters downstream: dict iteration
        # orders must match too, not just values.
        assert list(fused.busy_seconds) == list(legacy.busy_seconds)
        assert list(fused.load_split) == list(legacy.load_split)

    @pytest.mark.parametrize("layer,builder", CASES)
    def test_default_options(self, cloud, layer, builder):
        from repro.dpipe.planner import clear_kernel_cache
        from repro.model.config import named_model
        from repro.sim.mapping import inner_tile_extents
        from tests.oracles.dpipe_legacy import plan_cascade_legacy

        extents = named_model("llama3").extents()
        extents.update({"p": 65536, "m0": 65536, "m1": 1})
        cascade = builder()
        tile = inner_tile_extents(layer, extents, cloud.array_2d)
        clear_kernel_cache()
        for n_epochs in (1, 2, 256):
            fused = plan_cascade(cascade, layer, tile, cloud,
                                 n_epochs)
            legacy = plan_cascade_legacy(cascade, layer, tile,
                                         cloud, n_epochs)
            self.assert_plans_identical(fused, legacy)

    @pytest.mark.parametrize("options", [
        DPipeOptions(objective="energy"),
        DPipeOptions(objective="edp"),
        DPipeOptions(enable_dp_assignment=False),
        DPipeOptions(enable_pipelining=False),
        DPipeOptions(max_orders=3, max_bipartitions=2),
    ], ids=["energy", "edp", "pinned", "nopipe", "tiny-caps"])
    def test_option_variants(self, edge, options):
        from repro.dpipe.planner import clear_kernel_cache
        from repro.model.config import named_model
        from repro.sim.mapping import inner_tile_extents
        from tests.oracles.dpipe_legacy import plan_cascade_legacy

        extents = named_model("llama3").extents()
        extents.update({"p": 65536, "m0": 65536, "m1": 1})
        cascade = attention_cascade()
        tile = inner_tile_extents("mha", extents, edge.array_2d)
        clear_kernel_cache()
        fused = plan_cascade(cascade, "mha", tile, edge, 256,
                             options)
        legacy = plan_cascade_legacy(cascade, "mha", tile, edge,
                                     256, options)
        self.assert_plans_identical(fused, legacy)


class TestKernelMemoization:
    """The n_epochs-free kernel memo returns byte-identical plans on
    repeat calls, shares kernels across epoch counts, and survives a
    disk round-trip through the plan cache."""

    def _inputs(self, arch):
        from repro.model.config import named_model
        from repro.sim.mapping import inner_tile_extents

        extents = named_model("llama3").extents()
        extents.update({"p": 65536, "m0": 65536, "m1": 1})
        cascade = attention_cascade()
        tile = inner_tile_extents("mha", extents, arch.array_2d)
        return cascade, tile

    def test_memo_hit_is_identical(self, cloud):
        from repro.dpipe.planner import (
            clear_kernel_cache,
            kernel_cache_size,
        )
        from repro.validate import force_validation

        cascade, tile = self._inputs(cloud)
        with force_validation(False):
            clear_kernel_cache()
            first = plan_cascade(cascade, "mha", tile, cloud, 256)
            assert kernel_cache_size() == 1
            second = plan_cascade(cascade, "mha", tile, cloud, 256)
            assert kernel_cache_size() == 1
        assert first == second

    def test_kernel_shared_across_epoch_counts(self, cloud):
        from repro.dpipe.planner import (
            clear_kernel_cache,
            kernel_cache_size,
        )
        from repro.validate import force_validation
        from tests.oracles.dpipe_legacy import plan_cascade_legacy

        cascade, tile = self._inputs(cloud)
        with force_validation(False):
            clear_kernel_cache()
            plans = {
                n: plan_cascade(cascade, "mha", tile, cloud, n)
                for n in (2, 16, 4096)
            }
            assert kernel_cache_size() == 1  # one kernel, any epochs
        for n, plan in plans.items():
            legacy = plan_cascade_legacy(cascade, "mha", tile,
                                         cloud, n)
            assert plan == legacy

    def test_validation_bypasses_memo(self, cloud):
        from repro.dpipe.planner import (
            clear_kernel_cache,
            kernel_cache_size,
        )
        from repro.validate import force_validation

        cascade, tile = self._inputs(cloud)
        clear_kernel_cache()
        with force_validation(True):
            plan_cascade(cascade, "mha", tile, cloud, 256)
        assert kernel_cache_size() == 0

    def test_disk_round_trip(self, cloud, tmp_path, monkeypatch):
        from repro.dpipe.planner import clear_kernel_cache
        from repro.validate import force_validation

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cascade, tile = self._inputs(cloud)
        with force_validation(False):
            clear_kernel_cache()
            first = plan_cascade(cascade, "mha", tile, cloud, 256)
            clear_kernel_cache()  # force the disk path
            second = plan_cascade(cascade, "mha", tile, cloud, 256)
        assert first == second
        entries = list(tmp_path.rglob("*.json"))
        assert entries, "kernel was persisted"
        clear_kernel_cache()

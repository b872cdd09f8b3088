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


class TestSkeletonReuse:
    """Plans built on a reused per-cascade skeleton (and, with the
    memo on, a reused hex-key memo) equal the legacy planner's: many
    tiles per cascade, no memo cleared in between."""

    CASCADES = [
        ("qkv", lambda: qkv_cascade()),
        ("qkv", lambda: qkv_cascade(kv_cost_fraction=0.25)),
        ("mha", lambda: attention_cascade()),
        ("mha", lambda: attention_cascade(masked=True)),
        ("layernorm", lambda: layernorm_cascade()),
        ("ffn", lambda: ffn_cascade()),
        ("ffn", lambda: ffn_cascade("silu")),
    ]

    @staticmethod
    def _tiles(layer, arch):
        """At least six distinct inner tiles for ``layer`` on
        ``arch``, from several models and sequence lengths."""
        from repro.model.config import named_model

        tiles = []
        for model in ("bert", "llama3", "t5"):
            for seq in (8, 64, 4096):
                extents = named_model(model).extents()
                extents.update({"p": seq, "m0": seq, "m1": 1})
                tile = inner_tile_extents(layer, extents,
                                          arch.array_2d)
                if tile not in tiles:
                    tiles.append(tile)
        assert len(tiles) >= 6
        return tiles

    @pytest.mark.parametrize("validate", [False, True],
                             ids=["memo", "validated"])
    def test_reused_skeleton_plans_equal_legacy(self, cloud, edge,
                                                validate):
        from repro.dpipe import planner
        from repro.validate import force_validation
        from tests.oracles.dpipe_legacy import plan_cascade_legacy

        planner.clear_kernel_cache()
        cascades = [(layer, build()) for layer, build in self.CASCADES]
        with force_validation(validate):
            for arch in (cloud, edge):
                for layer, cascade in cascades:
                    for tile in self._tiles(layer, arch):
                        for n_epochs in (1, 7):
                            fused = plan_cascade(cascade, layer, tile,
                                                 arch, n_epochs)
                            legacy = plan_cascade_legacy(
                                cascade, layer, tile, arch, n_epochs
                            )
                            assert fused == legacy
                            assert (list(fused.busy_seconds)
                                    == list(legacy.busy_seconds))
        # One skeleton per cascade instance, reused by every tile.
        assert len(planner._SKELETONS) == len(cascades)
        planner.clear_kernel_cache()


class TestTableKeyedKernels:
    """Kernels are keyed by the planning latency table, not the tile:
    tiles that price to one table share one kernel build, a memo hit
    equals a fresh build, and any change to the table, the budget or
    the validation mode still gets its own build."""

    CASCADES = TestSkeletonReuse.CASCADES

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count ``_build_kernel`` calls, in-process memo only."""
        from repro.dpipe import planner

        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.delenv("REPRO_BUDGET", raising=False)
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        calls = []
        inner = planner._build_kernel

        def counted(skeleton, table, *args, **kwargs):
            calls.append(table)
            return inner(skeleton, table, *args, **kwargs)

        monkeypatch.setattr(planner, "_build_kernel", counted)
        planner.clear_kernel_cache()
        yield calls
        planner.clear_kernel_cache()

    @staticmethod
    def _unread_variants(layer, cascade, arch):
        """A base tile plus tiles that differ from it only in extents
        no op of ``cascade`` reads."""
        from repro.model.config import named_model

        extents = named_model("llama3").extents()
        extents.update({"p": 4096, "m0": 4096, "m1": 1})
        base = inner_tile_extents(layer, extents, arch.array_2d)
        unread = [dim for dim in base
                  if dim not in cascade.dims_used()]
        if layer in ("layernorm", "ffn"):
            # The sequence extent of a served miss's tile.
            assert "m0" in unread
        assert unread
        return [base] + [
            dict(base, **{dim: value})
            for dim in unread for value in (1, 777)
        ]

    def test_unread_extents_share_one_table_and_one_build(
        self, cloud, edge, builds
    ):
        from repro.dpipe import planner
        from repro.validate import force_validation
        from tests.oracles.dpipe_legacy import plan_cascade_legacy

        with force_validation(False):
            for arch in (cloud, edge):
                for layer, build in self.CASCADES:
                    cascade = build()
                    builds.clear()
                    planner.clear_kernel_cache()
                    tiles = self._unread_variants(layer, cascade, arch)
                    tables = [
                        planner._planning_table(
                            cascade, layer, tile, arch, DPipeOptions()
                        )
                        for tile in tiles
                    ]
                    assert all(table == tables[0] for table in tables)
                    for tile in tiles:
                        for n_epochs in (7, 1):
                            fused = plan_cascade(cascade, layer, tile,
                                                 arch, n_epochs)
                            legacy = plan_cascade_legacy(
                                cascade, layer, tile, arch, n_epochs
                            )
                            assert fused == legacy
                    assert len(builds) == 1, (arch.name, layer)
                    assert planner.kernel_cache_size() == 1
                    # The memoised kernel equals a fresh build.
                    (kernel,) = planner._KERNEL_CACHE.values()
                    fresh = planner._build_kernel(
                        planner._skeleton(cascade), tables[0],
                        DPipeOptions(), True,
                    )
                    assert (planner._kernel_to_dict(kernel)
                            == planner._kernel_to_dict(fresh))

    def test_one_float_apart_tables_get_distinct_keys(self, cloud):
        import math

        from repro.dpipe import planner
        from repro.dpipe.latency import LatencyTable
        from repro.runner.cache import stable_hash

        for layer, build in self.CASCADES:
            cascade = build()
            skeleton = planner._skeleton(cascade)
            (tile, *_) = self._unread_variants(layer, cascade, cloud)
            table = planner._planning_table(
                cascade, layer, tile, cloud, DPipeOptions()
            )

            def key(candidate):
                return stable_hash(planner._kernel_payload(
                    skeleton, candidate, DPipeOptions(), "salt"
                ))

            same = LatencyTable(seconds=dict(table.seconds),
                                loads=dict(table.loads))
            assert key(same) == key(table)
            seen = {key(table)}
            for slot in table.seconds:
                seconds = dict(table.seconds)
                seconds[slot] = math.nextafter(seconds[slot], math.inf)
                seen.add(key(LatencyTable(seconds, table.loads)))
            for name in table.loads:
                loads = dict(table.loads)
                loads[name] = math.nextafter(float(loads[name]),
                                             math.inf)
                seen.add(key(LatencyTable(table.seconds, loads)))
            assert len(seen) == 1 + len(table.seconds) + len(
                table.loads
            )

    def test_budgeted_kernel_never_answers_unbudgeted(
        self, cloud, builds, monkeypatch
    ):
        from repro.dpipe import planner
        from repro.validate import force_validation
        from tests.oracles.dpipe_legacy import plan_cascade_legacy

        cascade = attention_cascade()
        (tile, *_) = self._unread_variants("mha", cascade, cloud)
        with force_validation(False):
            monkeypatch.setenv("REPRO_BUDGET", "16")
            budgeted = plan_cascade(cascade, "mha", tile, cloud, 7)
            monkeypatch.delenv("REPRO_BUDGET")
            plain = plan_cascade(cascade, "mha", tile, cloud, 7)
            monkeypatch.setenv("REPRO_BUDGET", "16")
            again = plan_cascade(cascade, "mha", tile, cloud, 7)
        assert len(builds) == 2
        # The budgeted kernel is degraded; the unbudgeted one is not.
        assert [
            kernel.provenance == "complete"
            for kernel in planner._KERNEL_CACHE.values()
        ] == [False, True]
        assert again == budgeted
        assert plain == plan_cascade_legacy(cascade, "mha", tile,
                                            cloud, 7)

    def test_validation_builds_every_kernel_fresh(
        self, cloud, builds
    ):
        from repro.dpipe import planner
        from repro.validate import force_validation

        cascade = ffn_cascade()
        tiles = self._unread_variants("ffn", cascade, cloud)
        with force_validation(True):
            for tile in tiles:
                plan_cascade(cascade, "ffn", tile, cloud, 7)
        assert len(builds) == len(tiles)
        assert planner.kernel_cache_size() == 0


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

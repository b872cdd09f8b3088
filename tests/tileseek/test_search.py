"""Tests for the TileSeek driver and its baselines."""

import pytest

from repro.arch.spec import named_architecture
from repro.model.config import MODEL_ZOO, named_model
from repro.model.workload import Workload
from repro.tileseek.baseline_search import (
    ExhaustiveTilingSearch,
    RandomTilingSearch,
)
from repro.tileseek.buffer_model import fused_buffer_requirement
from repro.tileseek.evaluate import assess_tiling, reward_for
from repro.tileseek.search import FACTOR_ORDER, TileSeek, _tile_candidates
from tests.oracles import tileseek_scalar
from tests.oracles.tileseek_exact import exact_optimum
from tests.oracles.tileseek_scalar import search_scalar


@pytest.fixture
def workload():
    return Workload(named_model("llama3"), seq_len=16384, batch=64)


@pytest.fixture
def searched_workload():
    """A point whose greedy anchor misses the grid optimum, so the
    MCTS runs (at ``workload`` the anchor is certified optimal)."""
    return Workload(named_model("t5"), seq_len=2048, batch=16)


class TestCandidates:
    def test_grid_covers_all_factors(self, workload, cloud):
        grid = TileSeek().candidate_grid(workload, cloud)
        assert set(grid) == set(FACTOR_ORDER)
        for values in grid.values():
            assert values == sorted(values)
            assert len(values) > 0

    def test_grid_anchored_on_max_feasible_p(self, workload, cloud):
        searcher = TileSeek()
        grid = searcher.candidate_grid(workload, cloud)
        from repro.tileseek.buffer_model import max_feasible_q_tile

        anchor = max_feasible_q_tile(
            workload.model, workload.seq_len, cloud.buffer_words,
            m0=256, rows=256,
        )
        assert anchor in grid["p"]

    def test_fixed_factors_from_pe_arrays(self, cloud):
        fixed = TileSeek().fixed_factors(cloud)
        assert fixed == {"m0": 256, "rows": 256}


class TestSearch:
    def test_returns_feasible_config(self, workload, cloud):
        result = TileSeek(iterations=200, seed=7).search(
            workload, cloud
        )
        assert result.feasible
        assert fused_buffer_requirement(
            result.config, workload.model
        ) <= cloud.buffer_words

    def test_deterministic(self, workload, edge):
        a = TileSeek(iterations=150, seed=5).search(workload, edge)
        b = TileSeek(iterations=150, seed=5).search(workload, edge)
        assert a.config == b.config

    def test_beats_or_matches_random_at_equal_budget(
        self, workload, edge
    ):
        mcts = TileSeek(iterations=300, seed=0).search(workload, edge)
        rand = RandomTilingSearch(iterations=300, seed=0).search(
            workload, edge
        )
        assert (
            mcts.assessment.dram_words
            <= rand.assessment.dram_words * 1.05
        )

    def test_close_to_exhaustive_optimum(self, cloud):
        # Shrink the problem so exhaustive search stays fast.
        workload = Workload(named_model("t5"), seq_len=4096, batch=8)
        best = ExhaustiveTilingSearch().search(workload, cloud)
        mcts = TileSeek(iterations=600, seed=0).search(
            workload, cloud
        )
        assert mcts.assessment.dram_words <= (
            1.1 * best.assessment.dram_words
        )

    def test_mcts_needs_far_fewer_evals_than_exhaustive(
        self, cloud
    ):
        workload = Workload(named_model("t5"), seq_len=4096, batch=8)
        best = ExhaustiveTilingSearch().search(workload, cloud)
        mcts = TileSeek(iterations=600, seed=0).search(
            workload, cloud
        )
        assert mcts.stats.evaluations < 0.05 * best.stats.evaluations

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            TileSeek(iterations=0)

    def test_unknown_reward_metric_rejected(self):
        with pytest.raises(ValueError, match="reward metric"):
            TileSeek(reward_metric="power")


class TestAssessment:
    def test_infeasible_config_scores_zero(self, workload, edge):
        from repro.tileseek.buffer_model import TilingConfig

        giant = TilingConfig(
            b=64, d=4096, m1=64, m0=256, p=16384, s=14336,
            p_prime=256,
        )
        assessment = assess_tiling(giant, workload, edge)
        assert not assessment.feasible
        assert reward_for(assessment, 1e9) == 0.0

    def test_reward_monotone_in_traffic(self, workload, cloud):
        from repro.tileseek.buffer_model import TilingConfig

        small_p = TilingConfig(b=1, d=16, m1=1, m0=256, p=64, s=16,
                               p_prime=256)
        big_p = TilingConfig(b=1, d=16, m1=1, m0=256, p=256, s=16,
                             p_prime=256)
        a_small = assess_tiling(small_p, workload, cloud)
        a_big = assess_tiling(big_p, workload, cloud)
        assert a_big.dram_words < a_small.dram_words
        ref = a_small.dram_words
        assert reward_for(a_big, ref) > reward_for(a_small, ref)

    def test_unknown_metric_rejected(self, workload, cloud):
        from repro.tileseek.buffer_model import TilingConfig

        config = TilingConfig(b=1, d=16, m1=1, m0=256, p=64, s=16,
                              p_prime=256)
        assessment = assess_tiling(config, workload, cloud)
        with pytest.raises(ValueError):
            reward_for(assessment, 1.0, metric="power")

    def test_kv_fit_gives_single_pass(self, cloud):
        small = Workload(named_model("t5"), seq_len=512, batch=2)
        from repro.tileseek.buffer_model import TilingConfig

        config = TilingConfig(b=1, d=16, m1=1, m0=256, p=128, s=16,
                              p_prime=256)
        assessment = assess_tiling(config, small, cloud)
        assert assessment.kv_passes == 1


class TestSearchEfficiency:
    def test_prune_feasibility_checks_memoized(
        self, searched_workload, cloud, monkeypatch
    ):
        """Rollouts revisit prefixes; each Table-2 completion check
        must run at most once per unique prefix (scalar oracle)."""
        buffer_calls = [0]
        real_requirement = tileseek_scalar.fused_buffer_requirement

        def counting_requirement(config, model):
            buffer_calls[0] += 1
            return real_requirement(config, model)

        prune_calls = [0]
        real_mcts = tileseek_scalar.mcts_search

        def wrapped_mcts(levels, evaluate, **kwargs):
            inner = kwargs["prune"]

            def counting_prune(partial):
                prune_calls[0] += 1
                return inner(partial)

            kwargs["prune"] = counting_prune
            return real_mcts(levels, evaluate, **kwargs)

        monkeypatch.setattr(
            tileseek_scalar, "fused_buffer_requirement",
            counting_requirement,
        )
        monkeypatch.setattr(
            tileseek_scalar, "mcts_search", wrapped_mcts
        )
        search_scalar(
            TileSeek(iterations=300, seed=0), searched_workload, cloud
        )
        assert prune_calls[0] > 0
        # Strictly fewer buffer evaluations than prune invocations:
        # repeats were served from the memo.
        assert buffer_calls[0] < prune_calls[0]

    def test_no_config_assessed_twice(
        self, searched_workload, cloud, monkeypatch
    ):
        """The exact-optimum line, the leaves and the winner are each
        priced exactly once -- no duplicated assess_tiling work
        (scalar oracle)."""
        assessed = []
        real_assess = tileseek_scalar.assess_tiling

        def recording_assess(config, wl, arch):
            assessed.append(config)
            return real_assess(config, wl, arch)

        monkeypatch.setattr(
            tileseek_scalar, "assess_tiling", recording_assess
        )
        search_scalar(
            TileSeek(iterations=200, seed=1), searched_workload, cloud
        )
        assert len(assessed) == len(set(assessed))

    def test_prune_bisection_probe_count(
        self, searched_workload, cloud, monkeypatch
    ):
        """The production viability oracle bisects each ascending
        candidate level once per unique prefix for the end of its
        feasible prefix -- repeated prefixes hit the memo, and the
        probe count is exactly the bisection's."""
        import repro.tileseek.search as search_module

        probes = [0]
        real_footprint = search_module.table2_footprint

        def counting_footprint(model, m0, rows):
            footprint = real_footprint(model, m0, rows)

            def probe(*factors):
                probes[0] += 1
                return footprint(*factors)

            return probe

        queries = []
        answers = {}
        pruned = [0]
        real_oracle = search_module._prefix_oracle

        def recording_oracle(levels, footprint, capacity):
            inner = real_oracle(levels, footprint, capacity)

            def recording_viable(prefix, level):
                # Leaf pricing probes the footprint too; count the
                # prune alone.
                before = probes[0]
                values = inner(prefix, level)
                pruned[0] += probes[0] - before
                queries.append(prefix)
                answers[prefix] = (len(values), len(levels[level]))
                return values

            return recording_viable

        monkeypatch.setattr(
            search_module, "table2_footprint", counting_footprint
        )
        monkeypatch.setattr(
            search_module, "_prefix_oracle", recording_oracle
        )
        result = TileSeek(iterations=300, seed=0).search(
            searched_workload, cloud
        )
        assert result.stats.iterations > 0  # the MCTS ran
        assert probes[0] > pruned[0]  # leaves probed too
        assert len(queries) > len(answers) > 0

        def bisection_probes(kept, offered):
            low, high, count = 0, offered, 0
            while low < high:
                middle = (low + high) // 2
                count += 1
                if middle < kept:
                    low = middle + 1
                else:
                    high = middle
            return count

        expected = sum(
            bisection_probes(kept, offered)
            for kept, offered in answers.values()
        )
        assert pruned[0] == expected
        # Fewer than the linear walk's kept values plus the first
        # overflowing one.
        assert expected < sum(
            kept + (kept < offered)
            for kept, offered in answers.values()
        )

    def test_assesses_only_the_winner(self, monkeypatch):
        """``assess_tiling`` runs once per search, for the winner.
        The exact-optimum line and every leaf are priced from hoisted
        constants."""
        import repro.tileseek.search as search_module

        assessed = []
        real_assess = search_module.assess_tiling

        def recording_assess(config, wl, arch):
            assessed.append(config)
            return real_assess(config, wl, arch)

        monkeypatch.setattr(
            search_module, "assess_tiling", recording_assess
        )
        searches = ran = 0
        for arch_name in ("cloud", "edge"):
            arch = named_architecture(arch_name)
            for model_name, seq_len, batch in (
                ("llama3", 512, 1), ("llama3", 16384, 64),
                ("t5", 2048, 16),
            ):
                workload = Workload(
                    named_model(model_name), seq_len=seq_len,
                    batch=batch,
                )
                for budget in (None, 1, 40):
                    assessed.clear()
                    searcher = TileSeek(iterations=200, seed=1)
                    result = searcher.search(
                        workload, arch, budget=budget
                    )
                    searches += 1
                    ran += result.stats.iterations > 0
                    assert assessed == [result.config]
                    assert result.assessment == real_assess(
                        result.config, workload, arch
                    )
        assert searches == 18
        assert ran > 0
        # A spent budget on a one-token, one-sequence workload: the
        # grid's only ``(b, p)`` is the minimal one, so the anchor is
        # the minimal point and certifies itself -- the budget is
        # never charged.
        assessed.clear()
        arch = named_architecture("edge")
        workload = Workload(named_model("llama3"), seq_len=1, batch=1)
        searcher = TileSeek(iterations=200, seed=1)
        result = searcher.search(workload, arch, budget=0)
        minimal = searcher._config_from(
            searcher._minimal_point(
                searcher.candidate_grid(workload, arch)
            ),
            searcher.fixed_factors(arch),
        )
        assert result.config == minimal
        assert result.provenance == "complete"
        assert assessed == [minimal]

    @pytest.mark.parametrize("model_name", sorted(MODEL_ZOO))
    def test_hoisted_reward_equals_assessed_reward(
        self, model_name, monkeypatch
    ):
        """Differential: every leaf a search prices -- plus a sample
        of the whole grid, infeasible points included -- gets
        exactly ``reward_for(assess_tiling(cfg), optimum)``, bit for
        bit, where the optimum is the exact oracle's."""
        import random

        import repro.tileseek.search as search_module

        captured = {}
        real_pricer = search_module._leaf_pricer

        def capturing_pricer(footprint, capacity, traffic, optimum):
            evaluate, rewards, optimal = real_pricer(
                footprint, capacity, traffic, optimum
            )
            captured.update(
                evaluate=evaluate, rewards=rewards, optimum=optimum
            )
            return evaluate, rewards, optimal

        monkeypatch.setattr(
            search_module, "_leaf_pricer", capturing_pricer
        )
        rng = random.Random(20)
        checked = infeasible = searched = 0
        for arch_name in ("cloud", "edge", "edge32", "edge64"):
            arch = named_architecture(arch_name)
            for seq_len, batch, causal in (
                (128, 4, False), (512, 1, False), (512, 16, True),
                (16384, 64, True), (1 << 20, 4, False),
            ):
                workload = Workload(
                    named_model(model_name), seq_len=seq_len,
                    batch=batch, causal=causal,
                )
                searcher = TileSeek(iterations=120, seed=3)
                result = searcher.search(workload, arch)
                searched += result.stats.iterations > 0
                optimum, _ = exact_optimum(searcher, workload, arch)
                assert captured["optimum"] == optimum
                grid = searcher.candidate_grid(workload, arch)
                levels = [grid[name] for name in FACTOR_ORDER]
                fixed = searcher.fixed_factors(arch)
                priced = dict(captured["rewards"])
                assert priced
                for _ in range(60):
                    sample = tuple(rng.choice(v) for v in levels)
                    priced[sample] = captured["evaluate"](sample)
                for assignment, reward in priced.items():
                    expected = reward_for(
                        assess_tiling(
                            searcher._config_from(assignment, fixed),
                            workload, arch,
                        ),
                        optimum,
                    )
                    assert reward.hex() == expected.hex(), (
                        arch_name, seq_len, assignment
                    )
                    assert 0.0 <= reward <= 1.0
                    checked += 1
                    infeasible += reward == 0.0
        assert searched > 0
        assert checked > 1000
        assert infeasible > 0


class TestEarlyExitPrune:
    """The production viability oracle bisects each ascending level
    for the end of its feasible prefix.  Table 2 is monotone in every
    factor, so that must keep exactly what the scalar prune keeps --
    checked here for every prefix the search tree can reach, plus the
    first rejected child of each (the far side of the boundary), at
    batch 1 and, at batch 64, at a sequence length whose grid anchor
    falls between grid values."""

    @pytest.mark.parametrize("model_name", sorted(MODEL_ZOO))
    def test_matches_scalar_prune_on_every_prefix(
        self, model_name, monkeypatch
    ):
        import repro.tileseek.search as search_module

        captured = {}
        real_oracle = search_module._prefix_oracle

        def capturing_oracle(levels, footprint, capacity):
            viable = real_oracle(levels, footprint, capacity)
            captured.update(levels=levels, viable=viable)
            return viable

        monkeypatch.setattr(
            search_module, "_prefix_oracle", capturing_oracle
        )
        checked = 0
        arch_names = ("cloud", "edge", "edge32", "edge64")
        # Batch 64 multiplies the reachable prefixes ~30x, so each
        # model checks it on one architecture, rotating through all
        # four across the models.
        wide_arch = arch_names[sorted(MODEL_ZOO).index(model_name) % 4]
        for arch_name in arch_names:
            arch = named_architecture(arch_name)
            workloads = [(512, 1), (1 << 20, 1)]
            if arch_name == wide_arch:
                workloads.append((65536, 64))
            for seq_len, batch in workloads:
                workload = Workload(
                    named_model(model_name), seq_len=seq_len,
                    batch=batch,
                )
                searcher = TileSeek(iterations=1)
                searcher.search(workload, arch)
                levels = captured["levels"]
                if seq_len == 65536:
                    # The anchor sits strictly between grid values.
                    assert set(levels[3]) - set(_tile_candidates(
                        1 << 14
                    ))
                viable = captured["viable"]
                fixed = searcher.fixed_factors(arch)
                minimal = tuple(values[0] for values in levels)

                def scalar_keeps(partial):
                    # The scalar oracle's prune, verbatim.
                    cfg = searcher._config_from(
                        partial + minimal[len(partial):], fixed
                    )
                    return fused_buffer_requirement(
                        cfg, workload.model
                    ) <= arch.buffer_words

                frontier = [()]
                for level, values in enumerate(levels):
                    deeper = []
                    for prefix in frontier:
                        kept = viable(prefix, level)
                        expected = [
                            v for v in values
                            if scalar_keeps(prefix + (v,))
                        ]
                        assert kept == expected, (
                            arch_name, seq_len, prefix
                        )
                        checked += 1
                        deeper.extend(prefix + (v,) for v in kept)
                        if len(kept) < len(values):
                            deeper.append(prefix + (values[len(kept)],))
                    frontier = deeper
        assert checked > 1000


class TestEvaluationCounting:
    """Regression: ``MCTSStats.evaluations`` counts real evaluator
    calls only -- the exact incumbent, when the MCTS already priced
    it, must not inflate it (historically the incumbent loop added one
    per incumbent unconditionally)."""

    @pytest.mark.parametrize("budget", [None, 1, 16])
    @pytest.mark.parametrize("searched", [False, True])
    def test_counts_real_pricing_calls_only(
        self, workload, searched_workload, cloud, budget, searched,
        monkeypatch,
    ):
        import repro.tileseek.search as search_module

        memos = []
        real_pricer = search_module._leaf_pricer

        def capturing_pricer(*args):
            evaluate, rewards, optimal = real_pricer(*args)
            memos.append(rewards)
            return evaluate, rewards, optimal

        monkeypatch.setattr(
            search_module, "_leaf_pricer", capturing_pricer
        )
        point = searched_workload if searched else workload
        result = TileSeek(iterations=100, seed=4).search(
            point, cloud, budget=budget
        )
        # The memo holds one entry per real pricing call.
        assert result.stats.evaluations == len(memos[0])
        assert (result.stats.iterations > 0) == searched

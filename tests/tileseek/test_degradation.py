"""Anytime behaviour of the tiling search: budgets and dead ends."""

from __future__ import annotations

import pytest

from repro.model.config import named_model
from repro.model.workload import Workload
from repro.resilience.budget import (
    Budget,
    PROVENANCE_COMPLETE,
    is_degraded,
)
from repro.tileseek.mcts import mcts_search
from repro.tileseek.search import TileSeek


@pytest.fixture
def workload():
    # The greedy anchor misses the grid optimum here, so the MCTS
    # runs and a budget can cut it short.
    return Workload(named_model("t5"), seq_len=2048, batch=16)


class TestMCTSDeadEnds:
    """Regression: a level whose candidates are all pruned under the
    current prefix must be a recorded dead-end, not a silent fallback
    to the unpruned candidate list (which evaluated provably
    infeasible completions)."""

    @staticmethod
    def _viable(prefix, level):
        # Every completion under first value 2 is infeasible.
        return [] if level == 1 and prefix[0] == 2 else [1, 2]

    def test_dead_end_recorded_and_never_evaluated(self):
        seen = []

        def evaluate(assignment):
            seen.append(assignment)
            return 1.0 / sum(assignment)

        stats = mcts_search(
            [[1, 2], [1, 2]], evaluate, iterations=32, seed=5,
            viable=self._viable,
        )
        assert stats.dead_ends > 0
        assert all(a[0] == 1 for a in seen), (
            "evaluator was called on a pruned (dead-end) completion"
        )
        assert stats.best_assignment[0] == 1
        assert stats.iterations == 32

    def test_dead_ends_do_not_break_determinism(self):
        def evaluate(assignment):
            return 1.0 / sum(assignment)

        runs = [
            mcts_search(
                [[1, 2], [1, 2]], evaluate, iterations=32, seed=5,
                viable=self._viable,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestMCTSBudget:
    def test_budget_stops_after_exact_units(self):
        stats = mcts_search(
            [[1, 2, 3]], lambda a: float(a[0]), iterations=100,
            budget=Budget(7),
        )
        assert stats.iterations == 7
        assert stats.exhausted
        assert stats.best_reward > 0

    def test_large_budget_is_inert(self):
        free = mcts_search(
            [[1, 2, 3]], lambda a: float(a[0]), iterations=20
        )
        capped = mcts_search(
            [[1, 2, 3]], lambda a: float(a[0]), iterations=20,
            budget=Budget(10**9),
        )
        assert free == capped


class TestAnytimeTileSeek:
    def test_unbudgeted_search_is_byte_identical(
        self, workload, cloud
    ):
        """No budget + feasible point => exactly the pre-budget
        result, including its serialized document (no new keys)."""
        from repro.core.serialize import tileseek_result_to_dict

        plain = TileSeek(iterations=80, seed=3).search(
            workload, cloud
        )
        explicit = TileSeek(iterations=80, seed=3).search(
            workload, cloud, budget=None
        )
        assert plain == explicit
        document = tileseek_result_to_dict(plain)
        assert "provenance" not in document
        assert "dead_ends" not in document["stats"]
        assert "exhausted" not in document["stats"]
        assert plain.provenance == PROVENANCE_COMPLETE

    def test_budget_exhaustion_degrades_gracefully(
        self, workload, cloud
    ):
        result = TileSeek(iterations=400, seed=0).search(
            workload, cloud, budget=4
        )
        assert result.feasible
        assert result.stats.exhausted
        assert result.stats.iterations == 4
        assert is_degraded(result.provenance)

    def test_degraded_result_passes_auditors(self, workload, cloud):
        from repro.validate.tiling import audit_tiling

        result = TileSeek(iterations=400, seed=0).search(
            workload, cloud, budget=4
        )
        audit_tiling(
            result.config, result.assessment, workload, cloud
        ).raise_if_failed()

    def test_same_budget_same_result(self, workload, cloud):
        runs = [
            TileSeek(iterations=400, seed=0).search(
                workload, cloud, budget=4
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_budget_cut_still_returns_the_optimum(
        self, workload, cloud
    ):
        full = TileSeek(iterations=400, seed=0).search(
            workload, cloud
        )
        starved = TileSeek(iterations=400, seed=0).search(
            workload, cloud, budget=1
        )
        assert starved.provenance == "budget_exhausted"
        assert starved.stats.iterations == 1
        assert (
            starved.assessment.dram_words
            == full.assessment.dram_words
        )

    def test_certified_anchor_spends_no_budget(self, cloud):
        workload = Workload(named_model("t5"), seq_len=4096, batch=8)
        result = TileSeek(iterations=400, seed=0).search(
            workload, cloud, budget=1
        )
        assert result.provenance == PROVENANCE_COMPLETE
        assert result.stats.iterations == 0
        assert result.stats.tree_nodes == 0
        assert not result.stats.exhausted

    def test_env_budget_applies(self, workload, cloud, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET", "4")
        viaenv = TileSeek(iterations=400, seed=0).search(
            workload, cloud
        )
        monkeypatch.delenv("REPRO_BUDGET")
        explicit = TileSeek(iterations=400, seed=0).search(
            workload, cloud, budget=4
        )
        assert viaenv == explicit

    def test_budget_exhausted_result_roundtrips(
        self, workload, cloud
    ):
        import json

        from repro.core.serialize import (
            tileseek_result_from_dict,
            tileseek_result_to_dict,
        )

        result = TileSeek(iterations=400, seed=0).search(
            workload, cloud, budget=4
        )
        document = json.loads(
            json.dumps(tileseek_result_to_dict(result))
        )
        assert tileseek_result_from_dict(document) == result

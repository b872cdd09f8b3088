"""Tests for the generic MCTS engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tileseek.mcts import mcts_search


class TestMCTSBasics:
    def test_finds_obvious_optimum_in_tiny_space(self):
        levels = [[0, 1], [0, 1], [0, 1]]

        def evaluate(assignment):
            return float(sum(assignment))

        stats = mcts_search(levels, evaluate, iterations=50, seed=3)
        assert stats.best_assignment == (1, 1, 1)
        assert stats.best_reward == 3.0

    def test_deterministic_given_seed(self):
        levels = [[1, 2, 3]] * 4

        def evaluate(assignment):
            return 1.0 / (1 + abs(sum(assignment) - 7))

        a = mcts_search(levels, evaluate, iterations=60, seed=9)
        b = mcts_search(levels, evaluate, iterations=60, seed=9)
        assert a.best_assignment == b.best_assignment
        assert a.best_reward == b.best_reward

    @pytest.mark.parametrize("seed", range(4))
    def test_stop_ends_at_the_first_proven_optimum(self, seed):
        from tests.oracles import tileseek_scalar

        levels = [[0, 1, 2]] * 3

        def evaluate(assignment):
            return float(sum(assignment)) / 6.0

        for driver in (mcts_search, tileseek_scalar.mcts_search):
            full = driver(levels, evaluate, iterations=200, seed=seed)
            stopped = driver(
                levels, evaluate, iterations=200, seed=seed,
                stop=lambda assignment: sum(assignment) == 6,
            )
            assert stopped.best_assignment == (2, 2, 2)
            assert stopped.evaluations == stopped.iterations < 200
            assert not stopped.exhausted
            assert full.iterations == 200
            # The stopped run is the full run's prefix.
            prefix = driver(
                levels, evaluate, iterations=stopped.iterations,
                seed=seed,
            )
            assert prefix.best_assignment == (2, 2, 2)
            assert prefix.tree_nodes == stopped.tree_nodes

    def test_evaluations_match_iterations(self):
        stats = mcts_search(
            [[0, 1]], lambda a: 1.0, iterations=25, seed=0
        )
        assert stats.evaluations == 25

    def test_prune_excludes_bad_subtrees(self):
        levels = [[0, 1], [0, 1]]
        seen = []

        def evaluate(assignment):
            seen.append(assignment)
            return float(sum(assignment))

        def viable(prefix, level):
            # Forbid choosing 0 at the first level.
            return [1] if level == 0 else levels[level]

        stats = mcts_search(
            levels, evaluate, iterations=30, seed=1, viable=viable
        )
        assert stats.best_assignment[0] == 1
        assert all(a[0] == 1 for a in seen)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            mcts_search([[1]], lambda a: 0.0, iterations=0)
        with pytest.raises(ValueError, match="at least one"):
            mcts_search([[]], lambda a: 0.0, iterations=5)

    def test_zero_reward_everywhere_still_returns_assignment(self):
        stats = mcts_search(
            [[1, 2], [3, 4]], lambda a: 0.0, iterations=10, seed=0
        )
        assert len(stats.best_assignment) == 2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_beats_first_choice_baseline_on_needle(self, seed):
        # Reward peaks at one specific assignment in a 4^4 space.
        levels = [[0, 1, 2, 3]] * 4
        target = (3, 1, 2, 0)

        def evaluate(assignment):
            matches = sum(
                1 for a, t in zip(assignment, target) if a == t
            )
            return float(matches)

        stats = mcts_search(
            levels, evaluate, iterations=300, seed=seed
        )
        assert stats.best_reward >= 3.0

    def test_tree_grows_with_iterations(self):
        levels = [[0, 1, 2]] * 3

        def evaluate(assignment):
            return float(sum(assignment))

        small = mcts_search(levels, evaluate, iterations=5, seed=0)
        large = mcts_search(levels, evaluate, iterations=200, seed=0)
        assert large.tree_nodes > small.tree_nodes

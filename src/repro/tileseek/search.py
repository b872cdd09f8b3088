"""The TileSeek search driver.

Binds the generic MCTS to the tiling problem: candidate grids for the
``[B, D, M1, P, S]`` factors, Table-2 feasibility pruning, the
analytical reward, and a memoized reward per leaf (MCTS revisits
leaves; Timeloop-style evaluation is the expensive step in the paper).

Before any MCTS iteration the driver computes the exact optimum of
its own grid -- traffic depends on ``(b, p)`` only and falls with
``p`` -- and stops at once when the greedy anchor attains it.  MCTS
runs only where the anchor misses, with rewards normalised into
``(0, 1]`` against that optimum, and ends as soon as it reaches it;
the exact argmin then joins the incumbents.  Leaves are priced from
hoisted constants -- the Table-2 footprint in exact Python integers
and the traffic total of :func:`traffic_model` -- and
:func:`assess_tiling` runs only for the winner.  The one-candidate-
at-a-time search is kept as a test oracle
(``tests/oracles/tileseek_scalar.py``); the two are byte-identical by
contract -- same :class:`TileSeekResult` (config, assessment, stats,
provenance) for every input.  See DESIGN.md §10 for the exactness
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.spec import ArchitectureSpec
from repro.model.workload import Workload
from repro.resilience.budget import (
    PROVENANCE_BUDGET_EXHAUSTED,
    PROVENANCE_COMPLETE,
    Budget,
    resolve_budget,
)
from repro.tileseek.buffer_model import (
    TilingConfig,
    intra_tile_p_prime,
    max_feasible_q_tile,
    table2_footprint,
)
from repro.tileseek.evaluate import (
    TilingAssessment,
    assess_tiling,
    traffic_model,
)
from repro.tileseek.mcts import MCTSStats, mcts_search

#: Search order of the outer tiling factors (one MCTS tree level each).
FACTOR_ORDER: Tuple[str, ...] = ("b", "d", "m1", "p", "s")


def _tile_candidates(limit: int, minimum: int = 1) -> List[int]:
    """Ascending tile-size candidates in ``[minimum, limit]``.

    Powers of two plus the ``3 * 2^k`` midpoints -- buffer constraints
    often land between powers of two (e.g. a 384-token Q tile fits
    where 512 does not), and the extra values cost MCTS little.
    """
    values = set()
    value = 1
    while value <= limit:
        if value >= minimum:
            values.add(value)
        if 3 * value // 2 >= minimum and 3 * value // 2 <= limit \
                and value >= 2:
            values.add(3 * value // 2)
        value *= 2
    return sorted(values) or [max(1, min(minimum, limit))]


def _prefix_oracle(
    levels: Sequence[Sequence[int]],
    footprint: Callable[..., int],
    capacity: int,
) -> Callable[[Tuple[int, ...], int], List[int]]:
    """The minimal-completion prune as a memoised ``viable`` oracle
    for :func:`mcts_search`: a level's values that still fit the
    buffer under a prefix, with every later factor at its minimum.

    Levels ascend and Table 2 is monotone in every factor, so the
    feasible values form a prefix of the level: bisect for its end,
    once per unique prefix.
    """
    minimal = tuple(values[0] for values in levels)
    cache: Dict[Tuple[int, ...], List[int]] = {}

    def viable(prefix: Tuple[int, ...], level: int) -> List[int]:
        values = cache.get(prefix)
        if values is None:
            tail = minimal[level + 1:]
            candidates = levels[level]
            low, high = 0, len(candidates)
            while low < high:
                middle = (low + high) // 2
                if footprint(
                    *prefix, candidates[middle], *tail
                ) > capacity:
                    high = middle
                else:
                    low = middle + 1
            values = candidates[:low]
            cache[prefix] = values
        return values

    return viable


def _leaf_pricer(
    footprint: Callable[..., int],
    capacity: int,
    traffic: Callable[[int, int], Tuple[float, int, int, float]],
    optimum: float,
) -> Tuple[
    Callable[[Tuple[int, ...]], float],
    Dict[Tuple[int, ...], float],
    Set[Tuple[int, ...]],
]:
    """The memoised MCTS reward, priced from hoisted constants.

    A leaf's reward is ``reward_for(assess_tiling(cfg), optimum)``
    without building a config or an assessment: 0 when the Table-2
    footprint overflows, else the optimum over the leaf's DRAM words
    -- in ``(0, 1]``, as UCB1 assumes.

    Returns:
        ``(evaluate, rewards, optimal)``: the reward function, its
        memo, and the priced leaves whose words equal the optimum.
    """
    rewards: Dict[Tuple[int, ...], float] = {}
    optimal: Set[Tuple[int, ...]] = set()

    def evaluate(assignment: Tuple[int, ...]) -> float:
        reward = rewards.get(assignment)
        if reward is None:
            if footprint(*assignment) > capacity:
                reward = 0.0
            else:
                words = traffic(assignment[0], assignment[3])[0]
                reward = optimum / words
                if words == optimum:
                    optimal.add(assignment)
            rewards[assignment] = reward
        return reward

    return evaluate, rewards, optimal


@dataclass(frozen=True)
class TileSeekResult:
    """Outcome of one TileSeek search.

    ``provenance`` labels how the winning config was obtained:
    ``complete`` (the grid optimum, certified at the anchor or
    reached by the search) or ``budget_exhausted`` (the best of the
    MCTS incumbent and the exact optimum under a spent budget).
    """

    config: TilingConfig
    assessment: TilingAssessment
    stats: MCTSStats
    provenance: str = PROVENANCE_COMPLETE

    @property
    def feasible(self) -> bool:
        return self.assessment.feasible


class TileSeek:
    """MCTS outer-tiling search (Section 5).

    Args:
        iterations: At most this many MCTS rounds (each runs one
            leaf evaluation); the search stops earlier -- at zero
            rounds when the anchor is optimal -- once it holds the
            grid optimum.
        seed: RNG seed; results are deterministic given it.
        reward_metric: ``"energy"`` or ``"latency"`` (both monotone in
            DRAM traffic under this cost model).
        exploration: UCB1 exploration constant.
    """

    def __init__(
        self,
        iterations: int = 400,
        seed: int = 0,
        reward_metric: str = "energy",
        exploration: float = 1.4,
    ) -> None:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if reward_metric not in ("energy", "latency"):
            raise ValueError(f"unknown reward metric {reward_metric!r}")
        self.iterations = iterations
        self.seed = seed
        self.reward_metric = reward_metric
        self.exploration = exploration

    # ------------------------------------------------------------------
    # Candidate grids
    # ------------------------------------------------------------------
    def candidate_grid(
        self, workload: Workload, arch: ArchitectureSpec
    ) -> Dict[str, List[int]]:
        """Candidate values per tiling factor.

        Powers of two bounded by the problem dims; ``m0`` and ``p'``
        are fixed by the PE mapping (2D columns / rows) rather than
        searched, matching Section 5's scope.
        """
        model = workload.model
        p_values = _tile_candidates(min(workload.seq_len, 1 << 14))
        # Anchor the grid on the largest feasible Q tile -- the best
        # value often sits between powers of two (e.g. 301 tokens on a
        # 16 MB buffer) and dominates the K/V and weight pass counts.
        anchor = max_feasible_q_tile(
            model,
            workload.seq_len,
            arch.buffer_words,
            m0=arch.array_2d.cols,
            rows=arch.array_2d.rows,
        )
        if anchor not in p_values:
            p_values = sorted(set(p_values) | {anchor})
        return {
            "b": _tile_candidates(workload.batch),
            "d": _tile_candidates(model.d_model, minimum=16),
            "m1": _tile_candidates(64),
            "p": p_values,
            "s": _tile_candidates(model.ffn_hidden, minimum=16),
        }

    def fixed_factors(
        self, arch: ArchitectureSpec
    ) -> Dict[str, int]:
        """The non-searched factors (set by the PE arrays)."""
        return {
            "m0": arch.array_2d.cols,
            "rows": arch.array_2d.rows,
        }

    def _config_from(
        self,
        assignment: Sequence[int],
        fixed: Dict[str, int],
    ) -> TilingConfig:
        values = dict(zip(FACTOR_ORDER, assignment))
        return TilingConfig(
            b=values["b"],
            d=values["d"],
            m1=values["m1"],
            m0=fixed["m0"],
            p=values["p"],
            s=values["s"],
            p_prime=intra_tile_p_prime(values["p"], fixed["rows"]),
        )

    @staticmethod
    def _minimal_point(
        grid: Dict[str, List[int]],
    ) -> Tuple[int, ...]:
        """The most conservative assignment the grid contains.

        The minimal-completion base of the feasibility prune (the
        Table-2 formulas are monotone in every factor).
        """
        return tuple(min(grid[name]) for name in FACTOR_ORDER)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        budget: Optional[int] = None,
    ) -> TileSeekResult:
        """Find the best feasible outer tiling for one fused layer.

        Args:
            workload: The problem instance.
            arch: Target architecture.
            budget: Deterministic unit budget (MCTS iterations) for
                this search; ``None`` defers to ``REPRO_BUDGET`` /
                ``REPRO_DEADLINE``.  A certified anchor spends none.
                On exhaustion the better of the MCTS incumbent and
                the exact optimum is returned with degraded
                provenance.

        Raises:
            InfeasiblePoint: When even the minimal configuration in
                the grid overflows the buffer -- by Table-2
                monotonicity nothing in the space fits, and the error
                carries the buffer-level diagnosis.
        """
        grid = self.candidate_grid(workload, arch)
        fixed = self.fixed_factors(arch)
        levels = [grid[name] for name in FACTOR_ORDER]
        limit = resolve_budget(budget)
        unit_budget = Budget(limit) if limit is not None else None
        minimal = self._minimal_point(grid)
        footprint = table2_footprint(
            workload.model, fixed["m0"], fixed["rows"]
        )
        capacity = arch.buffer_words
        # If even the minimal tile overflows the buffer, monotonicity
        # says nothing in the grid fits: diagnose instead of
        # searching.  The diagnosis compares the same Table-2 peak
        # with the capacity, so it is imported only for a point that
        # overflows.  Imported lazily -- diagnostics imports the
        # buffer model from this package, so a module-level import
        # would cycle through ``repro.resilience.__init__``.
        if footprint(*minimal) > capacity:
            from repro.resilience.diagnostics import (
                diagnose_infeasible,
            )

            diagnosis = diagnose_infeasible(
                workload.model,
                capacity,
                m0=fixed["m0"],
                rows=fixed["rows"],
                cfg=self._config_from(minimal, fixed),
            )
            # Imported lazily: the taxonomy lives in the runner layer,
            # which imports back into tileseek via serialization.
            from repro.runner.errors import InfeasiblePoint

            raise InfeasiblePoint(
                f"{workload.describe()} on {arch.name}",
                diagnosis.as_dict(),
            )
        viable = _prefix_oracle(levels, footprint, capacity)
        traffic = traffic_model(workload, capacity)
        # The exact grid optimum (DESIGN.md §10).  Traffic depends on
        # ``(b, p)`` only and, for a fixed ``b``, never rises with
        # ``p``; ``d``, ``m1`` and ``s`` only buy feasibility.  So the
        # optimum is the best point of the line "each feasible ``b``
        # with its largest feasible ``p`` and minimal companions".
        # The line's first point is the greedy anchor.
        d_min, m1_min, s_min = minimal[1], minimal[2], minimal[4]
        line = []
        for b in viable((), 0):
            p = viable((b, d_min, m1_min), 3)[-1]
            line.append((traffic(b, p)[0], (b, d_min, m1_min, p, s_min)))
        anchor_words = line[0][0]
        optimum, exact = min(line, key=lambda point: point[0])
        evaluate, rewards, optimal = _leaf_pricer(
            footprint, capacity, traffic, optimum
        )
        if anchor_words == optimum:
            # Certified: the anchor is optimal, so no search runs.
            stats = MCTSStats(
                iterations=0, evaluations=0, best_reward=-1.0,
                best_assignment=exact, tree_nodes=0,
            )
        else:
            stats = mcts_search(
                levels,
                evaluate,
                iterations=self.iterations,
                seed=self.seed,
                exploration=self.exploration,
                viable=viable,
                budget=unit_budget,
                stop=optimal.__contains__,
            )
        best_assignment = stats.best_assignment
        best_reward = stats.best_reward
        # The exact optimum challenges the MCTS incumbent; a strict
        # ``>`` keeps the MCTS answer where the two tie.  It is not
        # budget-charged.
        fresh = int(exact not in rewards)  # priced by a real call
        exact_reward = evaluate(exact)
        if exact_reward > best_reward:
            best_assignment = exact
            best_reward = exact_reward
        provenance = (
            PROVENANCE_BUDGET_EXHAUSTED if stats.exhausted
            else PROVENANCE_COMPLETE
        )
        config = self._config_from(best_assignment, fixed)
        return TileSeekResult(
            config=config,
            assessment=assess_tiling(config, workload, arch),
            stats=MCTSStats(
                iterations=stats.iterations,
                evaluations=stats.evaluations + fresh,
                best_reward=best_reward,
                best_assignment=best_assignment,
                tree_nodes=stats.tree_nodes,
                dead_ends=stats.dead_ends,
                exhausted=stats.exhausted,
            ),
            provenance=provenance,
        )

    def _reference_words(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        fixed: Dict[str, int],
        grid: Optional[Dict[str, List[int]]] = None,
    ) -> float:
        """Traffic of the minimal (most conservative) configuration,
        the reward scale of the baseline searchers.

        The minimal tile carries the most traffic, so the ratio
        rewards it yields are at least 1 on every feasible leaf and
        reach the thousands -- fine for a plain argmax, not for UCB1
        (:meth:`search` normalises against the exact optimum).

        Args:
            grid: The candidate grid, if the caller already built it
                (avoids recomputing :meth:`candidate_grid`).
        """
        if grid is None:
            grid = self.candidate_grid(workload, arch)
        minimal = self._config_from(self._minimal_point(grid), fixed)
        return assess_tiling(minimal, workload, arch).dram_words

"""The original scalar TileSeek search.

The differential reference for the production search
(:meth:`repro.tileseek.search.TileSeek.search` driving
:func:`repro.tileseek.mcts.mcts_search`): one candidate at a time
through :func:`assess_tiling`, a per-candidate ``prune`` predicate
instead of the per-prefix ``viable`` oracle, and no bisection.  It
carries the production search's exact-optimum certificate, reward
normalisation and exact incumbent, each computed its own way.  The
property suite, the CI oracle steps and
``benchmarks/bench_framework_perf.py`` assert the production path
returns identical :class:`TileSeekResult` bytes and
:class:`MCTSStats`.  No production path imports this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.spec import ArchitectureSpec
from repro.model.workload import Workload
from repro.resilience.budget import (
    PROVENANCE_BUDGET_EXHAUSTED,
    PROVENANCE_COMPLETE,
    Budget,
    resolve_budget,
)
from repro.tileseek.buffer_model import fused_buffer_requirement
from repro.tileseek.evaluate import (
    TilingAssessment,
    assess_tiling,
    reward_for,
)
from repro.tileseek.mcts import MCTSStats
from repro.tileseek.search import FACTOR_ORDER, TileSeekResult

Assignment = Tuple[int, ...]
Evaluate = Callable[[Assignment], float]
Prune = Callable[[Assignment], bool]
Stop = Callable[[Assignment], bool]


@dataclass
class _Node:
    """One search-tree node: a partial assignment prefix."""

    prefix: Assignment
    untried: List[int]
    children: Dict[int, "_Node"] = field(default_factory=dict)
    visits: int = 0
    total_reward: float = 0.0

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0

    def ucb_score(self, child: "_Node", c: float) -> float:
        """UCB1: exploitation plus exploration bonus."""
        if child.visits == 0:
            return float("inf")
        explore = math.sqrt(math.log(self.visits) / child.visits)
        return child.mean_reward + c * explore


def mcts_search(
    levels: Sequence[Sequence[int]],
    evaluate: Evaluate,
    iterations: int,
    seed: int = 0,
    exploration: float = 1.4,
    prune: Optional[Prune] = None,
    budget: Optional[Budget] = None,
    stop: Optional[Stop] = None,
) -> MCTSStats:
    """Run MCTS over a fixed-depth decision tree.

    Args:
        levels: Candidate values per decision level, in order.
        evaluate: Scores a *complete* assignment; 0 marks invalid.
        iterations: Selection/expansion/simulation/backprop rounds.
        seed: RNG seed (search is fully deterministic given it).
        exploration: UCB1 exploration constant.
        prune: Optional predicate on *partial* assignments; True means
            no completion can be feasible, so the child is never
            expanded.  A prefix under which *every* candidate at some
            level is pruned makes the iteration a dead-end: zero
            reward is backpropagated and the evaluator is not called.
        budget: Optional deterministic unit budget, charged one unit
            per iteration; exhaustion ends the search with its
            best-so-far result.
        stop: Optional predicate on each new best assignment; True
            ends the search after that iteration.

    Returns:
        Search statistics including the best complete assignment seen.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if any(len(values) == 0 for values in levels):
        raise ValueError("every level needs at least one candidate")
    rng = random.Random(seed)
    depth = len(levels)

    def viable_values(prefix: Assignment, level: int) -> List[int]:
        values = list(levels[level])
        if prune is not None:
            values = [v for v in values if not prune(prefix + (v,))]
        return values

    root = _Node(prefix=(), untried=viable_values((), 0))
    best_reward = -1.0
    best_assignment: Assignment = tuple(
        values[0] for values in levels
    )
    evaluations = 0
    dead_ends = 0
    node_count = 1
    performed = 0
    exhausted = False

    for _ in range(iterations):
        if budget is not None and not budget.charge():
            exhausted = True
            break
        performed += 1
        # Selection: descend while fully expanded and not a leaf.
        node = root
        path = [node]
        while (
            not node.untried
            and node.children
            and len(node.prefix) < depth
        ):
            node = max(
                node.children.values(),
                key=lambda ch: path[-1].ucb_score(ch, exploration),
            )
            path.append(node)
        # Expansion: materialize one untried child.
        if node.untried and len(node.prefix) < depth:
            value = node.untried.pop(
                rng.randrange(len(node.untried))
            )
            level = len(node.prefix) + 1
            child = _Node(
                prefix=node.prefix + (value,),
                untried=(
                    viable_values(node.prefix + (value,), level)
                    if level < depth
                    else []
                ),
            )
            node.children[value] = child
            node = child
            path.append(node)
            node_count += 1
        # Simulation: random rollout to a full assignment.  A level
        # with zero viable candidates is a dead-end: every completion
        # is provably infeasible, so back up zero reward and move on
        # rather than burning an evaluation on it.
        assignment = list(node.prefix)
        reward = 0.0
        dead_end = False
        for level in range(len(assignment), depth):
            choices = viable_values(tuple(assignment), level)
            if not choices:
                dead_end = True
                break
            assignment.append(rng.choice(choices))
        if dead_end:
            dead_ends += 1
        else:
            reward = evaluate(tuple(assignment))
            evaluations += 1
            if reward > best_reward:
                best_reward = reward
                best_assignment = tuple(assignment)
                if stop is not None and stop(best_assignment):
                    break
        # Backpropagation.
        for visited in path:
            visited.visits += 1
            visited.total_reward += reward

    return MCTSStats(
        iterations=performed,
        evaluations=evaluations,
        best_reward=best_reward,
        best_assignment=best_assignment,
        tree_nodes=node_count,
        dead_ends=dead_ends,
        exhausted=exhausted,
    )


def search_scalar(
    self,
    workload: Workload,
    arch: ArchitectureSpec,
    budget: Optional[int] = None,
) -> TileSeekResult:
    """The scalar evaluation path (the differential oracle).

    One candidate at a time through :func:`assess_tiling` and the
    per-candidate prune -- the original implementation, retained
    verbatim so :meth:`TileSeek.search` has a bit-for-bit reference.
    ``self`` is the :class:`TileSeek` whose grid, seed and iteration
    count are searched, so the function can be called as
    ``search_scalar(searcher, ...)`` or installed in place of
    ``TileSeek.search``.  See :meth:`TileSeek.search` for the
    contract.
    """
    grid = self.candidate_grid(workload, arch)
    fixed = self.fixed_factors(arch)
    levels = [grid[name] for name in FACTOR_ORDER]
    limit = resolve_budget(budget)
    unit_budget = Budget(limit) if limit is not None else None
    minimal = self._minimal_point(grid)
    # If even the minimal tile overflows the buffer, monotonicity
    # says nothing in the grid fits: diagnose instead of
    # searching.  Imported lazily -- diagnostics imports the
    # buffer model from this package, so a module-level import
    # would cycle through ``repro.resilience.__init__``.
    from repro.resilience.diagnostics import diagnose_infeasible

    diagnosis = diagnose_infeasible(
        workload.model,
        arch.buffer_words,
        m0=fixed["m0"],
        rows=fixed["rows"],
        cfg=self._config_from(minimal, fixed),
    )
    if diagnosis is not None:
        # Imported lazily: the taxonomy lives in the runner layer,
        # which imports back into tileseek via serialization.
        from repro.runner.errors import InfeasiblePoint

        raise InfeasiblePoint(
            f"{workload.describe()} on {arch.name}",
            diagnosis.as_dict(),
        )

    # Rollouts revisit the same prefixes constantly; the Table-2
    # completion check is pure, so memoize it per prefix.
    prune_cache: Dict[Tuple[int, ...], bool] = {}

    def prune(partial: Tuple[int, ...]) -> bool:
        # Lower-bound feasibility: complete the prefix with the
        # smallest remaining candidates; if even that overflows
        # the buffer, no completion is feasible (the Table-2
        # formulas are monotone in every factor).
        infeasible = prune_cache.get(partial)
        if infeasible is None:
            full = list(partial) + [
                min(grid[name])
                for name in FACTOR_ORDER[len(partial):]
            ]
            cfg = self._config_from(full, fixed)
            required = fused_buffer_requirement(
                cfg, workload.model
            )
            infeasible = required > arch.buffer_words
            prune_cache[partial] = infeasible
        return infeasible

    # Every configuration is assessed at most once.
    assessments: Dict[Tuple[int, ...], TilingAssessment] = {}

    def assessment_of(assignment: Tuple[int, ...]) -> TilingAssessment:
        assessment = assessments.get(assignment)
        if assessment is None:
            cfg = self._config_from(assignment, fixed)
            assessment = assess_tiling(cfg, workload, arch)
            assessments[assignment] = assessment
        return assessment

    # The exact grid optimum: for each unpruned ``b``, the largest
    # unpruned ``p`` with minimal companions, assessed one by one.
    # The first such point is the greedy anchor.
    d_min, m1_min, s_min = min(grid["d"]), min(grid["m1"]), min(grid["s"])
    line = []
    for b in grid["b"]:
        if prune((b,)):
            continue
        p = max(
            p for p in grid["p"] if not prune((b, d_min, m1_min, p))
        )
        assignment = (b, d_min, m1_min, p, s_min)
        line.append((assessment_of(assignment).dram_words, assignment))
    anchor_words = line[0][0]
    optimum, exact = min(line, key=lambda point: point[0])

    cache: Dict[Tuple[int, ...], float] = {}

    def evaluate(assignment: Tuple[int, ...]) -> float:
        reward = cache.get(assignment)
        if reward is None:
            reward = reward_for(
                assessment_of(assignment), optimum, self.reward_metric
            )
            cache[assignment] = reward
        return reward

    if anchor_words == optimum:
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
            prune=prune,
            budget=unit_budget,
            stop=lambda assignment: (
                assessments[assignment].dram_words == optimum
            ),
        )
    best_assignment = stats.best_assignment
    best_reward = stats.best_reward
    # The exact optimum (the search's own answer) challenges the MCTS
    # incumbent.
    fresh = 0 if exact in cache else 1  # priced by a real call
    exact_reward = evaluate(exact)
    if exact_reward > best_reward:
        best_assignment = exact
        best_reward = exact_reward
    if stats.exhausted:
        provenance = PROVENANCE_BUDGET_EXHAUSTED
    else:
        provenance = PROVENANCE_COMPLETE
    return TileSeekResult(
        config=self._config_from(best_assignment, fixed),
        assessment=assessments[best_assignment],
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

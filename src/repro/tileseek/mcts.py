"""Generic Monte Carlo Tree Search over ordered discrete decisions.

TileSeek's search tree (Section 5.1) assigns one outer tiling factor
per tree level; a root-to-leaf path is a complete configuration.  This
module implements the four MCTS phases generically:

* **Selection** -- UCB1 descent through fully expanded nodes,
* **Expansion** -- materialize one untried child,
* **Simulation** -- random rollout to a complete assignment, scored by
  the caller's evaluation function,
* **Backpropagation** -- reward statistics flow back up the path.

The evaluator returns a reward in ``[0, inf)`` (0 = invalid leaf), so
constraint validation is part of the reward signal as well as the
optional ``viable`` oracle that drops provably infeasible subtrees.

Two resilience behaviours (both deterministic):

* A level whose candidates are *all* pruned under the current prefix
  is a recorded **dead-end** -- the iteration backpropagates zero
  reward without calling the evaluator and the count is reported in
  :attr:`MCTSStats.dead_ends`.  (Historically this silently fell back
  to the unpruned candidate list, wasting an evaluation on a
  known-infeasible completion.)
* An optional :class:`~repro.resilience.budget.Budget` is charged one
  unit per iteration; on exhaustion the search stops and returns its
  best-so-far incumbent with :attr:`MCTSStats.exhausted` set -- the
  anytime contract.

An optional ``stop`` predicate ends the search early (not exhausted)
once a new best assignment is known to be optimal -- TileSeek passes
its exact-optimum certificate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.resilience.budget import Budget

Assignment = Tuple[int, ...]
Evaluate = Callable[[Assignment], float]
Viable = Callable[[Assignment, int], List[int]]
Stop = Callable[[Assignment], bool]


@dataclass(frozen=True)
class MCTSStats:
    """Search summary returned alongside the best assignment.

    Attributes:
        iterations: Rounds actually performed (less than requested
            when a budget ran out).
        evaluations: Evaluator calls (dead-end rollouts skip it).
        dead_ends: Iterations that hit a level with zero viable
            candidates under the current prefix.
        exhausted: Whether a budget stopped the search early.
    """

    iterations: int
    evaluations: int
    best_reward: float
    best_assignment: Assignment
    tree_nodes: int
    dead_ends: int = 0
    exhausted: bool = False


class _Node:
    """One search-tree node: a partial assignment prefix.

    Children are kept in expansion order, which is the order UCB1
    selection visits them in.
    """

    __slots__ = ("prefix", "untried", "visits", "total_reward",
                 "mean", "children")

    def __init__(self, prefix: Assignment, untried: List[int]) -> None:
        self.prefix = prefix
        self.untried = untried
        self.visits = 0
        self.total_reward = 0.0
        #: ``total_reward / visits``, refreshed on backpropagation:
        #: one division per path node instead of one per scored child.
        self.mean = 0.0
        self.children: List["_Node"] = []


def mcts_search(
    levels: Sequence[Sequence[int]],
    evaluate: Evaluate,
    iterations: int,
    seed: int = 0,
    exploration: float = 1.4,
    viable: Optional[Viable] = None,
    budget: Optional[Budget] = None,
    stop: Optional[Stop] = None,
) -> MCTSStats:
    """Run MCTS over a fixed-depth decision tree, one leaf per
    iteration.

    The random trajectory depends only on the seed and on list
    lengths: expansion draws ``randrange(len(untried))`` and rollouts
    draw ``choice(viable_list)``, so two ``viable`` oracles that
    return the same lists yield the same search, stat for stat.

    Args:
        levels: Candidate values per decision level, in order.
        evaluate: Scores a *complete* assignment; 0 marks invalid.
        iterations: Selection/expansion/simulation/backprop rounds.
        seed: RNG seed (search is fully deterministic given it).
        exploration: UCB1 exploration constant.
        viable: ``(prefix, level) -> values`` returning the level's
            candidates with a feasible completion under the prefix,
            in level order; ``None`` means no pruning.  The driver
            never mutates a returned list (a node copies the one it
            pops from), so the oracle may memoise them.  A
            prefix under which some level has *no* viable candidate
            makes the iteration a dead-end: zero reward is
            backpropagated and the evaluator is not called.
        budget: Optional deterministic unit budget, charged one unit
            per iteration; exhaustion ends the search with its
            best-so-far result.
        stop: Optional predicate on each new best assignment; True
            (the assignment is a proven optimum) ends the search
            there, as a completed (not exhausted) search.

    Returns:
        Search statistics including the best complete assignment seen.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if any(len(values) == 0 for values in levels):
        raise ValueError("every level needs at least one candidate")
    rng = random.Random(seed)
    randrange = rng.randrange
    choice = rng.choice
    log = math.log
    sqrt = math.sqrt
    depth = len(levels)
    if viable is None:
        def viable(prefix: Assignment, level: int) -> Sequence[int]:
            return levels[level]

    # Nodes pop their ``untried`` list, so it is the one copy taken of
    # a (possibly memoised) viable list; rollouts only read.
    root = _Node(prefix=(), untried=list(viable((), 0)))
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
            # UCB1: ``mean + c * sqrt(log(N) / n)`` term for term,
            # with ``log(N)`` computed once per selection and a strict
            # ``>`` keeping the first maximum, as Python's ``max``
            # does.  Every child was visited in the iteration that
            # expanded it, so ``n > 0``.
            log_n = log(node.visits)
            best = None
            best_score = 0.0
            for child in node.children:
                score = (
                    child.mean
                    + exploration * sqrt(log_n / child.visits)
                )
                if best is None or score > best_score:
                    best_score = score
                    best = child
            node = best
            path.append(node)
        # Expansion: materialize one untried child.
        if node.untried and len(node.prefix) < depth:
            untried = node.untried
            value = untried.pop(randrange(len(untried)))
            prefix = node.prefix + (value,)
            level = len(prefix)
            child = _Node(
                prefix=prefix,
                untried=(
                    list(viable(prefix, level))
                    if level < depth
                    else []
                ),
            )
            node.children.append(child)
            node = child
            path.append(node)
            node_count += 1
        # Simulation: random rollout to a full assignment.  A level
        # with zero viable candidates is a dead-end: every completion
        # is provably infeasible, so back up zero reward and move on
        # rather than burning an evaluation on it.
        assignment = node.prefix
        reward = 0.0
        dead_end = False
        for level in range(len(assignment), depth):
            choices = viable(assignment, level)
            if not choices:
                dead_end = True
                break
            assignment += (choice(choices),)
        if dead_end:
            dead_ends += 1
        else:
            reward = evaluate(assignment)
            evaluations += 1
            if reward > best_reward:
                best_reward = reward
                best_assignment = assignment
                if stop is not None and stop(assignment):
                    break
        # Backpropagation.
        for visited in path:
            visited.visits += 1
            visited.total_reward += reward
            visited.mean = visited.total_reward / visited.visits

    return MCTSStats(
        iterations=performed,
        evaluations=evaluations,
        best_reward=best_reward,
        best_assignment=best_assignment,
        tree_nodes=node_count,
        dead_ends=dead_ends,
        exhausted=exhausted,
    )

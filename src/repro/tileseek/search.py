"""The TileSeek search driver.

Binds the generic MCTS to the tiling problem: candidate grids for the
``[B, D, M1, P, S]`` factors, Table-2 feasibility pruning, the
analytical reward, and a memoized evaluation cache (MCTS revisits
leaves; Timeloop-style evaluation is the expensive step in the paper).

Two interchangeable evaluation paths drive the same search:

* the **batched** default, which drives the frontier-batched MCTS
  and prunes each prefix once per candidate level with a hoisted
  exact-integer Table-2 footprint, in plain Python, and
* the **scalar oracle** (``REPRO_SCALAR_EVAL=1`` or
  ``search(..., scalar=True)``), the original one-candidate-at-a-time
  path, kept verbatim as the differential reference.

The two are byte-identical by contract -- same
:class:`TileSeekResult` (config, assessment, stats, provenance) for
every input -- which the property suite asserts; see DESIGN.md §10
for the exactness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.spec import ArchitectureSpec
from repro.model.workload import Workload
from repro.resilience.budget import (
    PROVENANCE_BUDGET_EXHAUSTED,
    PROVENANCE_COMPLETE,
    Budget,
    fallback_provenance,
    resolve_budget,
)
from repro.resilience.ladder import classify_rung
from repro.settings import env_bool
from repro.tileseek.buffer_model import (
    TilingConfig,
    fused_buffer_requirement,
    intra_tile_p_prime,
    max_feasible_q_tile,
    table2_footprint,
)
from repro.tileseek.evaluate import (
    TilingAssessment,
    assess_tiling,
    reward_for,
)
from repro.tileseek.mcts import (
    MCTSStats,
    mcts_search,
    mcts_search_batched,
)

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


@dataclass(frozen=True)
class TileSeekResult:
    """Outcome of one TileSeek search.

    ``provenance`` labels how the winning config was obtained:
    ``complete`` (full search), ``budget_exhausted`` (anytime MCTS
    incumbent under a spent budget) or ``fallback:<rung>`` (a
    degradation-ladder rung supplied the result; see
    :mod:`repro.resilience.ladder`).
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
        iterations: MCTS rounds (each runs one leaf evaluation).
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

        Doubles as the reward-normalization reference and the
        minimal-completion base of the feasibility prune (the Table-2
        formulas are monotone in every factor).
        """
        return tuple(min(grid[name]) for name in FACTOR_ORDER)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        warm_start: Sequence[Sequence[int]] = (),
        budget: Optional[int] = None,
        allow_fallback: Optional[bool] = None,
        scalar: Optional[bool] = None,
        learned: Sequence[Sequence[int]] = (),
    ) -> TileSeekResult:
        """Find the best feasible outer tiling for one fused layer.

        Args:
            workload: The problem instance.
            arch: Target architecture.
            warm_start: Optional known-good assignments (in
                :data:`FACTOR_ORDER`), typically the best assignment
                of an adjacent search (same model/architecture,
                neighboring sequence length).  Each is evaluated as an
                additional incumbent: the returned config is never
                worse than any warm start, and the MCTS tree itself is
                untouched, so results stay deterministic.
            budget: Deterministic unit budget (MCTS iterations) for
                this search; ``None`` defers to ``REPRO_BUDGET`` /
                ``REPRO_DEADLINE``.  On exhaustion the best-so-far
                result is returned with degraded provenance.
            allow_fallback: Whether the degradation ladder may supply
                the result when the budgeted search yields nothing
                better; ``None`` defers to ``REPRO_NO_FALLBACK``.
            scalar: Force the scalar differential oracle (``True``) or
                the batched path (``False``); ``None`` defers to
                ``REPRO_SCALAR_EVAL`` (batched by default).  Both
                return byte-identical results.
            learned: Optional predicted assignments (in
                :data:`FACTOR_ORDER`) from the fitted corpus model
                (:mod:`repro.learn`).  Treated exactly like warm
                starts -- extra incumbents, never budget-charged --
                but classified on their own ``learned`` ladder rung
                when one supplies a budget-exhausted result.  Empty
                (the default) leaves every byte of the search output
                unchanged.

        Raises:
            InfeasiblePoint: When even the minimal configuration in
                the grid overflows the buffer -- by Table-2
                monotonicity nothing in the space fits, and the error
                carries the buffer-level diagnosis.
            RuntimeError: When the result would be a fallback rung and
                fallback is disabled.
        """
        if scalar is None:
            scalar = env_bool("REPRO_SCALAR_EVAL", default=False)
        if scalar:
            return self.search_scalar(
                workload, arch, warm_start=warm_start,
                budget=budget, allow_fallback=allow_fallback,
                learned=learned,
            )
        return self._search_batched(
            workload, arch, warm_start=warm_start,
            budget=budget, allow_fallback=allow_fallback,
            learned=learned,
        )

    def search_scalar(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        warm_start: Sequence[Sequence[int]] = (),
        budget: Optional[int] = None,
        allow_fallback: Optional[bool] = None,
        learned: Sequence[Sequence[int]] = (),
    ) -> TileSeekResult:
        """The scalar evaluation path (the differential oracle).

        One candidate at a time through :func:`assess_tiling` and the
        per-candidate prune -- the original implementation, retained
        verbatim so the batched path has a bit-for-bit reference.  See
        :meth:`search` for the contract.
        """
        grid = self.candidate_grid(workload, arch)
        fixed = self.fixed_factors(arch)
        levels = [grid[name] for name in FACTOR_ORDER]
        warm = self._validated_assignments(warm_start)
        predicted = self._validated_assignments(learned)
        if allow_fallback is None:
            from repro.resilience.budget import fallback_enabled

            allow_fallback = fallback_enabled()
        limit = resolve_budget(budget)
        unit_budget = Budget(limit) if limit is not None else None
        # The minimal (most conservative) assignment doubles as the
        # reward-normalization reference; seed the evaluation cache
        # with its assessment so it is never priced twice.
        minimal = self._minimal_point(grid)
        minimal_cfg = self._config_from(minimal, fixed)
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
            cfg=minimal_cfg,
        )
        if diagnosis is not None:
            # Imported lazily: the taxonomy lives in the runner layer,
            # which imports back into tileseek via serialization.
            from repro.runner.errors import InfeasiblePoint

            raise InfeasiblePoint(
                f"{workload.describe()} on {arch.name}",
                diagnosis.as_dict(),
            )
        reference_assessment = assess_tiling(
            minimal_cfg, workload, arch
        )
        reference = reference_assessment.dram_words
        cache: Dict[
            Tuple[int, ...], Tuple[float, TilingAssessment]
        ] = {
            minimal: (
                reward_for(
                    reference_assessment, reference,
                    self.reward_metric,
                ),
                reference_assessment,
            )
        }

        def evaluate(assignment: Tuple[int, ...]) -> float:
            entry = cache.get(assignment)
            if entry is None:
                cfg = self._config_from(assignment, fixed)
                assessment = assess_tiling(cfg, workload, arch)
                entry = (
                    reward_for(
                        assessment, reference, self.reward_metric
                    ),
                    assessment,
                )
                cache[assignment] = entry
            return entry[0]

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

        stats = mcts_search(
            levels,
            evaluate,
            iterations=self.iterations,
            seed=self.seed,
            exploration=self.exploration,
            prune=prune,
            budget=unit_budget,
        )
        best_assignment = stats.best_assignment
        best_reward = stats.best_reward
        # Greedy incumbent: the anchor line (maximal feasible p with
        # minimal companions) is a strong known-good starting point;
        # never return anything worse than it.  Warm starts from
        # adjacent searches and learned predictions join the same
        # incumbent pool.  When a budget cut the MCTS short, these
        # candidates double as the degradation ladder (anchor =
        # ``heuristic`` rung, warm starts = ``warm_start``,
        # predictions = ``learned``); they are deterministic, never
        # budget-charged, and feasible by construction/validation.
        anchor_p = max(
            (p for p in grid["p"] if not prune(
                (min(grid["b"]), min(grid["d"]), min(grid["m1"]), p)
            )),
            default=min(grid["p"]),
        )
        incumbent = (
            min(grid["b"]), min(grid["d"]), min(grid["m1"]),
            anchor_p, min(grid["s"]),
        )
        winner_index = -1  # the MCTS incumbent
        fresh = 0  # incumbents priced by a real evaluator call
        for index, candidate in enumerate(
            (incumbent,) + warm + predicted
        ):
            if candidate not in cache:
                fresh += 1
            candidate_reward = evaluate(candidate)
            if candidate_reward > best_reward:
                best_assignment = candidate
                best_reward = candidate_reward
                winner_index = index
        if not stats.exhausted:
            provenance = PROVENANCE_COMPLETE
        elif winner_index < 0:
            provenance = PROVENANCE_BUDGET_EXHAUSTED
        else:
            provenance = fallback_provenance(classify_rung(
                winner_index,
                n_warm=len(warm),
                anchor_is_minimal=anchor_p == min(grid["p"]),
                n_learned=len(predicted),
            ))
            if not allow_fallback:
                raise RuntimeError(
                    f"search for {workload.describe()} on "
                    f"{arch.name} degraded to {provenance} and "
                    f"fallback is disabled (REPRO_NO_FALLBACK)"
                )
        # The winner was priced through the cache -- reuse its
        # assessment instead of re-running the simulation step.
        assessment = cache[best_assignment][1]
        config = self._config_from(best_assignment, fixed)
        return TileSeekResult(
            config=config,
            assessment=assessment,
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

    def _search_batched(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        warm_start: Sequence[Sequence[int]] = (),
        budget: Optional[int] = None,
        allow_fallback: Optional[bool] = None,
        learned: Sequence[Sequence[int]] = (),
    ) -> TileSeekResult:
        """The production evaluation path (the default).

        Mirrors :meth:`search_scalar` decision for decision -- same
        grid, RNG trajectory, budget charging, caching and provenance
        -- but drives the frontier-batched MCTS: rollout frontiers are
        priced in one call each, and the feasibility prune runs once
        per unique prefix over a whole candidate level, with the
        Table-2 constants hoisted and an early exit at the first
        overflowing value.  Every candidate is priced by
        :func:`assess_tiling` itself, so results are the scalar
        oracle's bits by construction.
        """
        grid = self.candidate_grid(workload, arch)
        fixed = self.fixed_factors(arch)
        levels = [grid[name] for name in FACTOR_ORDER]
        warm = self._validated_assignments(warm_start)
        predicted = self._validated_assignments(learned)
        if allow_fallback is None:
            from repro.resilience.budget import fallback_enabled

            allow_fallback = fallback_enabled()
        limit = resolve_budget(budget)
        unit_budget = Budget(limit) if limit is not None else None
        minimal = self._minimal_point(grid)
        minimal_cfg = self._config_from(minimal, fixed)
        # Lazy imports: same cycle constraints as the scalar path.
        from repro.resilience.diagnostics import diagnose_infeasible

        diagnosis = diagnose_infeasible(
            workload.model,
            arch.buffer_words,
            m0=fixed["m0"],
            rows=fixed["rows"],
            cfg=minimal_cfg,
        )
        if diagnosis is not None:
            from repro.runner.errors import InfeasiblePoint

            raise InfeasiblePoint(
                f"{workload.describe()} on {arch.name}",
                diagnosis.as_dict(),
            )
        reference_assessment = assess_tiling(
            minimal_cfg, workload, arch
        )
        reference = reference_assessment.dram_words
        cache: Dict[
            Tuple[int, ...], Tuple[float, TilingAssessment]
        ] = {
            minimal: (
                reward_for(
                    reference_assessment, reference,
                    self.reward_metric,
                ),
                reference_assessment,
            )
        }

        def evaluate_batch(
            assignments: Sequence[Tuple[int, ...]],
        ) -> List[float]:
            # Equivalent to calling the scalar ``evaluate`` closure
            # sequentially: duplicates within a batch hit the first
            # occurrence's cached entry.
            for assignment in assignments:
                if assignment not in cache:
                    cfg = self._config_from(assignment, fixed)
                    assessment = assess_tiling(cfg, workload, arch)
                    cache[assignment] = (
                        reward_for(
                            assessment, reference,
                            self.reward_metric,
                        ),
                        assessment,
                    )
            return [cache[a][0] for a in assignments]

        # The minimal-completion prune, once per unique prefix over
        # the whole candidate level.  Levels ascend and Table 2 is
        # monotone in every factor, so the first overflowing value
        # ends the walk: every larger value overflows too, and the
        # kept values are exactly those the scalar prune keeps.
        footprint = table2_footprint(
            workload.model, fixed["m0"], fixed["rows"]
        )
        capacity = arch.buffer_words
        viable_cache: Dict[Tuple[int, ...], List[int]] = {}

        def viable(
            prefix: Tuple[int, ...], level: int
        ) -> List[int]:
            values = viable_cache.get(prefix)
            if values is None:
                tail = minimal[level + 1:]
                values = []
                for value in levels[level]:
                    if footprint(*prefix, value, *tail) > capacity:
                        break
                    values.append(value)
                viable_cache[prefix] = values
            return values

        stats = mcts_search_batched(
            levels,
            evaluate_batch,
            iterations=self.iterations,
            seed=self.seed,
            exploration=self.exploration,
            viable=viable,
            budget=unit_budget,
        )
        best_assignment = stats.best_assignment
        best_reward = stats.best_reward
        # Greedy incumbent pool (anchor line + warm starts), priced
        # in one call; the fold mirrors the scalar loop in order.
        anchor_p = max(
            viable((minimal[0], minimal[1], minimal[2]), 3),
            default=minimal[3],
        )
        incumbent = (
            minimal[0], minimal[1], minimal[2], anchor_p, minimal[4],
        )
        pool = (incumbent,) + warm + predicted
        fresh = 0  # incumbents priced by a real evaluator call
        seen = set()
        for candidate in pool:
            if candidate not in cache and candidate not in seen:
                seen.add(candidate)
                fresh += 1
        pool_rewards = evaluate_batch(pool)
        winner_index = -1  # the MCTS incumbent
        for index, candidate in enumerate(pool):
            candidate_reward = pool_rewards[index]
            if candidate_reward > best_reward:
                best_assignment = candidate
                best_reward = candidate_reward
                winner_index = index
        if not stats.exhausted:
            provenance = PROVENANCE_COMPLETE
        elif winner_index < 0:
            provenance = PROVENANCE_BUDGET_EXHAUSTED
        else:
            provenance = fallback_provenance(classify_rung(
                winner_index,
                n_warm=len(warm),
                anchor_is_minimal=anchor_p == minimal[3],
                n_learned=len(predicted),
            ))
            if not allow_fallback:
                raise RuntimeError(
                    f"search for {workload.describe()} on "
                    f"{arch.name} degraded to {provenance} and "
                    f"fallback is disabled (REPRO_NO_FALLBACK)"
                )
        assessment = cache[best_assignment][1]
        config = self._config_from(best_assignment, fixed)
        return TileSeekResult(
            config=config,
            assessment=assessment,
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

    @staticmethod
    def _validated_assignments(
        assignments: Sequence[Sequence[int]],
    ) -> Tuple[Tuple[int, ...], ...]:
        """Normalize warm-start/learned assignments, rejecting
        malformed ones."""
        validated = []
        for raw in assignments:
            assignment = tuple(int(v) for v in raw)
            if len(assignment) != len(FACTOR_ORDER):
                raise ValueError(
                    f"candidate assignment {assignment} must have "
                    f"{len(FACTOR_ORDER)} factors ({FACTOR_ORDER})"
                )
            if any(v <= 0 for v in assignment):
                raise ValueError(
                    f"candidate factors must be positive: "
                    f"{assignment}"
                )
            validated.append(assignment)
        return tuple(validated)

    def _reference_words(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        fixed: Dict[str, int],
        grid: Optional[Dict[str, List[int]]] = None,
    ) -> float:
        """Traffic of the minimal (most conservative) configuration,
        used to normalize rewards to O(1).

        Args:
            grid: The candidate grid, if the caller already built it
                (avoids recomputing :meth:`candidate_grid`).
        """
        if grid is None:
            grid = self.candidate_grid(workload, arch)
        minimal = self._config_from(self._minimal_point(grid), fixed)
        return assess_tiling(minimal, workload, arch).dram_words

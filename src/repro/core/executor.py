"""The TransFusion executor.

Combines all three mechanisms on top of the shared cost model:

* **Inter-layer fusion** -- the DRAM traffic of every phase comes from
  the TileSeek assessment of the fused dataflow (input, streamed
  weights, K/V spill/reload, output); no intermediate activation ever
  leaves the chip.
* **DPipe** -- every sub-layer's compute schedule comes from the
  bipartition + topological-order + DP search of Section 4, which also
  decides per-op PE-array placement.
* **TileSeek** -- the outer tiling factors minimizing DRAM energy
  under the Table-2 buffer constraints.

TileSeek results are memoized per (model, sequence, batch,
architecture): the search is deterministic, and the evaluation sweeps
revisit the same workloads many times.  DPipe planning is memoized one
level below, inside :mod:`repro.dpipe.planner`: the ``n_epochs``-free
schedule kernel of each (cascade, layer, tile, arch, options) point is
cached in-process and persistently (plan-cache kind
``"dpipe-kernel"``), so every executor instance -- and every sweep
worker sharing the cache directory -- pays each layer's
branch-and-bound search at most once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.pe import PEArrayKind
from repro.arch.spec import ArchitectureSpec
from repro.baselines.base import ExecutorBase, SUBLAYERS
from repro.dpipe.planner import DPipeOptions, DPipePlan, plan_cascade
from repro.model.workload import Workload
from repro.resilience.budget import resolve_budget, worst_provenance
from repro.sim.stats import PhaseStats
from repro.model.config import ModelConfig
from repro.tileseek.evaluate import dram_traffic_words
from repro.tileseek.search import TileSeek, TileSeekResult
from repro.validate.config import validation_enabled

# The ModelConfig and the ArchitectureSpec themselves key the cache
# (frozen dataclasses): two models or two architectures with the same
# *name* but different contents must not share tilings.  A budgeted
# search is a different search from an unbudgeted one (the trailing
# element).
_TilingKey = Tuple[
    ModelConfig, int, int, int, bool, ArchitectureSpec, int, int,
    Optional[int],
]
_TILING_CACHE: Dict[_TilingKey, TileSeekResult] = {}


class TransFusionExecutor(ExecutorBase):
    """End-to-end fused, DPipe-pipelined, TileSeek-tiled execution.

    Args:
        dpipe_options: Search budget / ablation switches for DPipe.
        tileseek_iterations: MCTS rounds per tiling search.
        seed: Seed for the (deterministic) tiling search.
    """

    name = "transfusion"

    def __init__(
        self,
        dpipe_options: DPipeOptions = DPipeOptions(),
        tileseek_iterations: int = 400,
        seed: int = 0,
    ) -> None:
        self.dpipe_options = dpipe_options
        self.tileseek_iterations = tileseek_iterations
        self.seed = seed

    # ------------------------------------------------------------------
    # TileSeek integration
    # ------------------------------------------------------------------
    def tiling(
        self, workload: Workload, arch: ArchitectureSpec
    ) -> TileSeekResult:
        """The (memoized) TileSeek result for this workload.

        Memoized twice over: in-process (repeated sweeps in one
        process) and on disk via :mod:`repro.runner.cache` (repeated
        sweeps across processes -- every ``reproduce_all`` benchmark
        subprocess would otherwise redo the MCTS).
        """
        def audited(result: TileSeekResult) -> TileSeekResult:
            if validation_enabled():
                from repro.validate.tiling import audit_tiling

                audit_tiling(
                    result.config, result.assessment, workload, arch
                ).raise_if_failed()
            return result

        budget = resolve_budget()
        key: _TilingKey = (
            workload.model,
            workload.seq_len,
            workload.batch,
            workload.kv_len,
            workload.causal,
            arch,
            self.tileseek_iterations,
            self.seed,
            budget,
        )
        if key in _TILING_CACHE:
            return audited(_TILING_CACHE[key])
        # Imported lazily: repro.core.__init__ imports this module, so
        # a module-level import of repro.runner would be circular.
        from repro.core.serialize import (
            tileseek_result_from_dict,
            tileseek_result_to_dict,
        )
        from repro.runner.cache import (
            arch_fingerprint,
            code_salt,
            default_cache,
            stable_hash,
            workload_fingerprint,
        )

        cache = default_cache()
        payload = disk_key = None
        if cache is not None:
            payload = {
                "kind": "tileseek",
                "salt": code_salt(),
                "workload": workload_fingerprint(workload),
                "arch": arch_fingerprint(arch),
                "iterations": self.tileseek_iterations,
                "seed": self.seed,
            }
            # Conditional key: a budgeted search is a different
            # artifact from the unbudgeted one.
            if budget is not None:
                payload["budget"] = budget
            disk_key = stable_hash(payload)
            document = cache.get("tileseek", disk_key)
            if document is not None:
                result = tileseek_result_from_dict(document)
                _TILING_CACHE[key] = result
                return audited(result)
        searcher = TileSeek(
            iterations=self.tileseek_iterations, seed=self.seed
        )
        result = searcher.search(workload, arch, budget=budget)
        if cache is not None:
            cache.put(
                "tileseek", disk_key,
                tileseek_result_to_dict(result), payload,
            )
        _TILING_CACHE[key] = result
        return audited(result)

    # ------------------------------------------------------------------
    # DPipe integration
    # ------------------------------------------------------------------
    def layer_plan(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        layer: str,
    ) -> DPipePlan:
        """DPipe plan for one sub-layer."""
        cascade = self.cascades(
            workload.model, masked=workload.causal
        )[layer]
        tile = self.inner_tile(workload, layer, arch)
        n_epochs = self.epoch_count(workload, layer, tile)
        return plan_cascade(
            cascade, layer, tile, arch, n_epochs, self.dpipe_options
        )

    def _phase_from_plan(
        self,
        workload: Workload,
        arch: ArchitectureSpec,
        layer: str,
        plan: DPipePlan,
    ) -> PhaseStats:
        phase = PhaseStats(
            name=layer,
            compute_seconds=plan.total_seconds,
            busy_seconds=dict(plan.busy_seconds),
            ops_2d=plan.load_split[PEArrayKind.ARRAY_2D],
            ops_1d=plan.load_split[PEArrayKind.ARRAY_1D],
            overlap_dram=True,
        )
        cascade = self.cascades(
            workload.model, masked=workload.causal
        )[layer]
        tile = self.inner_tile(workload, layer, arch)
        self.add_access_counts(
            phase, cascade, tile, plan.n_epochs, register_retention=True
        )
        return phase

    # ------------------------------------------------------------------
    # Phase construction
    # ------------------------------------------------------------------
    def build_phases(
        self, workload: Workload, arch: ArchitectureSpec
    ) -> List[PhaseStats]:
        tiling = self.tiling(workload, arch)
        traffic = dram_traffic_words(
            tiling.config, workload, arch.buffer_words
        )
        # Aggregate the worst search outcome across the tiling search
        # and every sub-layer's schedule searches; ExecutorBase.run
        # stamps it onto the report.
        provenance = tiling.provenance
        phases: List[PhaseStats] = []
        for layer in SUBLAYERS:
            plan = self.layer_plan(workload, arch, layer)
            provenance = worst_provenance(
                provenance, plan.provenance
            )
            phase = self._phase_from_plan(workload, arch, layer, plan)
            if layer == "qkv":
                phase.dram_words = (
                    workload.activation_words
                    + traffic["qkv_weight_words"]
                )
            elif layer == "mha":
                if workload.causal:
                    # Causal mask: half the live score work.
                    phase = phase.scaled(
                        workload.attention_work_fraction
                    )
                phase.dram_words = traffic["kv_words"]
            elif layer == "layernorm":
                phase.dram_words = 0.0
                phase = phase.scaled(2.0)
            elif layer == "ffn":
                phase.dram_words = (
                    traffic["ffn_weight_words"]
                    + workload.activation_words
                )
            phases.append(phase)
        self._run_provenance = provenance
        return phases

"""DPipe search options, importable without the planner.

The options are part of the TransFusion executor's report cache key
(:func:`repro.baselines.registry.executor_params`), so they live apart
from :mod:`repro.dpipe.planner` and its numpy-backed dependencies: a
disk-cache hit can build the key without loading the planner.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DPipeOptions:
    """Search-budget knobs for the planner.

    Attributes:
        max_bipartitions: Cap on bipartitions evaluated per layer.
        max_orders: Cap on topological orders DP-evaluated per window.
        enable_pipelining: If False, only the single-epoch DP runs
            (used by the DPipe ablation benchmark).
        enable_dp_assignment: If False, ops are pinned to their natural
            array (GEMMs on 2D, vector on 1D) instead of Eq. 45's
            min-completion choice (second ablation axis).
        objective: What candidate schedules compete on --
            ``"latency"`` (the paper's), ``"energy"`` (compute energy
            of the load split; offloading vector work to the 2D array
            costs more pJ/op), or ``"edp"`` (energy-delay product).
    """

    max_bipartitions: int = 32
    max_orders: int = 48
    enable_pipelining: bool = True
    enable_dp_assignment: bool = True
    objective: str = "latency"

    def __post_init__(self) -> None:
        if self.max_bipartitions <= 0 or self.max_orders <= 0:
            raise ValueError("search caps must be positive")
        if self.objective not in ("latency", "energy", "edp"):
            raise ValueError(
                f"unknown objective {self.objective!r}"
            )

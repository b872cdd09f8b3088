"""TileSeek: MCTS-based outer-tiling search (Section 5).

TileSeek chooses the *outer* tiling factors ``[B, D, M1, P, S]`` that
govern off-chip <-> on-chip data movement for the fully fused layer.
Candidate configurations are validated against the Table-2 per-module
buffer model; feasible leaves are scored by the analytical simulator
(DRAM energy or latency) and the scores drive UCB-guided Monte Carlo
Tree Search.

The search prices candidates in exact Python integers and imports no
NumPy.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.tileseek.buffer_model": (
        "TilingConfig", "fused_buffer_requirement",
        "layer_buffer_requirement",
    ),
    "repro.tileseek.evaluate": ("TilingAssessment", "assess_tiling"),
    "repro.tileseek.mcts": ("MCTSStats", "mcts_search"),
    "repro.tileseek.search": ("TileSeek", "TileSeekResult"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

"""TileSeek: MCTS-based outer-tiling search (Section 5).

TileSeek chooses the *outer* tiling factors ``[B, D, M1, P, S]`` that
govern off-chip <-> on-chip data movement for the fully fused layer.
Candidate configurations are validated against the Table-2 per-module
buffer model; feasible leaves are scored by the analytical simulator
(DRAM energy or latency) and the scores drive UCB-guided Monte Carlo
Tree Search.

The production search prices candidates in exact Python integers and
imports no NumPy.  :class:`BatchedTilingEvaluator`'s vectorized array
math stays available for bulk pricing, bitwise equal to the scalar
path (the ``REPRO_SCALAR_EVAL`` differential oracle).
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.tileseek.batched": (
        "BatchedAssessment", "BatchedTilingEvaluator",
        "exactly_priceable", "table2_module_words",
    ),
    "repro.tileseek.buffer_model": (
        "TilingConfig", "fused_buffer_requirement",
        "layer_buffer_requirement",
    ),
    "repro.tileseek.evaluate": ("TilingAssessment", "assess_tiling"),
    "repro.tileseek.mcts": (
        "MCTSStats", "mcts_search", "mcts_search_batched",
    ),
    "repro.tileseek.search": ("TileSeek", "TileSeekResult"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

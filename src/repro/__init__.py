"""TransFusion reproduction: end-to-end Transformer acceleration.

This package reproduces the MICRO 2025 paper *TransFusion: End-to-End
Transformer Acceleration via Graph Fusion and Pipelining* (Zhang, Amaral,
Niu).  It provides:

* :mod:`repro.einsum` -- an Extended-Einsum IR with cascades and a NumPy
  evaluator (Cascades 1-4 of the paper).
* :mod:`repro.graph` -- computation DAGs, bipartition enumeration and
  topological-order enumeration used by DPipe.
* :mod:`repro.arch` -- parametric cloud/edge spatial-accelerator models
  (Table 3 of the paper).
* :mod:`repro.sim` -- an analytical Timeloop/Accelergy-like latency and
  energy model (Eq. 40-42).
* :mod:`repro.dpipe` -- the DPipe DAG-pipelining DP scheduler (Eq. 43-46).
* :mod:`repro.tileseek` -- the TileSeek MCTS outer-tiling search with the
  Table-2 buffer model.
* :mod:`repro.baselines` -- Unfused, FLAT, FuseMax and FuseMax+LayerFuse
  executors.
* :mod:`repro.core` -- the TransFusion executor and public entry points.
* :mod:`repro.metrics`, :mod:`repro.experiments` -- evaluation metrics and
  per-figure experiment generators.
"""

from repro._exports import export_names, lazy_exports

# Every export resolves on first access: ``repro.core`` pulls in every
# subsystem (scheduler, search, cost model), and even the architecture
# and model presets are more than a disk-cache hit needs.
_EXPORTS = {
    "repro.arch.spec": (
        "ArchitectureSpec", "cloud_architecture", "edge_architecture",
    ),
    "repro.core.framework": ("TransFusion", "compare_executors"),
    "repro.model.config": ("ModelConfig", "named_model"),
    "repro.model.workload": ("Workload",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

"""Transformer model shape configurations and workloads.

Scheduling cost depends only on tensor shapes, so models are described
by their dimensions: hidden size ``d``, heads ``h``, per-head embedding
``e = f``, FFN hidden ``s`` and layer count.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.model.config": ("MODEL_ZOO", "ModelConfig", "named_model"),
    "repro.model.workload": ("Workload",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

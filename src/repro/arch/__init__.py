"""Parametric spatial-accelerator architecture models.

Implements the cloud/edge architecture template of Figure 1 and
Table 3: off-chip DRAM, a shared on-chip global buffer, and two compute
arrays -- a 2D PE array for matrix-dense work and a 1D PE array for
streaming/vector work.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.arch.energy": ("EnergyModel",),
    "repro.arch.memory": ("MemoryLevel",),
    "repro.arch.pe": ("PEArray", "PEArrayKind"),
    "repro.arch.spec": (
        "ArchitectureSpec", "cloud_architecture", "edge_architecture",
        "named_architecture",
    ),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

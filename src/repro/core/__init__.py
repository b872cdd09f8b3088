"""TransFusion core: the end-to-end fused executor and public API.

Combines the three contributions:

* inter-layer fusion (Section 3.2) -- activations propagate on chip;
  only weights, the K/V spill and the layer boundary touch DRAM,
* intra-layer pipelining via DPipe (Section 4), and
* outer tiling via TileSeek (Section 5).
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.core.executor": ("TransFusionExecutor",),
    "repro.core.framework": ("TransFusion", "compare_executors"),
    "repro.core.interlayer": ("InterLayerPlan", "build_interlayer_plan"),
    "repro.core.plan": ("CompiledLayer", "CompiledPlan"),
    "repro.core.stack": ("StackConfig", "StackEstimate", "estimate_stack"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

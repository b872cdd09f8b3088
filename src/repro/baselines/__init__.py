"""Executors: TransFusion and the Section 6.1 baselines.

All executors share one cost model (:mod:`repro.sim`); they differ only
in *dataflow* -- fusion scope (which intermediates hit DRAM), schedule
(serialized vs statically pipelined vs DPipe) and tiling policy
(heuristic vs TileSeek).  That mirrors the paper's methodology, where
every design is evaluated with the same Timeloop/Accelergy setup.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.baselines.base": ("ExecutorBase", "SUBLAYERS"),
    "repro.baselines.flat": ("FlatExecutor",),
    "repro.baselines.fusemax": ("FuseMaxExecutor",),
    "repro.baselines.fusemax_layerfuse": ("FuseMaxLayerFuseExecutor",),
    "repro.baselines.registry": ("EXECUTORS", "named_executor"),
    "repro.baselines.unfused": ("UnfusedExecutor",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

"""Computation DAGs over Einsum cascades.

DPipe (Section 4) models each fused layer as an operation-level DAG,
partitions it into two weakly connected subgraphs under four validity
constraints, and enumerates topological orderings of the pipelined
(epoch-interleaved) graph.  This package implements those graph
mechanics; the scheduling cost model lives in :mod:`repro.dpipe`.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.graph.dag": ("ComputationDAG",),
    "repro.graph.partition": ("Bipartition", "enumerate_bipartitions"),
    "repro.graph.toposort": ("all_topological_orders",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

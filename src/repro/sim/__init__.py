"""Analytical latency/energy simulator (Timeloop + Accelergy substitute).

The paper evaluates every Einsum in isolation with Timeloop (latency)
and Accelergy (energy) and composes the results with overlap heuristics
(Section 6.1).  This package provides the same interface analytically:

* :mod:`repro.sim.latency` -- per-Einsum compute cycles on either PE
  array (Eq. 40-42), with Table-1 dimension mapping.
* :mod:`repro.sim.mapping` -- Table-1 row/column dimension assignments
  and inner-tile sizing against the PE arrays.
* :mod:`repro.sim.traffic` -- DRAM traffic models for GEMM streaming,
  spilled intermediates and K/V reuse.
* :mod:`repro.sim.stats` -- phase/run statistics and energy accounting.
* :mod:`repro.sim.loopnest` / :mod:`repro.sim.mapper` -- explicit
  Timeloop-style mappings and the search validating Table 1.
* :mod:`repro.sim.des` -- discrete-event execution cross-validating the
  analytical pipeline model.
* :mod:`repro.sim.layer_pipeline` -- whole-layer (cross-phase) pipeline
  simulation.
* :mod:`repro.sim.registers` -- per-PE register-pressure liveness.
* :mod:`repro.sim.roofline` -- compute/memory-bound classification.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.sim.des": ("SimulationResult", "simulate_epochs"),
    "repro.sim.latency": ("op_cost", "op_cycles"),
    "repro.sim.layer_pipeline": (
        "interlayer_overlap_headroom", "simulate_layer_pipeline",
    ),
    "repro.sim.loopnest": ("build_loop_nest", "validate_loop_nest"),
    "repro.sim.mapper": ("search_mappings", "table1_optimality_gap"),
    "repro.sim.mapping": ("TABLE1_MAPPING", "inner_tile_extents"),
    "repro.sim.registers": (
        "register_pressure", "supports_register_retention",
    ),
    "repro.sim.roofline": ("classify_report", "machine_balance"),
    "repro.sim.stats": (
        "EnergyBreakdown", "OpCost", "PhaseStats", "RunReport",
    ),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

"""Per-op, per-array latency tables for the DP scheduler (Section 4.2).

The DP rule (Eq. 45) compares each op's completion time on the 1D and
2D arrays, so it needs ``Latency[op][pe]`` for both.  Latencies come
from the shared Eq. 40-42 model; the array-fit efficiency inside
:func:`repro.sim.latency.op_cycles` prices mismatched placements
(GEMMs on the narrow 1D array, vector work on the systolic 2D array).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.arch.pe import PEArrayKind
from repro.arch.spec import ArchitectureSpec
from repro.einsum.cascade import Cascade
from repro.sim.latency import op_cycles
from repro.sim.mapping import layer_mapping


#: Both scheduling resources, in deterministic tie-break order: the 2D
#: array wins ties so GEMM-heavy schedules stay on the wide array.  A
#: :class:`LatencyTable` keys each array by its index here.
ARRAYS: Tuple[PEArrayKind, ...] = (
    PEArrayKind.ARRAY_2D,
    PEArrayKind.ARRAY_1D,
)


@dataclass(frozen=True)
class LatencyTable:
    """Seconds and compute loads per (op, PE array).

    Attributes:
        seconds: ``(op name, array index) -> latency seconds``, the
            index into :data:`ARRAYS`.  Integer keys keep the
            schedulers' lookups off ``Enum.__hash__``, which runs
            in Python.
        loads: ``op name -> Eq. 40 compute load`` (array independent).
    """

    seconds: Mapping[Tuple[str, int], float]
    loads: Mapping[str, float]

    def latency(self, op_name: str, kind: PEArrayKind) -> float:
        """Latency of one op on one array."""
        return self.seconds[(op_name, ARRAYS.index(kind))]

    def load(self, op_name: str) -> float:
        """Scalar-op count of one op execution."""
        return self.loads[op_name]


def build_latency_table(
    cascade: Cascade,
    layer: str,
    tile: Mapping[str, int],
    arch: ArchitectureSpec,
) -> LatencyTable:
    """Price every cascade op on both PE arrays at tile granularity."""
    mapping = layer_mapping(layer)
    seconds: Dict[Tuple[str, int], float] = {}
    loads: Dict[str, float] = {}
    for op in cascade.all_ops:
        loads[op.name] = op.compute_load(tile)
        for index, kind in enumerate(ARRAYS):
            array = arch.array(kind)
            cycles = op_cycles(op, tile, array, mapping)
            seconds[(op.name, index)] = cycles / arch.clock_hz
    return LatencyTable(seconds=seconds, loads=loads)

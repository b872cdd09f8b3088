"""Typed infeasibility diagnostics for the Table-2 buffer model.

When *no* outer tiling fits the on-chip buffer, the right output is
not an exception trace out of an auditor -- it is a diagnosis: which
Table-2 module overflows, by how many words, under the smallest tile
the search space contains.  The Table-2 footprints are monotone in
every tiling factor, so if the minimal configuration overflows, every
configuration does; the minimal tile therefore *is* the smallest
violating tile, and its per-module footprints pinpoint the binding
constraint (usually the weight-slice or staging terms that no tiling
factor can shrink below the model's own shapes).

:func:`diagnose_infeasible` packages that evidence as a
:class:`BufferDiagnosis`; the search layer attaches it to an
:class:`~repro.runner.errors.InfeasiblePoint`, which the sweep engine
surfaces as a distinct ``infeasible`` status (never retried -- the
diagnosis cannot change).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.model.config import ModelConfig
from repro.tileseek.buffer_model import (
    FUSED_MODULES,
    MIN_COMPANION_FACTORS,
    TilingConfig,
    intra_tile_p_prime,
    layer_buffer_requirement,
)


@dataclass(frozen=True)
class BufferDiagnosis:
    """Why no tiling fits: the minimal tile's Table-2 evidence.

    Attributes:
        capacity_words: On-chip buffer capacity in words.
        required_words: Peak footprint of the minimal tile (the
            smallest any configuration can need).
        overflow_words: ``required_words - capacity_words`` (> 0).
        worst_module: The Table-2 module with the peak footprint
            (first in Table-2 order on ties).
        module_words: Per-module footprints of the minimal tile.
        smallest_tile: The minimal (violating) tiling factors.
    """

    capacity_words: int
    required_words: int
    overflow_words: int
    worst_module: str
    module_words: Mapping[str, int]
    smallest_tile: Mapping[str, int]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (journal / CLI / failure documents)."""
        return {
            "capacity_words": self.capacity_words,
            "required_words": self.required_words,
            "overflow_words": self.overflow_words,
            "worst_module": self.worst_module,
            "module_words": dict(self.module_words),
            "smallest_tile": dict(self.smallest_tile),
        }

    def describe(self) -> str:
        """One-line human rendering for CLI summaries."""
        return (
            f"{self.worst_module} needs {self.required_words:,} of "
            f"{self.capacity_words:,} words "
            f"({self.overflow_words:,} over) even at the minimal "
            f"tile {dict(self.smallest_tile)}"
        )

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "BufferDiagnosis":
        """Rebuild a diagnosis written by :meth:`as_dict`."""
        return cls(
            capacity_words=document["capacity_words"],
            required_words=document["required_words"],
            overflow_words=document["overflow_words"],
            worst_module=document["worst_module"],
            module_words=dict(document["module_words"]),
            smallest_tile=dict(document["smallest_tile"]),
        )


def minimal_config(
    model: ModelConfig, m0: int, rows: int
) -> TilingConfig:
    """The most conservative tiling the search space contains.

    :data:`MIN_COMPANION_FACTORS` for the companion factors (clamped
    to the model's own extents, mirroring TileSeek's candidate-grid
    floors) with a one-token Q tile.
    """
    return TilingConfig(
        b=MIN_COMPANION_FACTORS["b"],
        d=min(MIN_COMPANION_FACTORS["d"], model.d_model),
        m1=MIN_COMPANION_FACTORS["m1"],
        m0=m0,
        p=1,
        s=min(MIN_COMPANION_FACTORS["s"], model.ffn_hidden),
        p_prime=intra_tile_p_prime(1, rows),
    )


def diagnose_infeasible(
    model: ModelConfig,
    buffer_words: int,
    m0: int,
    rows: int,
    cfg: Optional[TilingConfig] = None,
) -> Optional[BufferDiagnosis]:
    """Diagnose why nothing fits, or ``None`` if the minimal tile fits.

    Args:
        model: Model shapes (they set the irreducible footprint terms).
        buffer_words: On-chip capacity.
        m0: Inner K/V tile length (2D-array columns).
        rows: 2D-array rows (sets ``p'``).
        cfg: The minimal configuration to indict; defaults to
            :func:`minimal_config`.  Pass the search's own grid
            minimum so the diagnosis matches what the search proved.
    """
    if cfg is None:
        cfg = minimal_config(model, m0=m0, rows=rows)
    module_words = {
        module: layer_buffer_requirement(module, cfg, model)
        for module in FUSED_MODULES
    }
    worst_module = max(
        FUSED_MODULES, key=lambda module: module_words[module]
    )
    required = module_words[worst_module]
    if required <= buffer_words:
        return None
    return BufferDiagnosis(
        capacity_words=int(buffer_words),
        required_words=int(required),
        overflow_words=int(required - buffer_words),
        worst_module=worst_module,
        module_words=module_words,
        smallest_tile=cfg.as_dict(),
    )

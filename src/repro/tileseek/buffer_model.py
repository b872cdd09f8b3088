"""The Table-2 on-chip buffer model.

End-to-end fusion executes a complete tile per layer, so the buffer
must hold each layer's input/output activations, recurrent MHA state
and pipeline staging buffers simultaneously (Section 5.2).  Table 2
gives the per-module requirement in words:

=================  ====================================================
module             buffer requirement
=================  ====================================================
QKV projection     ``B*D*(4P + 3*M1*M0) + 3*D*H*E + 2*B*H*P``
MHA                ``B*H*E*(P + 2*M1*M0) + B*H*P*(2 + 2F)``
                   ``+ 4*M0*P' + 18*P'``
Add & LayerNorm    ``3*B*H*F*P + 4*H*F*P'``
FFN                ``H*F*(2*B*P + S) + S*(P + 2) + 2*S*P'``
=================  ====================================================

Capitals denote *per-tile* extents: ``B`` batch per tile, ``D`` the
resident model-dimension chunk, ``P`` the Q-tile token count,
``M1*M0`` the resident key/value chunk, ``S`` the resident FFN hidden
chunk and ``P'`` the intra-tile rows handled per PE row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.model.config import ModelConfig

#: The fused sub-layers whose tiles must all fit (Section 5.2).
FUSED_MODULES = ("qkv", "mha", "layernorm", "ffn")


@dataclass(frozen=True)
class TilingConfig:
    """One outer-tiling configuration (a TileSeek search point).

    Attributes:
        b: Batch elements per outer tile.
        d: Resident model-dimension chunk (weight-slice depth).
        m1: Resident inner key/value tiles (the ``M1`` factor).
        m0: Inner key/value tile length (set by the PE mapping).
        p: Q-tile token count per batch element.
        s: Resident FFN hidden chunk.
        p_prime: Intra-tile sequence rows per PE row (2D array rows).
    """

    b: int
    d: int
    m1: int
    m0: int
    p: int
    s: int
    p_prime: int

    def __post_init__(self) -> None:
        for name in ("b", "d", "m1", "m0", "p", "s", "p_prime"):
            if getattr(self, name) <= 0:
                raise ValueError(f"tiling factor {name} must be positive")

    def as_dict(self) -> Dict[str, int]:
        """Factor name -> value."""
        return {
            "b": self.b, "d": self.d, "m1": self.m1, "m0": self.m0,
            "p": self.p, "s": self.s, "p_prime": self.p_prime,
        }


def qkv_buffer_words(cfg: TilingConfig, model: ModelConfig) -> int:
    """Table 2, row 1: QKV projection tile footprint.

    The weight-slice term generalizes to grouped-query attention: the
    K and V slices carry ``kv_heads`` instead of ``heads`` (equal for
    classic MHA, recovering the paper's ``3*D*H*E``).

    All Table-2 footprints are exact integer word counts: every term
    is a product of integer tile factors, and the one fractional
    quantity in the model -- tokens per PE row -- is ceil'd into
    ``p_prime`` before it ever enters a formula.  Feasibility
    comparisons against the (integer) buffer capacity are therefore
    exact, with no float rounding at the boundary.
    """
    h, e = model.heads, model.e_head
    hk = model.effective_kv_heads
    return (
        cfg.b * cfg.d * (4 * cfg.p + 3 * cfg.m1 * cfg.m0)
        + cfg.d * e * (h + 2 * hk)
        + 2 * cfg.b * h * cfg.p
    )


def mha_buffer_words(cfg: TilingConfig, model: ModelConfig) -> int:
    """Table 2, row 2: MHA tile footprint (inputs, recurrent state,
    output and per-Einsum staging buffers).

    The resident K/V chunk carries ``kv_heads`` under grouped-query
    attention (= ``heads`` for MHA, the paper's form).
    """
    h, e, f = model.heads, model.e_head, model.f_head
    hk = model.effective_kv_heads
    return (
        cfg.b * e * (h * cfg.p + 2 * hk * cfg.m1 * cfg.m0)
        + cfg.b * h * cfg.p * (2 + 2 * f)
        + 4 * cfg.m0 * cfg.p_prime
        + 18 * cfg.p_prime
    )


def layernorm_buffer_words(
    cfg: TilingConfig, model: ModelConfig
) -> int:
    """Table 2, row 3: Add & LayerNorm tile footprint."""
    h, f = model.heads, model.f_head
    return 3 * cfg.b * h * f * cfg.p + 4 * h * f * cfg.p_prime


def ffn_buffer_words(cfg: TilingConfig, model: ModelConfig) -> int:
    """Table 2, row 4: FFN tile footprint."""
    h, f = model.heads, model.f_head
    return (
        h * f * (2 * cfg.b * cfg.p + cfg.s)
        + cfg.s * (cfg.p + 2)
        + 2 * cfg.s * cfg.p_prime
    )


_MODULE_FNS = {
    "qkv": qkv_buffer_words,
    "mha": mha_buffer_words,
    "layernorm": layernorm_buffer_words,
    "ffn": ffn_buffer_words,
}


def layer_buffer_requirement(
    module: str, cfg: TilingConfig, model: ModelConfig
) -> int:
    """Buffer words one fused module needs under ``cfg``."""
    if module not in _MODULE_FNS:
        raise KeyError(
            f"unknown module {module!r}; choose from "
            f"{sorted(_MODULE_FNS)}"
        )
    return _MODULE_FNS[module](cfg, model)


def fused_buffer_requirement(
    cfg: TilingConfig, model: ModelConfig
) -> int:
    """Peak buffer words across the fused encoder layer.

    Modules execute one tile at a time, so the binding constraint is
    the largest per-module footprint.
    """
    return max(
        layer_buffer_requirement(module, cfg, model)
        for module in FUSED_MODULES
    )


def table2_footprint(
    model: ModelConfig, m0: int, rows: int
) -> Callable[[int, int, int, int, int], int]:
    """:func:`fused_buffer_requirement` as a function of the searched
    factors ``(b, d, m1, p, s)``, with every model constant hoisted.

    TileSeek's feasibility prune probes the footprint thousands of
    times per search with only the searched factors varying; building
    a :class:`TilingConfig` and dispatching through
    :func:`layer_buffer_requirement` per probe dominates that loop.
    The returned function evaluates the same four Table-2 rows in
    exact Python integers, so its result equals the per-module
    formulas' peak for every input.

    Args:
        model: Model shapes.
        m0: Inner key/value tile length (2D-array columns).
        rows: 2D-array rows (sets ``P' = ceil(p / rows)``).
    """
    h, e, f = model.heads, model.e_head, model.f_head
    hk = model.effective_kv_heads
    kv_tile = 3 * m0
    qkv_weights = e * (h + 2 * hk)
    mha_kv = 2 * hk * m0
    mha_state = 2 + 2 * f
    mha_staging = 4 * m0 + 18
    hf = h * f

    def footprint(b: int, d: int, m1: int, p: int, s: int) -> int:
        p_prime = -(-p // rows)
        return max(
            b * d * (4 * p + kv_tile * m1)
            + d * qkv_weights
            + 2 * b * h * p,
            b * e * (h * p + mha_kv * m1)
            + b * h * p * mha_state
            + mha_staging * p_prime,
            3 * b * hf * p + 4 * hf * p_prime,
            hf * (2 * b * p + s) + s * (p + 2) + 2 * s * p_prime,
        )

    return footprint


def intra_tile_p_prime(p: int, rows: int) -> int:
    """Table 2's ``P'``: intra-tile sequence length per PE row.

    A ``p``-token tile spread over ``rows`` PE rows leaves each row
    ``ceil(p / rows)`` tokens of pipeline-staging state.  Integer
    ceiling division (not float division + round) keeps the boundary
    exact for tiles whose footprint lands on the capacity itself.
    """
    if p <= 0 or rows <= 0:
        raise ValueError("p and rows must be positive")
    return -(-p // rows)


#: Conservative minimal values for the factors a Q-tile bound does not
#: search: one batch element, thin weight/hidden slices, one resident
#: K/V tile.  Shared by the heuristic tiler, TileSeek's grid anchor
#: and the tiling auditor, so their feasibility frontiers agree.
MIN_COMPANION_FACTORS = {"b": 1, "d": 16, "m1": 1, "s": 16}


def q_tile_fits(
    p: int,
    model: ModelConfig,
    buffer_words: int,
    m0: int,
    rows: int,
    modules: tuple = FUSED_MODULES,
) -> bool:
    """Whether a ``p``-token Q tile fits the buffer.

    Evaluated with :data:`MIN_COMPANION_FACTORS` for the non-sequence
    factors -- the most generous assumption, so this is the exact
    feasibility frontier :func:`max_feasible_q_tile` bisects.
    """
    cfg = TilingConfig(
        m0=m0, p=p, p_prime=intra_tile_p_prime(p, rows),
        **MIN_COMPANION_FACTORS,
    )
    need = max(
        layer_buffer_requirement(module, cfg, model)
        for module in modules
    )
    return need <= buffer_words


def max_feasible_q_tile(
    model: ModelConfig,
    seq_len: int,
    buffer_words: int,
    m0: int,
    rows: int,
    modules: tuple = FUSED_MODULES,
) -> int:
    """Largest Q-tile token count whose tile footprint fits the buffer.

    Evaluated with conservative minimal values for the non-sequence
    factors (``b = 1``, thin ``d``/``s`` slices, one resident K/V
    tile), so it is the upper bound any outer tiling can reach on the
    ``p`` axis.  Both the baselines' heuristic tiler and TileSeek's
    candidate grid anchor on this bound.

    Args:
        model: Model shapes.
        seq_len: Upper bound for the tile (the full sequence).
        buffer_words: On-chip buffer capacity in words.
        m0: Inner key/value tile length (2D-array columns).
        rows: 2D-array rows (sets ``P' = ceil(p / rows)``).
        modules: Which Table-2 rows constrain the tile -- all four for
            end-to-end fusion, just ``("mha",)`` for attention-only
            fusion (FLAT / FuseMax).

    Returns:
        The largest feasible ``p`` in ``[1, seq_len]`` (the bound is
        *tight*: ``p`` fits and ``p + 1`` does not, unless ``p`` is
        the full sequence or even ``p = 1`` overflows).
    """

    def feasible(p: int) -> bool:
        return q_tile_fits(
            p, model, buffer_words, m0=m0, rows=rows,
            modules=modules,
        )

    low, high = 1, max(1, seq_len)
    if feasible(high):
        return high
    if not feasible(low):
        return 1
    while high - low > 1:
        mid = (low + high) // 2
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low

"""Workloads: a model at a sequence length and batch size.

A :class:`Workload` owns the *problem-space* dimension extents.  Tiling
decisions (``p`` tile length, ``m1``/``m0`` split, batch tile) come
later, from TileSeek or a baseline tiler, and produce the per-tile
``extents`` mapping consumed by cascades and the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.model.config import ModelConfig


@dataclass(frozen=True)
class Workload:
    """One inference problem instance.

    Attributes:
        model: Shape configuration.
        seq_len: Query sequence length ``P``.
        batch: Batch size (the paper fixes ``B = 64``).
        kv_seq_len: Key/value sequence length ``M``; ``None`` means
            self-attention (``M = P``).  Set it for the decoder's
            cross-attention, where K/V come from the encoder memory.
        causal: Whether attention is causally masked (decoder
            self-attention).  A causal mask halves the useful score
            work and K/V reads on average.
        project_kv: Whether this step computes the K/V projections of
            the whole key/value sequence (True for prefill and
            encoder layers).  False models autoregressive decode
            against a persistent KV cache: only the ``seq_len`` new
            tokens are projected and spilled, while attention still
            reads the full ``kv_seq_len`` cache.
    """

    model: ModelConfig
    seq_len: int
    batch: int = 64
    kv_seq_len: Optional[int] = None
    causal: bool = False
    project_kv: bool = True

    def __post_init__(self) -> None:
        if self.seq_len <= 0:
            raise ValueError("seq_len must be positive")
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if self.kv_seq_len is not None and self.kv_seq_len <= 0:
            raise ValueError("kv_seq_len must be positive")
        if self.causal and self.kv_seq_len not in (None,
                                                   self.seq_len):
            raise ValueError(
                "causal masking requires self-attention "
                "(kv_seq_len == seq_len)"
            )

    @property
    def kv_len(self) -> int:
        """Key/value sequence length (``M``)."""
        return (
            self.seq_len if self.kv_seq_len is None
            else self.kv_seq_len
        )

    @property
    def attention_work_fraction(self) -> float:
        """Fraction of the dense ``P x M`` score work that is live.

        1.0 for dense attention; 0.5 under a causal mask (the lower
        triangle), which also halves average K/V reads per Q tile.
        """
        return 0.5 if self.causal else 1.0

    def problem_extents(self) -> Dict[str, int]:
        """Full-problem extents: model dims plus sequence and batch."""
        extents = self.model.extents()
        extents.update({"P": self.seq_len, "M": self.kv_len,
                        "B": self.batch})
        return extents

    # ------------------------------------------------------------------
    # Per-layer operation counts (exact, from the cascade structure).
    # ------------------------------------------------------------------
    @property
    def qkv_macs(self) -> float:
        """MACs for Q/K/V projections of one layer (Eq. 25-27):
        the Q projection over ``P`` tokens plus K and V projections
        over the tokens actually projected this step."""
        d2 = self.model.d_model ** 2
        q = self.batch * self.seq_len * d2
        kv = (
            2.0 * self.batch * self.kv_projected_len * d2
            * self.model.kv_fraction
        )
        return q + kv

    @property
    def attention_macs(self) -> float:
        """MACs for QK^T plus attention-times-V of one layer (live
        work only: a causal mask halves the dense count)."""
        m = self.model
        per_head = self.seq_len * self.kv_len * (m.e_head + m.f_head)
        return (
            self.batch * m.heads * per_head
            * self.attention_work_fraction
        )

    @property
    def ffn_macs(self) -> float:
        """MACs for both FFN linear layers of one layer (Eq. 37, 39)."""
        m = self.model
        return 2.0 * self.batch * self.seq_len * m.d_model * m.ffn_hidden

    @property
    def score_elements(self) -> float:
        """Live attention-score elements per layer (``B * H * P * M``
        scaled by the causal fraction)."""
        return (
            self.batch * self.model.heads * self.seq_len
            * self.kv_len * self.attention_work_fraction
        )

    @property
    def activation_words(self) -> float:
        """Words in one full activation tensor (``B * P * D``)."""
        return float(self.batch * self.seq_len * self.model.d_model)

    @property
    def kv_words(self) -> float:
        """Words in the K/V cache of one layer
        (``2 * B * M * Hk * E``; ``Hk = H`` for MHA)."""
        per_token = (
            self.model.effective_kv_heads * self.model.e_head
        )
        return 2.0 * self.batch * self.kv_len * per_token

    @property
    def kv_projected_len(self) -> int:
        """Tokens whose K/V this step actually projects: the full
        sequence for prefill, only the new tokens for decode."""
        return self.kv_len if self.project_kv else self.seq_len

    @property
    def kv_spill_words(self) -> float:
        """Words of freshly projected K/V written to the cache."""
        per_token = (
            self.model.effective_kv_heads * self.model.e_head
        )
        return (
            2.0 * self.batch * self.kv_projected_len * per_token
        )

    def describe(self) -> str:
        """Short human-readable label."""
        label = f"{self.model.name} P={self.seq_len} B={self.batch}"
        if self.kv_seq_len is not None:
            label += f" M={self.kv_seq_len}"
        if self.causal:
            label += " causal"
        if not self.project_kv:
            label += " decode"
        return label

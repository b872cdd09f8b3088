"""Tiling-configuration assessment (TileSeek's simulation step).

Where the paper calls Timeloop/Accelergy on each MCTS leaf, this module
prices a configuration analytically: constraint validation against the
Table-2 buffer model, then DRAM traffic and energy under the fused
dataflow.  The traffic terms are exactly the levers the outer factors
control:

* ``b`` and ``p`` set how often the layer's weights re-stream
  (one pass per outer token group),
* ``p`` sets the number of K/V reload passes in the ``m1`` loop,
* ``d``, ``m1`` and ``s`` buy feasibility (smaller resident slices)
  at no traffic cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.arch.spec import ArchitectureSpec
from repro.model.workload import Workload
from repro.tileseek.buffer_model import (
    TilingConfig,
    fused_buffer_requirement,
)


@dataclass(frozen=True)
class TilingAssessment:
    """Outcome of evaluating one tiling configuration.

    Attributes:
        feasible: Whether the Table-2 footprint fits the buffer.
        buffer_words_required: Peak fused footprint (words).
        dram_words: Total per-layer DRAM traffic (words).
        dram_seconds: Transfer time for that traffic.
        energy_pj: DRAM energy (the reward's energy metric).
        kv_passes: K/V read passes implied by the ``p`` factor.
        weight_passes: Weight streaming passes implied by ``b``/``p``.
    """

    feasible: bool
    buffer_words_required: float
    dram_words: float
    dram_seconds: float
    energy_pj: float
    kv_passes: int
    weight_passes: int


def traffic_model(
    workload: Workload, buffer_words: int
) -> Callable[[int, int], Tuple[float, int, int, float]]:
    """Per-layer fused-dataflow DRAM traffic as a function of the two
    factors it depends on, ``(b, p)``, with every workload constant
    hoisted.

    TileSeek prices dozens of leaves per search with only the searched
    factors varying; the returned function is the one place the
    traffic formula lives (:func:`dram_traffic_words` calls it too),
    so a hoisted search reward and a full :func:`assess_tiling` see
    the same floats from the same operations in the same order.

    Args:
        workload: The problem instance.
        buffer_words: On-chip capacity (a per-batch-element K/V cache
            that fits in half the buffer is fetched once, not per
            Q tile).

    Returns:
        ``traffic(b, p) -> (total, kv_passes, weight_passes,
        kv_words)``.
    """
    activations = workload.activation_words
    qkv_weights, ffn_weights = _weight_words(workload)
    weights = qkv_weights + ffn_weights
    layer_io = activations + activations  # layer input read + write
    # Weight passes: one per resident token group over the flat
    # batch-token pool (token-parallel layers share weights across
    # the batch, so groups never exceed total_tokens / (b * p)).
    total_tokens = workload.batch * workload.seq_len
    seq_len = workload.seq_len
    kv_cache = workload.kv_words
    kv_per_batch = kv_cache / workload.batch
    kv_resident = 0.5 * buffer_words
    kv_spill = workload.kv_spill_words
    kv_fetched_once = kv_spill + kv_cache  # spill + one read
    attention_fraction = workload.attention_work_fraction
    ceil = math.ceil

    def traffic(b: int, p: int) -> Tuple[float, int, int, float]:
        groups = max(1, ceil(total_tokens / (b * p)))
        if kv_per_batch * b <= kv_resident:
            kv_passes = 1
            kv_words = kv_fetched_once
        else:
            kv_passes = ceil(seq_len / p)
            kv_words = (  # spill + reloads
                kv_spill + kv_cache * kv_passes * attention_fraction
            )
        return (
            layer_io + weights * groups + kv_words,
            kv_passes, groups, kv_words,
        )

    return traffic


def _weight_words(workload: Workload) -> Tuple[int, float]:
    """QKV and FFN weight words streamed per weight pass."""
    model = workload.model
    qkv_weights = (
        model.d_model * model.e_head
        * (model.heads + 2 * model.effective_kv_heads)
    )
    ffn_weights = 2.0 * model.d_model * model.ffn_hidden
    return qkv_weights, ffn_weights


def dram_traffic_words(
    cfg: TilingConfig, workload: Workload, buffer_words: int
) -> dict:
    """Per-layer fused-dataflow DRAM traffic under ``cfg``.

    Args:
        cfg: The tiling configuration.
        workload: The problem instance.
        buffer_words: On-chip capacity (see :func:`traffic_model`).

    Returns:
        A dict with ``total``, ``kv_passes``, ``weight_passes``,
        ``qkv_weight_words``, ``ffn_weight_words`` and ``kv_words``.
    """
    total, kv_passes, groups, kv_words = traffic_model(
        workload, buffer_words
    )(cfg.b, cfg.p)
    qkv_weights, ffn_weights = _weight_words(workload)
    return {
        "total": total,
        "kv_passes": kv_passes,
        "weight_passes": groups,
        "qkv_weight_words": qkv_weights * groups,
        "ffn_weight_words": ffn_weights * groups,
        "kv_words": kv_words,
    }


def assess_tiling(
    cfg: TilingConfig,
    workload: Workload,
    arch: ArchitectureSpec,
) -> TilingAssessment:
    """Validate and price one tiling configuration."""
    required = fused_buffer_requirement(cfg, workload.model)
    feasible = required <= arch.buffer_words
    traffic = dram_traffic_words(cfg, workload, arch.buffer_words)
    words = traffic["total"]
    return TilingAssessment(
        feasible=feasible,
        buffer_words_required=required,
        dram_words=words,
        dram_seconds=arch.dram_seconds(words),
        energy_pj=arch.energy.dram_energy_pj(words),
        kv_passes=int(traffic["kv_passes"]),
        weight_passes=int(traffic["weight_passes"]),
    )


def reward_for(
    assessment: TilingAssessment,
    reference_words: float,
    metric: str = "energy",
) -> float:
    """MCTS reward: 0 for infeasible leaves, else the traffic ratio
    against a reference configuration (higher is better).

    Both supported metrics (``energy``, ``latency``) are monotone in
    DRAM words under a fixed architecture, matching the paper's note
    that either estimate can serve as the reward signal.
    """
    if metric not in ("energy", "latency"):
        raise ValueError(f"unknown reward metric {metric!r}")
    if not assessment.feasible:
        return 0.0
    if assessment.dram_words <= 0:
        return 1.0
    return reference_words / assessment.dram_words

"""Builders for the paper's Einsum Cascades 1-4 (Section 3.1).

Dimension-name conventions, matching the paper:

====  =====================================================
name  meaning
====  =====================================================
p     query-sequence tile length (tokens processed per tile)
m1    outer key/value sequence-tile index (recurrence loop)
m0    inner key/value sequence-tile length
d     model (hidden) dimension, ``d = h * e``
h     number of attention heads
e     query/key per-head embedding dimension
f     value per-head embedding dimension (``e == f`` in Table 2)
s     FFN hidden dimension
====  =====================================================

Each builder returns a symbolic :class:`~repro.einsum.cascade.Cascade`;
concrete sizes are supplied at evaluation/scheduling time via an
``extents`` mapping.  Builders are memoised per process (their
arguments are hashable scalars), so every caller asking for the same
cascade shares one immutable instance -- and with it the DPipe
planner's per-cascade structure memo.  Callers only read it; the
undecorated builder stays reachable as ``builder.__wrapped__``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.einsum.cascade import Cascade, StateSpec
from repro.einsum.operation import contraction, map_op, reduction
from repro.einsum.tensor import tensor


@lru_cache(maxsize=None, typed=True)
def qkv_cascade(kv_cost_fraction: float = 1.0) -> Cascade:
    """Einsum Cascade 2: tiled Q/K/V projections with shared input.

    Implements Eq. 25-27: the query-side input tile ``INP_Q[d, p]`` and
    the key/value-side input ``INP_KV[d, m1, m0]`` are projected by three
    weight matrices into ``Q``, ``BK`` and ``BV``.  The three
    contractions are mutually independent (Section 3.3, "QKV").

    Args:
        kv_cost_fraction: Compute-cost multiplier on the K and V
            projections: ``kv_heads / heads`` under grouped-query
            attention, 1.0 for classic MHA.  (The symbolic shapes keep
            the full head dim; the cost weight prices the smaller
            GQA projection matrices.)
    """
    if not 0.0 < kv_cost_fraction <= 1.0:
        raise ValueError("kv_cost_fraction must be in (0, 1]")
    inp_q = tensor("INP_Q", "d", "p")
    inp_kv = tensor("INP_KV", "d", "m1", "m0")
    wq = tensor("WQ", "d", "h", "e")
    wk = tensor("WK", "d", "h", "e")
    wv = tensor("WV", "d", "h", "f")
    ops = (
        contraction("Q", (inp_q, wq), tensor("Q", "h", "e", "p")),
        replace(
            contraction(
                "BK", (inp_kv, wk),
                tensor("BK", "h", "e", "m1", "m0"),
            ),
            cost_weight=kv_cost_fraction,
        ),
        replace(
            contraction(
                "BV", (inp_kv, wv),
                tensor("BV", "h", "f", "m1", "m0"),
            ),
            cost_weight=kv_cost_fraction,
        ),
    )
    return Cascade(
        name="qkv",
        ops=ops,
        external_inputs=(inp_q, inp_kv, wq, wk, wv),
        outputs=("Q", "BK", "BV"),
    )


@lru_cache(maxsize=None, typed=True)
def attention_cascade(masked: bool = False) -> Cascade:
    """Einsum Cascade 1: FuseMax's 1-pass attention (Eq. 12-24).

    The cascade loops over the outer key/value tile index ``m1``,
    carrying three recurrent states across iterations:

    * ``RM`` -- running max (init ``-inf``, updated by Eq. 14),
    * ``RD`` -- running softmax denominator (init 0, Eq. 20),
    * ``RNV`` -- running numerator-times-V product (init 0, Eq. 22).

    After the last tile, the epilogue computes the attention output
    ``AV = RNV / RD`` (Eq. 23).  The twelve loop-body operations match
    FuseMax's "12 primitive Einsum operators" (Section 6.1).

    Args:
        masked: If True, an additive attention mask (0 for visible,
            ``-inf`` for hidden positions) is applied to the score
            block before the running-max update -- the decoder's
            masked self-attention (Section 3.2's decoder structures).
            Adds one map Einsum (``BQKM``) to the loop body.
    """
    # Per-iteration views: the m1 index is stripped from BK/BV inside
    # the loop body (the evaluator slices the external tensors).
    q = tensor("Q", "h", "e", "p")
    bk_step = tensor("BK", "h", "e", "m0")
    bv_step = tensor("BV", "h", "f", "m0")
    bqk = tensor("BQK", "h", "m0", "p")
    lm = tensor("LM", "h", "p")
    rm = tensor("RM", "h", "p")
    rmn = tensor("RMn", "h", "p")
    sln = tensor("SLN", "h", "m0", "p")
    sld = tensor("SLD", "h", "p")
    slnv = tensor("SLNV", "h", "f", "p")
    prm = tensor("PRM", "h", "p")
    rd = tensor("RD", "h", "p")
    spd = tensor("SPD", "h", "p")
    rdn = tensor("RDn", "h", "p")
    rnv = tensor("RNV", "h", "f", "p")
    spnv = tensor("SPNV", "h", "f", "p")
    rnvn = tensor("RNVn", "h", "f", "p")

    mask_step = tensor("MASK", "m0", "p")
    bqkm = tensor("BQKM", "h", "m0", "p")
    score = bqkm if masked else bqk
    mask_ops = (
        (map_op("BQKM", "add", (bqk, mask_step), bqkm),)
        if masked
        else ()
    )

    ops = (
        # Eq. 12: block dot product Q x BK.
        contraction("BQK", (q, bk_step), bqk),
        # Decoder-only: additive mask on the score block.
        *mask_ops,
        # Eq. 13: local max across the inner tile.
        reduction("LM", "max", score, lm),
        # Eq. 14: running-max update (reads previous RM state).
        map_op("RMn", "max", (rm, lm), rmn, state_inputs=("RM",)),
        # Eq. 15: local softmax numerator exp(BQK - RM).
        map_op("SLN", "exp_diff", (score, rmn), sln),
        # Eq. 16: local softmax denominator.
        reduction("SLD", "sum", sln, sld),
        # Eq. 17: numerator times V for the current tile.
        contraction("SLNV", (sln, bv_step), slnv),
        # Eq. 18: correction factor for previously accumulated tiles.
        map_op("PRM", "exp_diff", (rm, rmn), prm, state_inputs=("RM",)),
        # Eq. 19: rescale the past denominator.
        map_op("SPD", "mul", (rd, prm), spd, state_inputs=("RD",)),
        # Eq. 20: running-denominator update.
        map_op("RDn", "add", (sld, spd), rdn),
        # Eq. 21: rescale the past numerator-times-V.
        map_op(
            "SPNV", "mul", (rnv, prm), spnv, state_inputs=("RNV",)
        ),
        # Eq. 22: running numerator-times-V update.
        map_op("RNVn", "add", (slnv, spnv), rnvn),
    )
    epilogue = (
        # Eq. 23: final normalization AV = RNV / RD.
        map_op("AV", "div", (rnv, rd), tensor("AV", "h", "f", "p")),
    )
    external = [
        q,
        tensor("BK", "h", "e", "m1", "m0"),
        tensor("BV", "h", "f", "m1", "m0"),
    ]
    if masked:
        external.append(tensor("MASK", "m1", "m0", "p"))
    return Cascade(
        name="mha_1pass_masked" if masked else "mha_1pass",
        ops=ops,
        external_inputs=tuple(external),
        outputs=("AV",),
        loop_dim="m1",
        state={
            "RM": StateSpec(rm, float("-inf"), "RMn"),
            "RD": StateSpec(rd, 0.0, "RDn"),
            "RNV": StateSpec(rnv, 0.0, "RNVn"),
        },
        epilogue=epilogue,
    )


@lru_cache(maxsize=None, typed=True)
def layernorm_cascade(eps: float = 0.0) -> Cascade:
    """Einsum Cascade 3: Add & LayerNorm (Eq. 28-36).

    Normalizes over the flattened ``(h, f)`` feature vector of each
    token ``p`` after adding the residual input.  Per Li et al. (the
    paper's [23]), the affine ``gamma`` / ``beta`` are deferred into the
    next layer, so the cascade ends at the normalized ``NR`` tensor.

    Args:
        eps: Variance epsilon.  The paper's Eq. 35 has none; a non-zero
            value is accepted for numerically robust comparisons.
    """
    inp = tensor("INP", "h", "f", "p")
    av = tensor("AV", "h", "f", "p")
    iav = tensor("IAV", "h", "f", "p")
    sav = tensor("SAV", "p")
    mav = tensor("MAV", "p")
    dav = tensor("DAV", "h", "f", "p")
    qav = tensor("QAV", "h", "f", "p")
    sqav = tensor("SQAV", "p")
    mqav = tensor("MQAV", "p")
    sr = tensor("SR", "p")

    variance_in = mqav
    variance_ops = ()
    if eps:
        veps = tensor("VEPS", "p")
        variance_ops = (
            map_op("VEPS", "add_const", (mqav,), veps, const=eps),
        )
        variance_in = veps

    ops = (
        # Eq. 28: residual add.
        map_op("IAV", "add", (inp, av), iav),
        # Eq. 29: sum over the (h, f) feature vector.
        reduction("SAV", "sum", iav, sav),
        # Eq. 30: per-token mean, const = 1 / (H * F).
        map_op("MAV", "scale", (sav,), mav, inv_extent_dims=("h", "f")),
        # Eq. 31: de-meaned activations.
        map_op("DAV", "sub", (iav, mav), dav),
        # Eq. 32: squared deviations (DAV x DAV).
        map_op("QAV", "square", (dav,), qav),
        # Eq. 33: sum of squared deviations.
        reduction("SQAV", "sum", qav, sqav),
        # Eq. 34: per-token variance, const = 1 / (H * F).
        map_op(
            "MQAV", "scale", (sqav,), mqav, inv_extent_dims=("h", "f")
        ),
        *variance_ops,
        # Eq. 35: reciprocal standard deviation.
        map_op("SR", "rsqrt", (variance_in,), sr),
        # Eq. 36: normalized output.
        map_op(
            "NR", "mul", (dav, sr), tensor("NR", "h", "f", "p")
        ),
    )
    return Cascade(
        name="add_layernorm",
        ops=ops,
        external_inputs=(inp, av),
        outputs=("NR",),
    )


@lru_cache(maxsize=None, typed=True)
def ffn_cascade(activation: str = "gelu") -> Cascade:
    """Einsum Cascade 4: the feed-forward network (Eq. 37-39).

    ``FFN1`` expands to the hidden dimension ``s`` with bias, the
    activation is applied in a pipelined manner, and ``FFN2`` projects
    back to ``(h, f)`` with bias.  Partial FFN2 fragments accumulate
    on-chip across tiles (Section 3.3, "FFN").

    Args:
        activation: One of ``"relu"``, ``"gelu"``, ``"silu"``.
    """
    if activation not in ("relu", "gelu", "silu"):
        raise ValueError(f"unsupported activation {activation!r}")
    nr = tensor("NR", "h", "f", "p")
    wf1 = tensor("WF1", "h", "f", "s")
    bf1 = tensor("BF1", "s")
    wf2 = tensor("WF2", "h", "f", "s")
    bf2 = tensor("BF2", "h", "f")
    ffn1 = tensor("FFN1", "s", "p")
    ar = tensor("AR", "s", "p")

    ops = (
        # Eq. 37: first linear layer with bias.
        contraction("FFN1", (nr, wf1), ffn1, bias=bf1),
        # Eq. 38: activation, pipelined right behind FFN1 tiles.
        map_op("AR", activation, (ffn1,), ar),
        # Eq. 39: second linear layer with bias (consumes the
        # activated tile AR; the paper's FFN1 in Eq. 39 is a typo).
        contraction(
            "FFN2", (ar, wf2), tensor("FFN2", "h", "f", "p"), bias=bf2
        ),
    )
    return Cascade(
        name="ffn",
        ops=ops,
        external_inputs=(nr, wf1, bf1, wf2, bf2),
        outputs=("FFN2",),
    )


#: Sub-layer name -> cascade builder, in encoder-layer order.
SUBLAYER_BUILDERS = {
    "qkv": qkv_cascade,
    "mha": attention_cascade,
    "layernorm": layernorm_cascade,
    "ffn": ffn_cascade,
}

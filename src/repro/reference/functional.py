"""Plain-NumPy Transformer building blocks (Eq. 1-4 of the paper).

These functions compute attention, LayerNorm and FFN the *textbook* way
(full softmax matrix materialized, two-pass statistics) and serve as the
golden reference for the streaming Einsum cascades.

Array layout convention matches the cascades: heads-first tensors
``[h, e, p]`` / ``[h, f, p]`` with the token (sequence) axis last.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.einsum.evaluator import MAP_FUNCTIONS


def qkv_projection(
    inp_q: np.ndarray,
    inp_kv: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Project inputs into per-head Q/K/V tensors (Eq. 25-27 semantics).

    Args:
        inp_q: Query-side input, shape ``[d, p]``.
        inp_kv: Key/value-side input, shape ``[d, m]`` (full sequence).
        wq: Query weights ``[d, h, e]``.
        wk: Key weights ``[d, h, e]``.
        wv: Value weights ``[d, h, f]``.

    Returns:
        ``{"Q": [h, e, p], "K": [h, e, m], "V": [h, f, m]}``.
    """
    return {
        "Q": np.einsum("dp,dhe->hep", inp_q, wq),
        "K": np.einsum("dm,dhe->hem", inp_kv, wk),
        "V": np.einsum("dm,dhf->hfm", inp_kv, wv),
    }


def softmax(scores: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def multi_head_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: Optional[float] = None,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scaled dot-product attention per head (Eq. 1).

    Args:
        q: Queries ``[h, e, p]``.
        k: Keys ``[h, e, m]``.
        v: Values ``[h, f, m]``.
        scale: Score scale; defaults to 1 to match Cascade 1, which (like
            FuseMax) folds the ``1/sqrt(d_k)`` factor into Q upstream.
        mask: Optional additive mask ``[m, p]`` (0 = visible, ``-inf``
            = hidden), broadcast over heads -- the decoder's masked
            self-attention.

    Returns:
        Attention output ``[h, f, p]``.
    """
    scores = np.einsum("hep,hem->hmp", q, k)
    if scale is not None:
        scores = scores * scale
    if mask is not None:
        scores = scores + mask[None, :, :]
    weights = softmax(scores, axis=1)
    return np.einsum("hmp,hfm->hfp", weights, v)


def causal_mask(m: int, p: int) -> np.ndarray:
    """Additive causal mask ``[m, p]``: query ``j`` sees keys
    ``0..j`` (query and key sequences aligned at position 0)."""
    if m <= 0 or p <= 0:
        raise ValueError("mask dims must be positive")
    keys = np.arange(m)[:, None]
    queries = np.arange(p)[None, :]
    return np.where(keys <= queries, 0.0, -np.inf)


def layer_norm(
    inp: np.ndarray, av: np.ndarray, eps: float = 0.0
) -> np.ndarray:
    """Residual add followed by per-token LayerNorm (Eq. 3 / 28-36).

    Normalizes each token's flattened ``(h, f)`` feature vector using
    the biased (population) variance, exactly as Cascade 3 does.

    Args:
        inp: Residual input ``[h, f, p]``.
        av: Sub-layer output ``[h, f, p]``.
        eps: Variance epsilon (0 matches the paper's Eq. 35).

    Returns:
        Normalized activations ``[h, f, p]``.
    """
    x = inp + av
    mean = x.mean(axis=(0, 1), keepdims=True)
    centered = x - mean
    variance = np.square(centered).mean(axis=(0, 1), keepdims=True)
    return centered / np.sqrt(variance + eps)


def feed_forward(
    nr: np.ndarray,
    wf1: np.ndarray,
    bf1: np.ndarray,
    wf2: np.ndarray,
    bf2: np.ndarray,
    activation: str = "gelu",
) -> np.ndarray:
    """Two-layer FFN with activation (Eq. 4 / 37-39).

    Args:
        nr: Input activations ``[h, f, p]``.
        wf1: First weights ``[h, f, s]``.
        bf1: First bias ``[s]``.
        wf2: Second weights ``[h, f, s]``.
        bf2: Second bias ``[h, f]``.
        activation: ``"relu"``, ``"gelu"`` or ``"silu"``.

    Returns:
        FFN output ``[h, f, p]``.
    """
    act = MAP_FUNCTIONS[activation]
    hidden = np.einsum("hfp,hfs->sp", nr, wf1) + bf1[:, None]
    activated = act(hidden)
    return (
        np.einsum("sp,hfs->hfp", activated, wf2) + bf2[:, :, None]
    )


def transformer_layer(
    inp: np.ndarray,
    weights: Dict[str, np.ndarray],
    activation: str = "gelu",
    eps: float = 0.0,
) -> np.ndarray:
    """One full post-norm encoder layer, textbook formulation.

    Pipeline: QKV projection -> MHA -> Add & LayerNorm -> FFN ->
    Add & LayerNorm, mirroring the TransFusion dataflow of Figure 3.

    Args:
        inp: Input activations ``[d, p]`` with ``d = h * e``.
        weights: ``{"WQ", "WK", "WV", "WF1", "BF1", "WF2", "BF2"}``.
        activation: FFN activation name.
        eps: LayerNorm epsilon.

    Returns:
        Layer output ``[h, f, p]``.
    """
    d, p = inp.shape
    h, e = weights["WQ"].shape[1], weights["WQ"].shape[2]
    if h * e != d:
        raise ValueError(f"d={d} must equal h*e={h * e}")
    qkv = qkv_projection(inp, inp, weights["WQ"], weights["WK"],
                         weights["WV"])
    av = multi_head_attention(qkv["Q"], qkv["K"], qkv["V"])
    residual = inp.reshape(h, e, p)
    nr = layer_norm(residual, av, eps=eps)
    ffn_out = feed_forward(
        nr,
        weights["WF1"],
        weights["BF1"],
        weights["WF2"],
        weights["BF2"],
        activation=activation,
    )
    return layer_norm(nr, ffn_out, eps=eps)

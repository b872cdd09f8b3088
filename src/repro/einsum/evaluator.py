"""NumPy reference evaluator for Einsum cascades.

This evaluator exists to prove that the cascades TransFusion schedules
are *numerically* the computation they claim to be: 1-pass attention
(Cascade 1) must equal softmax attention, the LayerNorm cascade
(Cascade 3) must equal textbook LayerNorm, and so on.  Tests pair this
module with :mod:`repro.reference`.

The evaluator is intentionally simple and explicit -- it mirrors the
cascade semantics step by step, including the ``m1`` recurrence loop of
1-pass attention with its running max / denominator / numerator state.
"""

from __future__ import annotations

import string
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from repro.einsum.cascade import Cascade
from repro.einsum.operation import EinsumOp, OpKind


def _gelu(x: np.ndarray) -> np.ndarray:
    """Exact GeLU using the Gaussian CDF (erf form)."""
    from math import sqrt

    from scipy.special import erf  # scipy is an allowed dependency

    return 0.5 * x * (1.0 + erf(x / sqrt(2.0)))


#: Map functions: name -> callable over broadcast-aligned input arrays
#: plus an optional ``const`` (arities:
#: :data:`repro.einsum.operation.MAP_ARITY`).
MAP_FUNCTIONS: Dict[str, Callable[..., np.ndarray]] = {
    "identity": lambda a, const=None: a,
    "add": lambda a, b, const=None: a + b,
    "sub": lambda a, b, const=None: a - b,
    "mul": lambda a, b, const=None: a * b,
    "div": lambda a, b, const=None: a / b,
    "max": lambda a, b, const=None: np.maximum(a, b),
    "exp": lambda a, const=None: np.exp(a),
    "exp_diff": lambda a, b, const=None: np.exp(a - b),
    "scale": lambda a, const=None: a * const,
    "add_const": lambda a, const=None: a + const,
    "square": lambda a, const=None: a * a,
    "rsqrt": lambda a, const=None: 1.0 / np.sqrt(a),
    "relu": lambda a, const=None: np.maximum(a, 0.0),
    "gelu": lambda a, const=None: _gelu(a),
    "silu": lambda a, const=None: a / (1.0 + np.exp(-a)),
}

#: Reduction functions: name -> numpy reducer (names:
#: :data:`repro.einsum.operation.REDUCE_NAMES`).
REDUCE_FUNCTIONS: Dict[str, Callable[..., np.ndarray]] = {
    "sum": np.sum,
    "max": np.max,
}

def _aligned(
    array: np.ndarray,
    in_dims: Tuple[str, ...],
    out_dims: Tuple[str, ...],
) -> np.ndarray:
    """Broadcast-align ``array`` (dims ``in_dims``) to ``out_dims``.

    Input dims must be a subset of output dims; missing dims become
    broadcast axes of extent 1.
    """
    order = [d for d in out_dims if d in in_dims]
    perm = [in_dims.index(d) for d in order]
    array = np.transpose(array, perm)
    shape = [
        array.shape[order.index(d)] if d in order else 1 for d in out_dims
    ]
    return array.reshape(shape)


def _einsum_subscripts(op: EinsumOp) -> str:
    """Build a ``np.einsum`` subscript string for a contraction op."""
    letters: Dict[str, str] = {}
    pool = iter(string.ascii_lowercase)
    for spec in list(op.inputs) + [op.output]:
        for d in spec.dims:
            if d not in letters:
                letters[d] = next(pool)
    ins = ",".join(
        "".join(letters[d] for d in t.dims) for t in op.inputs
    )
    out = "".join(letters[d] for d in op.output.dims)
    return f"{ins}->{out}"


def evaluate_op(
    op: EinsumOp,
    env: Mapping[str, np.ndarray],
    extents: Mapping[str, int],
) -> np.ndarray:
    """Evaluate one Extended-Einsum op against an environment.

    Args:
        op: The operation to evaluate.
        env: Tensor name -> concrete array.  Must contain every input
            (and bias) of ``op``.
        extents: Dimension extents, used for extent-dependent constants
            such as LayerNorm's ``1 / (H * F)``.

    Returns:
        The output array, with axes ordered as ``op.output.dims``.
    """
    arrays = [np.asarray(env[t.name], dtype=np.float64) for t in op.inputs]
    if op.kind is OpKind.CONTRACTION:
        result = np.einsum(_einsum_subscripts(op), *arrays)
        if op.bias is not None:
            bias = np.asarray(env[op.bias.name], dtype=np.float64)
            result = result + _aligned(
                bias, op.bias.dims, op.output.dims
            )
        return result
    if op.kind is OpKind.MAP:
        fn = MAP_FUNCTIONS[op.fn]
        aligned = [
            _aligned(arr, t.dims, op.output.dims)
            for arr, t in zip(arrays, op.inputs)
        ]
        return fn(*aligned, const=op.effective_const(extents))
    # REDUCTION
    source = op.inputs[0]
    reducer = REDUCE_FUNCTIONS[op.fn]
    axes = tuple(
        i for i, d in enumerate(source.dims) if d not in op.output.dims
    )
    reduced = reducer(arrays[0], axis=axes)
    kept = [d for d in source.dims if d in op.output.dims]
    perm = [kept.index(d) for d in op.output.dims]
    return np.transpose(reduced, perm)


def _check_input_shapes(
    cascade: Cascade,
    inputs: Mapping[str, np.ndarray],
    extents: Mapping[str, int],
) -> None:
    for spec in cascade.external_inputs:
        if spec.name not in inputs:
            raise KeyError(
                f"cascade {cascade.name!r}: missing input {spec.name!r}"
            )
        got = np.asarray(inputs[spec.name]).shape
        want = spec.shape(extents)
        if got != want:
            raise ValueError(
                f"cascade {cascade.name!r}: input {spec.name!r} has shape "
                f"{got}, expected {want}"
            )


def _slice_loop_inputs(
    cascade: Cascade,
    inputs: Mapping[str, np.ndarray],
    step: int,
) -> Dict[str, np.ndarray]:
    """Slice loop-indexed external inputs at iteration ``step``."""
    env: Dict[str, np.ndarray] = {}
    for spec in cascade.external_inputs:
        arr = np.asarray(inputs[spec.name], dtype=np.float64)
        if cascade.loop_dim in spec.dims:
            axis = spec.dims.index(cascade.loop_dim)
            arr = np.take(arr, step, axis=axis)
        env[spec.name] = arr
    return env


def evaluate_cascade(
    cascade: Cascade,
    inputs: Mapping[str, np.ndarray],
    extents: Mapping[str, int],
) -> Dict[str, np.ndarray]:
    """Evaluate a cascade and return its declared outputs.

    Args:
        cascade: The cascade to run.
        inputs: External input arrays keyed by tensor name, shaped per
            the cascade's external specs under ``extents``.
        extents: Dimension extents (must cover the loop dim if any).

    Returns:
        Output tensor name -> array.
    """
    _check_input_shapes(cascade, inputs, extents)
    if cascade.loop_dim is None:
        env: Dict[str, np.ndarray] = {
            name: np.asarray(arr, dtype=np.float64)
            for name, arr in inputs.items()
        }
        for op in cascade.ops:
            env[op.output.name] = evaluate_op(op, env, extents)
        for op in cascade.epilogue:
            env[op.output.name] = evaluate_op(op, env, extents)
        return {name: env[name] for name in cascade.outputs}

    trips = int(extents[cascade.loop_dim])
    if trips <= 0:
        raise ValueError(
            f"loop dim {cascade.loop_dim!r} must have positive extent"
        )
    state: Dict[str, np.ndarray] = {
        name: np.full(sspec.spec.shape(extents), sspec.init)
        for name, sspec in cascade.state.items()
    }
    last_env: Dict[str, np.ndarray] = {}
    for step in range(trips):
        env = _slice_loop_inputs(cascade, inputs, step)
        env.update(state)
        for op in cascade.ops:
            env[op.output.name] = evaluate_op(op, env, extents)
        for name, sspec in cascade.state.items():
            state[name] = env[sspec.update_from]
        last_env = env
    epilogue_env = dict(last_env)
    epilogue_env.update(state)
    for op in cascade.epilogue:
        epilogue_env[op.output.name] = evaluate_op(op, epilogue_env, extents)
    results: Dict[str, np.ndarray] = {}
    for name in cascade.outputs:
        if name in cascade.state:
            results[name] = state[name]
        else:
            results[name] = epilogue_env[name]
    return results

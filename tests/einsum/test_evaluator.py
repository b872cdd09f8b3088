"""Tests for the NumPy cascade evaluator."""

import numpy as np
import pytest

from repro.einsum.cascade import Cascade
from repro.einsum.evaluator import (
    MAP_FUNCTIONS,
    REDUCE_FUNCTIONS,
    _aligned,
    _einsum_subscripts,
    evaluate_cascade,
    evaluate_op,
)
from repro.einsum.operation import (
    MAP_ARITY,
    REDUCE_NAMES,
    contraction,
    map_op,
    reduction,
)
from repro.einsum.tensor import tensor


class TestAlignment:
    def test_broadcast_missing_dim(self):
        arr = np.arange(6).reshape(2, 3)
        out = _aligned(arr, ("a", "b"), ("a", "c", "b"))
        assert out.shape == (2, 1, 3)

    def test_transpose_to_output_order(self):
        arr = np.arange(6).reshape(2, 3)
        out = _aligned(arr, ("a", "b"), ("b", "a"))
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out, arr.T)


class TestEvaluateOp:
    def test_contraction_matches_numpy_einsum(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        op = contraction(
            "Z",
            (tensor("A", "m", "k"), tensor("B", "k", "n")),
            tensor("Z", "m", "n"),
        )
        out = evaluate_op(op, {"A": a, "B": b}, {})
        np.testing.assert_allclose(out, a @ b)

    def test_contraction_subscripts_handle_multichar_dims(self):
        op = contraction(
            "Z",
            (tensor("A", "m0", "m1"), tensor("B", "m1", "p")),
            tensor("Z", "m0", "p"),
        )
        subs = _einsum_subscripts(op)
        assert "->" in subs
        lhs, rhs = subs.split("->")
        assert len(rhs) == 2

    def test_contraction_with_bias_broadcast(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        bias = rng.normal(size=(5,))
        op = contraction(
            "Z",
            (tensor("A", "m", "k"), tensor("B", "k", "n")),
            tensor("Z", "m", "n"),
            bias=tensor("C", "n"),
        )
        out = evaluate_op(op, {"A": a, "B": b, "C": bias}, {})
        np.testing.assert_allclose(out, a @ b + bias)

    def test_map_exp_diff(self, rng):
        x = rng.normal(size=(2, 3))
        m = rng.normal(size=(2,))
        op = map_op(
            "S", "exp_diff",
            (tensor("X", "h", "p"), tensor("M", "h")),
            tensor("S", "h", "p"),
        )
        out = evaluate_op(op, {"X": x, "M": m}, {})
        np.testing.assert_allclose(out, np.exp(x - m[:, None]))

    def test_map_scale_with_inv_extent_dims(self, rng):
        x = rng.normal(size=(4,))
        op = map_op(
            "M", "scale", (tensor("X", "p"),), tensor("M", "p"),
            inv_extent_dims=("h", "f"),
        )
        out = evaluate_op(op, {"X": x}, {"h": 2, "f": 4})
        np.testing.assert_allclose(out, x / 8)

    def test_registries_cover_the_validated_names(self):
        # Ops validate against the numpy-free name tables; every name
        # they accept must have an evaluator callable.
        assert set(MAP_FUNCTIONS) == set(MAP_ARITY)
        assert set(REDUCE_FUNCTIONS) == set(REDUCE_NAMES)

    @pytest.mark.parametrize("fn", sorted(MAP_ARITY))
    def test_every_map_fn_evaluates_at_its_arity(self, fn, rng):
        names = ("A", "B")[:MAP_ARITY[fn]]
        op = map_op(
            "Y", fn, tuple(tensor(n, "p") for n in names),
            tensor("Y", "p"), const=2.0,
        )
        env = {n: rng.random(3) + 0.5 for n in names}
        assert evaluate_op(op, env, {}).shape == (3,)

    def test_reduction_max_over_axis(self, rng):
        x = rng.normal(size=(2, 5, 3))
        op = reduction(
            "M", "max", tensor("X", "h", "m", "p"),
            tensor("M", "h", "p"),
        )
        out = evaluate_op(op, {"X": x}, {})
        np.testing.assert_allclose(out, x.max(axis=1))

    def test_reduction_respects_output_order(self, rng):
        x = rng.normal(size=(2, 5, 3))
        op = reduction(
            "M", "sum", tensor("X", "h", "m", "p"),
            tensor("M", "p", "h"),
        )
        out = evaluate_op(op, {"X": x}, {})
        np.testing.assert_allclose(out, x.sum(axis=1).T)


class TestEvaluateCascade:
    def test_straight_line_cascade(self, rng):
        a = tensor("A", "m", "k")
        b = tensor("B", "k", "n")
        cascade = Cascade(
            name="mm_exp",
            ops=(
                contraction("Z", (a, b), tensor("Z", "m", "n")),
                map_op("Y", "exp", (tensor("Z", "m", "n"),),
                       tensor("Y", "m", "n")),
            ),
            external_inputs=(a, b),
            outputs=("Y",),
        )
        av = rng.normal(size=(2, 3))
        bv = rng.normal(size=(3, 4))
        out = evaluate_cascade(
            cascade, {"A": av, "B": bv}, {"m": 2, "k": 3, "n": 4}
        )
        np.testing.assert_allclose(out["Y"], np.exp(av @ bv))

    def test_missing_input_raises(self, rng):
        a = tensor("A", "p")
        cascade = Cascade(
            name="id",
            ops=(map_op("X", "identity", (a,), tensor("X", "p")),),
            external_inputs=(a,),
            outputs=("X",),
        )
        with pytest.raises(KeyError, match="missing input"):
            evaluate_cascade(cascade, {}, {"p": 3})

    def test_wrong_shape_raises(self, rng):
        a = tensor("A", "p")
        cascade = Cascade(
            name="id",
            ops=(map_op("X", "identity", (a,), tensor("X", "p")),),
            external_inputs=(a,),
            outputs=("X",),
        )
        with pytest.raises(ValueError, match="has shape"):
            evaluate_cascade(
                cascade, {"A": np.zeros(4)}, {"p": 3}
            )

    def test_zero_loop_trips_rejected(self, rng):
        from repro.einsum.builders import attention_cascade

        mha = attention_cascade()
        ext = {"h": 1, "e": 2, "f": 2, "p": 2, "m1": 0, "m0": 2}
        inputs = {
            "Q": np.zeros((1, 2, 2)),
            "BK": np.zeros((1, 2, 0, 2)),
            "BV": np.zeros((1, 2, 0, 2)),
        }
        with pytest.raises(ValueError, match="positive"):
            evaluate_cascade(mha, inputs, ext)

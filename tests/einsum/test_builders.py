"""Numerical validation of Einsum Cascades 1-4 against the textbook
reference -- the paper's correctness claim for end-to-end fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.einsum.builders import (
    SUBLAYER_BUILDERS,
    attention_cascade,
    ffn_cascade,
    layernorm_cascade,
    qkv_cascade,
)
from repro.einsum.evaluator import evaluate_cascade
from repro.reference.functional import (
    feed_forward,
    layer_norm,
    multi_head_attention,
    qkv_projection,
)


def small_dims(draw):
    return {
        "h": draw(st.integers(1, 4)),
        "e": draw(st.integers(1, 6)),
        "p": draw(st.integers(1, 6)),
        "m1": draw(st.integers(1, 5)),
        "m0": draw(st.integers(1, 4)),
    }


class TestCascade1Attention:
    """1-pass attention (Cascade 1) == softmax attention (Eq. 1)."""

    def test_matches_reference_on_fixed_shapes(self, rng,
                                               tiny_extents):
        ext = dict(tiny_extents)
        h, e, f = ext["h"], ext["e"], ext["f"]
        p, m1, m0 = ext["p"], ext["m1"], ext["m0"]
        q = rng.normal(size=(h, e, p))
        bk = rng.normal(size=(h, e, m1, m0))
        bv = rng.normal(size=(h, f, m1, m0))
        out = evaluate_cascade(
            attention_cascade(), {"Q": q, "BK": bk, "BV": bv}, ext
        )
        ref = multi_head_attention(
            q, bk.reshape(h, e, m1 * m0), bv.reshape(h, f, m1 * m0)
        )
        np.testing.assert_allclose(out["AV"], ref, atol=1e-10)

    def test_has_twelve_einsum_operators(self):
        # FuseMax structures 1-pass attention as 12 primitive Einsums
        # (Section 6.1); the cascade must match.
        assert len(attention_cascade()) == 12

    def test_single_tile_degenerates_to_plain_softmax(self, rng):
        ext = {"h": 2, "e": 3, "f": 3, "p": 4, "m1": 1, "m0": 6}
        q = rng.normal(size=(2, 3, 4))
        bk = rng.normal(size=(2, 3, 1, 6))
        bv = rng.normal(size=(2, 3, 1, 6))
        out = evaluate_cascade(
            attention_cascade(), {"Q": q, "BK": bk, "BV": bv}, ext
        )
        ref = multi_head_attention(
            q, bk.reshape(2, 3, 6), bv.reshape(2, 3, 6)
        )
        np.testing.assert_allclose(out["AV"], ref, atol=1e-10)

    def test_numerically_stable_under_large_scores(self, rng):
        # The running-max subtraction must prevent overflow even with
        # score magnitudes that would overflow a naive exp.
        ext = {"h": 1, "e": 2, "f": 2, "p": 3, "m1": 4, "m0": 2}
        q = 100.0 * rng.normal(size=(1, 2, 3))
        bk = 100.0 * rng.normal(size=(1, 2, 4, 2))
        bv = rng.normal(size=(1, 2, 4, 2))
        out = evaluate_cascade(
            attention_cascade(), {"Q": q, "BK": bk, "BV": bv}, ext
        )
        assert np.all(np.isfinite(out["AV"]))
        ref = multi_head_attention(
            q, bk.reshape(1, 2, 8), bv.reshape(1, 2, 8)
        )
        np.testing.assert_allclose(out["AV"], ref, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1))
    def test_matches_reference_on_random_shapes(self, data, seed):
        dims = small_dims(data.draw)
        dims["f"] = dims["e"]
        gen = np.random.default_rng(seed)
        h, e, f = dims["h"], dims["e"], dims["f"]
        p, m1, m0 = dims["p"], dims["m1"], dims["m0"]
        q = gen.normal(size=(h, e, p))
        bk = gen.normal(size=(h, e, m1, m0))
        bv = gen.normal(size=(h, f, m1, m0))
        out = evaluate_cascade(
            attention_cascade(), {"Q": q, "BK": bk, "BV": bv}, dims
        )
        ref = multi_head_attention(
            q, bk.reshape(h, e, m1 * m0), bv.reshape(h, f, m1 * m0)
        )
        np.testing.assert_allclose(out["AV"], ref, atol=1e-8)


class TestCascade2QKV:
    def test_matches_reference(self, rng, tiny_extents):
        ext = dict(tiny_extents)
        d, p = ext["d"], ext["p"]
        m1, m0 = ext["m1"], ext["m0"]
        h, e, f = ext["h"], ext["e"], ext["f"]
        inp_q = rng.normal(size=(d, p))
        inp_kv = rng.normal(size=(d, m1, m0))
        wq = rng.normal(size=(d, h, e))
        wk = rng.normal(size=(d, h, e))
        wv = rng.normal(size=(d, h, f))
        out = evaluate_cascade(
            qkv_cascade(),
            {"INP_Q": inp_q, "INP_KV": inp_kv, "WQ": wq, "WK": wk,
             "WV": wv},
            ext,
        )
        ref = qkv_projection(
            inp_q, inp_kv.reshape(d, m1 * m0), wq, wk, wv
        )
        np.testing.assert_allclose(out["Q"], ref["Q"])
        np.testing.assert_allclose(
            out["BK"].reshape(h, e, m1 * m0), ref["K"]
        )
        np.testing.assert_allclose(
            out["BV"].reshape(h, f, m1 * m0), ref["V"]
        )

    def test_projections_are_independent(self):
        cascade = qkv_cascade()
        for op in cascade.ops:
            assert not any(
                inp in {o.output.name for o in cascade.ops}
                for inp in op.dataflow_input_names()
            )


class TestCascade3LayerNorm:
    def test_matches_reference(self, rng, tiny_extents):
        ext = dict(tiny_extents)
        shape = (ext["h"], ext["f"], ext["p"])
        inp = rng.normal(size=shape)
        av = rng.normal(size=shape)
        out = evaluate_cascade(
            layernorm_cascade(), {"INP": inp, "AV": av}, ext
        )
        np.testing.assert_allclose(
            out["NR"], layer_norm(inp, av), atol=1e-10
        )

    def test_eps_variant_matches_reference(self, rng, tiny_extents):
        ext = dict(tiny_extents)
        shape = (ext["h"], ext["f"], ext["p"])
        inp = rng.normal(size=shape)
        av = rng.normal(size=shape)
        out = evaluate_cascade(
            layernorm_cascade(eps=1e-3), {"INP": inp, "AV": av}, ext
        )
        np.testing.assert_allclose(
            out["NR"], layer_norm(inp, av, eps=1e-3), atol=1e-10
        )

    def test_output_statistics(self, rng, tiny_extents):
        # LayerNorm output has zero mean and unit variance per token.
        ext = dict(tiny_extents)
        shape = (ext["h"], ext["f"], ext["p"])
        out = evaluate_cascade(
            layernorm_cascade(),
            {"INP": rng.normal(size=shape),
             "AV": rng.normal(size=shape)},
            ext,
        )["NR"]
        np.testing.assert_allclose(
            out.mean(axis=(0, 1)), 0.0, atol=1e-10
        )
        np.testing.assert_allclose(
            np.square(out).mean(axis=(0, 1)), 1.0, atol=1e-10
        )


class TestCascade4FFN:
    @pytest.mark.parametrize("activation", ["relu", "gelu", "silu"])
    def test_matches_reference(self, rng, tiny_extents, activation):
        ext = dict(tiny_extents)
        h, f, p, s = ext["h"], ext["f"], ext["p"], ext["s"]
        nr = rng.normal(size=(h, f, p))
        wf1 = rng.normal(size=(h, f, s))
        bf1 = rng.normal(size=(s,))
        wf2 = rng.normal(size=(h, f, s))
        bf2 = rng.normal(size=(h, f))
        out = evaluate_cascade(
            ffn_cascade(activation),
            {"NR": nr, "WF1": wf1, "BF1": bf1, "WF2": wf2,
             "BF2": bf2},
            ext,
        )
        ref = feed_forward(nr, wf1, bf1, wf2, bf2, activation)
        np.testing.assert_allclose(out["FFN2"], ref, atol=1e-10)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unsupported activation"):
            ffn_cascade("tanh")


class TestBuilderRegistry:
    def test_all_sublayers_present(self):
        assert set(SUBLAYER_BUILDERS) == {
            "qkv", "mha", "layernorm", "ffn"
        }

    def test_builders_produce_valid_cascades(self):
        for builder in SUBLAYER_BUILDERS.values():
            cascade = builder()
            assert len(cascade) > 0


class TestMemoisedBuilders:
    """Builders are memoised per process: callers share one instance
    per argument tuple, and nothing they do may change it."""

    BUILDERS = (qkv_cascade, attention_cascade, layernorm_cascade,
                ffn_cascade)

    @staticmethod
    def _fresh(model, masked):
        """The four cascades of ``ExecutorBase.cascades``, built by
        the undecorated builders."""
        return {
            "qkv": qkv_cascade.__wrapped__(
                kv_cost_fraction=model.kv_fraction
            ),
            "mha": attention_cascade.__wrapped__(masked=masked),
            "layernorm": layernorm_cascade.__wrapped__(),
            "ffn": ffn_cascade.__wrapped__(model.activation),
        }

    def test_equal_arguments_share_one_pristine_instance(self):
        cases = [
            (qkv_cascade, (), {"kv_cost_fraction": 0.25}),
            (attention_cascade, (), {"masked": True}),
            (layernorm_cascade, (1e-5,), {}),
            (ffn_cascade, ("relu",), {}),
        ]
        for builder, args, kwargs in cases:
            shared = builder(*args, **kwargs)
            assert builder(*args, **kwargs) is shared
            assert shared == builder.__wrapped__(*args, **kwargs)
            assert builder() is builder()

    def test_argument_types_do_not_alias(self):
        # An int weight would reach the kernel key as ``1``, not
        # ``1.0``: typed memoisation keeps the two apart.
        assert qkv_cascade(1) is not qkv_cascade(1.0)
        assert qkv_cascade(1.0) == qkv_cascade.__wrapped__(1.0)

    def test_shared_cascades_survive_a_grid(self):
        from repro.baselines.registry import named_executor
        from repro.dpipe import planner
        from repro.model.config import named_model
        from repro.runner import GridPoint, run_grid

        planner.clear_kernel_cache()
        points = [
            GridPoint(executor, model, 512, arch, batch=1,
                      causal=causal)
            for executor in ("transfusion", "fusemax")
            for model, arch, causal in (
                ("bert", "edge", False),
                ("llama3-gqa", "cloud", True),
            )
        ]
        run_grid(points, jobs=1, use_cache=False)
        executor = named_executor("transfusion")
        shared = []
        for model, causal in (("bert", False), ("llama3-gqa", True)):
            config = named_model(model)
            cascades = executor.cascades(config, masked=causal)
            assert cascades == self._fresh(config, causal)
            shared.extend(cascades.values())
        planned = [s.cascade for s in planner._SKELETONS.values()]
        assert planned
        assert all(
            any(cascade is instance for instance in shared)
            for cascade in planned
        )

    def test_clear_kernel_cache_drops_every_memo(self, cloud):
        from repro.dpipe import planner
        from repro.sim.mapping import inner_tile_extents
        from repro.validate import force_validation

        cascade = attention_cascade()
        extents = {"h": 8, "e": 64, "f": 64, "p": 256, "m0": 256,
                   "m1": 1}
        tile = inner_tile_extents("mha", extents, cloud.array_2d)
        with force_validation(False):
            planner.plan_cascade(cascade, "mha", tile, cloud, 4)
        assert planner.kernel_cache_size() > 0
        assert planner._skeleton(cascade).keys
        planner.clear_kernel_cache()
        assert planner.kernel_cache_size() == 0
        assert planner._SKELETONS == {}
        for builder in self.BUILDERS:
            assert builder.cache_info().currsize == 0
        assert attention_cascade() is not cascade

"""Attention / MHA / FFN semantics against directly-coded loop oracles,
plus initialization statistics and composed gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifthead import blocks as B
from lifthead import tensor as T
from lifthead.gradcheck import check_op


def drawn(rng, init, *args, **kw):
    """init(*args, jobs=..., **kw) with the Xavier draws it queues made from
    rng by one blocks.fill_uniform."""
    jobs = []
    params = init(*args, jobs=jobs, **kw)
    B.fill_uniform(rng, jobs)
    return params


def t64(a, grad=False):
    return T.Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


def attention_oracle(q, k, v, d):
    """Two-loop reference of softmax(q k^T / sqrt(d)) v: softmax over keys,
    row by row."""
    m, n = q.shape[0], k.shape[0]
    out = np.zeros((m, v.shape[1]))
    for i in range(m):
        logits = np.array([q[i] @ k[j] for j in range(n)]) / math.sqrt(d)
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        for j in range(n):
            out[i] += w[j] * v[j]
    return out


def per_head_oracle(p, q, k, v):
    """Per-head loop over column slices of the fused projections; every
    head divides its scores by sqrt(d), the full width."""
    d = p.q.weight.shape[1]
    dk = d // p.h
    head_outs = []
    for i in range(p.h):
        cols = slice(i * dk, (i + 1) * dk)
        qh, kh, vh = (x @ lp.weight.data[:, cols] + lp.bias.data[cols]
                      for x, lp in ((q, p.q), (k, p.k), (v, p.v)))
        head_outs.append(attention_oracle(qh, kh, vh, d))
    return np.concatenate(head_outs, axis=1) @ p.out.weight.data + p.out.bias.data


def identity_linear(d):
    return B.LinearParams(weight=t64(np.eye(d), grad=True),
                          bias=t64(np.zeros(d), grad=True))


def attend(q, k, v, batch=1):
    """multi_head_attention with one head and identity projections: the
    attention core softmax(q k^T / sqrt(d)) v alone, for (batch*m, d)
    queries and (batch*n, d) keys and values."""
    d = q.shape[-1]
    p = B.MHAParams(q=identity_linear(d), k=identity_linear(d), v=identity_linear(d),
                    out=identity_linear(d), h=1)
    return B.multi_head_attention(p, q, k, v, batch=batch)


class TestAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(0)
        q = t64(rng.normal(size=(3, 4)))
        k = t64(rng.normal(size=(1, 4)))
        v = t64(rng.normal(size=(1, 4)))
        out = attend(q, k, v)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 3, axis=0), atol=1e-12)

    def test_zero_query_uniform_mean(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(5, 4))
        out = attend(t64(np.zeros((2, 4))), t64(rng.normal(size=(5, 4))), t64(v))
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(2)
        q, k, v = rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = attend(t64(q), t64(k), t64(v))
        np.testing.assert_allclose(out.data, attention_oracle(q, k, v, 4), atol=1e-6)

    def test_convex_hull_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q, k, v = (rng.normal(size=(4, 6)), rng.normal(size=(5, 6)),
                       rng.normal(size=(5, 6)))
            out = attend(t64(q), t64(k), t64(v)).data
            lo, hi = v.min(axis=0), v.max(axis=0)
            assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_key_value_permutation_invariance(self):
        rng = np.random.default_rng(4)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        a = attend(t64(q), t64(k), t64(v)).data
        b = attend(t64(q), t64(k[perm]), t64(v[perm])).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_batched_matches_per_sample(self):
        # 3 queries attend over 5 keys of width 4 in each of 2 samples; no
        # query sees the other sample's keys
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4)),
                   rng.normal(size=(2, 5, 4)))
        out = attend(*(t64(x.reshape(-1, 4)) for x in (q, k, v)), batch=2).data
        assert out.shape == (6, 4)
        for b in range(2):
            np.testing.assert_allclose(out[3 * b:3 * (b + 1)],
                                       attention_oracle(q[b], k[b], v[b], 4), atol=1e-12)


class TestMultiHeadAttention:
    def test_single_head_identity_projections(self):
        d = 4
        rng = np.random.default_rng(5)
        q, k, v = rng.normal(size=(3, d)), rng.normal(size=(5, d)), rng.normal(size=(5, d))
        scores = q @ k.T / math.sqrt(d)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        want = weights / weights.sum(axis=1, keepdims=True) @ v
        np.testing.assert_allclose(attend(t64(q), t64(k), t64(v)).data, want, atol=1e-12)

    def test_output_shape(self):
        rng = np.random.default_rng(6)
        p = drawn(rng, B.init_mha, d=8, h=2, dtype=np.float64)
        out = B.multi_head_attention(p, t64(rng.normal(size=(5, 8))),
                                     t64(rng.normal(size=(7, 8))),
                                     t64(rng.normal(size=(7, 8))))
        assert out.shape == (5, 8)

    def test_matches_per_head_loop_oracle(self):
        d, h = 8, 2
        rng = np.random.default_rng(7)
        p = drawn(rng, B.init_mha, d=d, h=h, dtype=np.float64)
        # break the zero-bias symmetry so the oracle exercises biases too
        for lp in (p.q, p.k, p.v, p.out):
            lp.bias.data = rng.normal(size=d)
        q, k, v = rng.normal(size=(3, d)), rng.normal(size=(4, d)), rng.normal(size=(4, d))
        got = B.multi_head_attention(p, t64(q), t64(k), t64(v))
        np.testing.assert_allclose(got.data, per_head_oracle(p, q, k, v), atol=1e-6)

    @given(h=st.sampled_from([1, 2, 4]), dk=st.integers(1, 3), batch=st.integers(1, 3),
           m=st.integers(1, 4), n=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_per_sample_oracle(self, h, dk, batch, m, n, seed):
        d = h * dk
        rng = np.random.default_rng(seed)
        p = drawn(rng, B.init_mha, d=d, h=h, dtype=np.float64)
        for lp in (p.q, p.k, p.v, p.out):
            lp.bias.data = rng.normal(size=d)
        q = rng.normal(size=(batch, m, d))
        k, v = rng.normal(size=(batch, n, d)), rng.normal(size=(batch, n, d))
        got = B.multi_head_attention(p, t64(q.reshape(-1, d)), t64(k.reshape(-1, d)),
                                     t64(v.reshape(-1, d)), batch=batch)
        want = np.concatenate([per_head_oracle(p, q[s], k[s], v[s]) for s in range(batch)])
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-10)

    def test_rows_must_split_into_samples(self):
        p = drawn(np.random.default_rng(0), B.init_mha, d=4, h=2, dtype=np.float64)
        x = t64(np.zeros((5, 4)))
        with pytest.raises(T.ShapeError, match="samples"):
            B.multi_head_attention(p, x, x, x, batch=2)

    def test_fused_init_is_concatenated_per_head_draws(self):
        d, h = 12, 3
        got = drawn(np.random.default_rng(3), B.init_mha, d=d, h=h)
        rng = np.random.default_rng(3)
        heads = [[drawn(rng, B.init_params, d, d // h) for _ in range(3)] for _ in range(h)]
        out = drawn(rng, B.init_params, d, d)
        for j, lp in enumerate((got.q, got.k, got.v)):
            want = np.concatenate([hd[j].weight.data for hd in heads], axis=1)
            assert lp.weight.data.dtype == want.dtype
            np.testing.assert_array_equal(lp.weight.data, want)
            np.testing.assert_array_equal(lp.bias.data, np.zeros(d, dtype=np.float32))
        np.testing.assert_array_equal(got.out.weight.data, out.weight.data)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(T.ShapeError):
            drawn(np.random.default_rng(0), B.init_mha, d=8, h=3)


class TestFeedForward:
    def test_zero_params_zero_output(self):
        zero = lambda: B.LinearParams(weight=t64(np.zeros((4, 4)), grad=True),
                                      bias=t64(np.zeros(4), grad=True))
        p = B.FFNParams(layers=[zero(), zero(), zero()])
        out = B.feed_forward(p, t64(np.random.default_rng(0).normal(size=(3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_shape_preserved(self):
        p = drawn(np.random.default_rng(1), B.init_ffn, d=8, dtype=np.float64)
        out = B.feed_forward(p, t64(np.random.default_rng(2).normal(size=(5, 8))))
        assert out.shape == (5, 8)

    def test_matches_hand_composed_chain(self):
        rng = np.random.default_rng(8)
        p = drawn(rng, B.init_ffn, d=8, dtype=np.float64)
        for lp in p.layers:
            lp.bias.data = rng.normal(size=8)
        x = rng.normal(size=(3, 8))
        h1 = np.maximum(x @ p.layers[0].weight.data + p.layers[0].bias.data, 0)
        h2 = np.maximum(h1 @ p.layers[1].weight.data + p.layers[1].bias.data, 0)
        want = h2 @ p.layers[2].weight.data + p.layers[2].bias.data
        got = B.feed_forward(p, t64(x))
        np.testing.assert_allclose(got.data, want, atol=1e-6)

    def test_requires_exactly_three_layers(self):
        rng = np.random.default_rng(0)
        with pytest.raises(T.ShapeError):
            B.FFNParams(layers=[drawn(rng, B.init_params, 4, 4) for _ in range(2)])


class TestInitParams:
    def test_bias_exactly_zero(self):
        p = drawn(np.random.default_rng(0), B.init_params, 16, 8)
        np.testing.assert_array_equal(p.bias.data, np.zeros(8))

    def test_weight_variance(self):
        fan_in, fan_out = 100, 100
        p = drawn(np.random.default_rng(1), B.init_params, fan_in, fan_out)
        target = 2.0 / (fan_in + fan_out)
        var = p.weight.data.var()
        assert abs(var - target) / target < 0.10

    def test_same_seed_bit_identical(self):
        a = drawn(np.random.default_rng(7), B.init_params, 8, 8)
        b = drawn(np.random.default_rng(7), B.init_params, 8, 8)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            drawn(np.random.default_rng(0), B.init_params, 0, 4)

    def test_positive_fan_out_required(self):
        with pytest.raises(ValueError, match="must be positive, got 4, 0"):
            drawn(np.random.default_rng(0), B.init_params, 4, 0)


class TestComposedGradients:
    def test_attention_gradcheck(self):
        rng = np.random.default_rng(9)
        q, k, v = (rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (4, 3)),
                   rng.uniform(-1, 1, (4, 3)))
        err = check_op(lambda t: T.sum_(attend(*t)), [q, k, v])
        assert err < 1e-5

    def test_mha_gradcheck_all_params(self):
        d, h = 4, 2
        rng = np.random.default_rng(10)
        q, k, v = (rng.uniform(-1, 1, (2, d)), rng.uniform(-1, 1, (3, d)),
                   rng.uniform(-1, 1, (3, d)))
        arrays = [rng.uniform(-1, 1, (d, d)) for _ in range(4)] + \
                 [rng.uniform(-1, 1, (d,)) for _ in range(4)]

        def build(ts):
            q_p, k_p, v_p, out_p = (B.LinearParams(ts[i], ts[4 + i]) for i in range(4))
            p = B.MHAParams(q=q_p, k=k_p, v=v_p, out=out_p, h=h)
            return T.sum_(B.multi_head_attention(
                p, T.Tensor(q, dtype=np.float64), T.Tensor(k, dtype=np.float64),
                T.Tensor(v, dtype=np.float64)))

        assert check_op(build, arrays) < 1e-5

    def test_ffn_gradcheck(self):
        d = 4
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, (3, d))
        arrays = [rng.uniform(-1, 1, (d, d)) for _ in range(3)] + \
                 [rng.uniform(-1, 1, (d,)) for _ in range(3)] + [x]

        def build(ts):
            p = B.FFNParams(layers=[B.LinearParams(ts[i], ts[3 + i]) for i in range(3)])
            return T.sum_(B.feed_forward(p, ts[6]))

        assert check_op(build, arrays) < 1e-5

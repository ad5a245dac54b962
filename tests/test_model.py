"""Lifting-head tests: template assembly, block composition against plain
numpy references, structural invariances, and end-to-end gradient checks."""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lifthead.blocks as B
import lifthead.model as M
import lifthead.tensor as T
import lifthead.workers as W
from lifthead.gradcheck import rel_error
from lifthead.model import HeadConfig, NormalizationDegenerateError
from lifthead.tensor import Tape, Tensor, backward
from test_blocks import drawn


def tiny_cfg(**kw):
    base = dict(L=2, h=2, d=8, n_patches=4, c_in=6, dropout=0.0)
    base.update(kw)
    return HeadConfig(**base)


def make_head(cfg, seed=0, dtype=np.float64):
    return M.init_head(cfg, np.random.default_rng(seed), dtype=dtype)


def rand_features(cfg, seed=1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((cfg.n_patches, cfg.c_in)).astype(dtype))


# ---------------------------------------------------------------- references

def np_linear(p, x):
    return x @ p.weight.data + p.bias.data


def np_softmax(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def np_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def np_mha(p, q, k, v):
    """Per-head loop; head i uses columns [i*d/h, (i+1)*d/h) of q, k, v."""
    dk = p.q.weight.shape[1] // p.h
    outs = []
    for i in range(p.h):
        cols = slice(i * dk, (i + 1) * dk)
        qi, ki, vi = (x @ lp.weight.data[:, cols] + lp.bias.data[cols]
                      for x, lp in ((q, p.q), (k, p.k), (v, p.v)))
        att = np_softmax(qi @ ki.T / np.sqrt(p.scale_dim))
        outs.append(att @ vi)
    return np_linear(p.out, np.concatenate(outs, axis=1))


def np_ffn(p, x):
    a, b, c = p.layers
    return np_linear(c, np.maximum(np_linear(b, np.maximum(np_linear(a, x), 0)), 0))


def np_stage(mha_out, residual, ln):
    return np.maximum(np_layer_norm(mha_out + residual, ln.gamma.data, ln.beta.data), 0)


def np_forward(cfg, params, feats, patch_indices=None):
    """One sample through the whole head in plain numpy."""
    t = params.templates
    keep = list(range(cfg.n_patches)) if patch_indices is None else list(patch_indices)
    e2d = np_linear(t.input_proj, feats[keep]) + t.pos_enc.data[keep]
    e3d = t.joint_emb.data[M.TEMPLATE_JOINTS] + t.type_emb.data[M.TEMPLATE_TYPES]
    for blk in params.blocks:
        e2d = np_ffn(blk.ffn_2d, np_stage(np_mha(blk.mha_2d, e2d, e2d, e2d), e2d, blk.ln_2d))
        e3d_t = np_stage(np_mha(blk.mha_3d, e3d, e3d, e3d), e3d, blk.ln_3d)
        e3d = np_ffn(blk.ffn_3d, np_stage(
            np_mha(blk.mha_cross, e3d_t, e2d, e2d), e3d_t, blk.ln_cross))
    nj, nt = cfg.n_joints, cfg.n_twists
    twist = np_linear(params.proj_twist, e3d[nj:nj + nt])
    return (np_linear(params.proj_kpt, e3d[:nj]),
            twist / np.linalg.norm(twist, axis=1, keepdims=True),
            np_linear(params.proj_beta, e3d[nj + nt:])[0])


# ------------------------------------------------------------------- config

class TestHeadConfig:
    def test_defaults_describe_paper_profile(self):
        cfg = HeadConfig()
        assert cfg.L == 6 and cfg.h == 8 and cfg.d == 512
        assert cfg.n_patches == 64 and cfg.c_in == 512 and cfg.dropout == 0.1
        assert cfg.n_templates == 48
        assert cfg.scale_dim == 512

    def test_width_must_divide_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            HeadConfig(d=10, h=3)

    def test_scale_dim_override(self):
        assert HeadConfig(attn_scale_dim=64).scale_dim == 64

    def test_pose_dim_counts_every_output_value(self):
        cfg = tiny_cfg()
        out = M.forward(cfg, make_head(cfg), rand_features(cfg))
        sizes = [t.data.size for t in (out.keypoints, out.twists, out.beta)]
        assert HeadConfig.pose_dim == sum(sizes) == 24 * 3 + 23 * 2 + 10

    @pytest.mark.parametrize("field,value", [
        ("L", 0), ("h", -1), ("d", 0), ("n_patches", 0), ("dropout", 1.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            HeadConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -4])
    def test_attn_scale_dim_must_be_positive(self, value):
        with pytest.raises(ValueError, match=f"attn_scale_dim must be positive, got {value}"):
            HeadConfig(attn_scale_dim=value)


# ---------------------------------------------------------------- templates

class TestTemplateAssembly:
    def test_row_wiring(self):
        np.testing.assert_array_equal(M.TEMPLATE_JOINTS,
                                      list(range(24)) + list(range(1, 24)) + [0])
        np.testing.assert_array_equal(M.TEMPLATE_TYPES, [0] * 24 + [1] * 23 + [2])
        cfg = tiny_cfg()
        params = make_head(cfg)
        t = params.templates
        e = M.assemble_templates(t)
        assert e.shape == (48, cfg.d)
        je, te = t.joint_emb.data, t.type_emb.data
        for j in range(24):
            np.testing.assert_array_equal(e.data[j], je[j] + te[0])
        for j in range(23):
            np.testing.assert_array_equal(e.data[24 + j], je[1 + j] + te[1])
        np.testing.assert_array_equal(e.data[47], je[0] + te[2])

    def test_every_joint_and_type_used(self):
        joints, types = M.TEMPLATE_JOINTS, M.TEMPLATE_TYPES
        assert len(joints) == len(types) == HeadConfig.n_templates == 48
        assert set(joints.tolist()) == set(range(HeadConfig.n_joints))
        assert set(types.tolist()) == {0, 1, 2}


class TestEmbedSource:
    def test_projection_plus_position(self):
        cfg = tiny_cfg()
        params = make_head(cfg)
        feats = rand_features(cfg)
        got = M.embed_source(feats, params.templates)
        want = np_linear(params.templates.input_proj, feats.data) + params.templates.pos_enc.data
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    def test_patch_subset_selects_matching_rows(self):
        cfg = tiny_cfg()
        params = make_head(cfg)
        feats = rand_features(cfg)
        idx = [2, 0, 3]
        got = M.embed_source(feats, params.templates, patch_indices=idx)
        full = M.embed_source(feats, params.templates)
        np.testing.assert_array_equal(got.data, full.data[idx])

    def test_channel_mismatch_raises(self):
        cfg = tiny_cfg()
        params = make_head(cfg)
        bad = Tensor(np.zeros((cfg.n_patches, cfg.c_in + 1)))
        with pytest.raises(T.ShapeError, match="channels"):
            M.embed_source(bad, params.templates)


# ------------------------------------------------------------------- blocks

class TestBlockComposition:
    """Each stage must equal the plain-numpy composition of its pieces."""

    def setup_method(self):
        self.cfg = tiny_cfg()
        self.params = make_head(self.cfg, seed=3)
        self.blk = self.params.blocks[0]
        rng = np.random.default_rng(7)
        self.e2d = Tensor(rng.standard_normal((self.cfg.n_patches, self.cfg.d)))
        self.e3d = Tensor(rng.standard_normal((48, self.cfg.d)))

    def test_encode_2d(self):
        got = M.encode_2d_block(self.blk, self.e2d)
        a = np_mha(self.blk.mha_2d, self.e2d.data, self.e2d.data, self.e2d.data)
        want = np_ffn(self.blk.ffn_2d, np_stage(a, self.e2d.data, self.blk.ln_2d))
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    def test_encode_templates_has_no_ffn(self):
        got = M.encode_templates_block(self.blk, self.e3d)
        a = np_mha(self.blk.mha_3d, self.e3d.data, self.e3d.data, self.e3d.data)
        want = np_stage(a, self.e3d.data, self.blk.ln_3d)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    def test_decode_cross_attends_patches(self):
        got = M.decode_block(self.blk, self.e3d, self.e2d)
        a = np_mha(self.blk.mha_cross, self.e3d.data, self.e2d.data, self.e2d.data)
        want = np_ffn(self.blk.ffn_3d, np_stage(a, self.e3d.data, self.blk.ln_cross))
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    def test_full_stack_is_block_chain(self):
        cfg, params = self.cfg, self.params
        feats = rand_features(cfg, seed=9)
        e2d = np_linear(params.templates.input_proj, feats.data) + params.templates.pos_enc.data
        e3d = (params.templates.joint_emb.data[M.TEMPLATE_JOINTS]
               + params.templates.type_emb.data[M.TEMPLATE_TYPES])
        for blk in params.blocks:
            e2d = np_ffn(blk.ffn_2d, np_stage(
                np_mha(blk.mha_2d, e2d, e2d, e2d), e2d, blk.ln_2d))
            e3d_t = np_stage(np_mha(blk.mha_3d, e3d, e3d, e3d), e3d, blk.ln_3d)
            e3d = np_ffn(blk.ffn_3d, np_stage(
                np_mha(blk.mha_cross, e3d_t, e2d, e2d), e3d_t, blk.ln_cross))
        got2d, got3d = M.encode_decode(cfg, params, feats)
        np.testing.assert_allclose(got2d.data, e2d, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got3d.data, e3d, rtol=0, atol=1e-10)


# -------------------------------------------------------------- invariances

class TestInvariances:
    def test_patch_permutation_invariance(self):
        """Permuting patches together with their position rows must not change
        the pose outputs."""
        cfg = tiny_cfg(n_patches=6)
        params = make_head(cfg, seed=4, dtype=np.float32)
        feats = rand_features(cfg, seed=5, dtype=np.float32)
        out = M.forward(cfg, params, feats)

        perm = np.random.default_rng(0).permutation(cfg.n_patches)
        feats_p = Tensor(feats.data[perm])
        params.templates.pos_enc.data = params.templates.pos_enc.data[perm]
        out_p = M.forward(cfg, params, feats_p)

        for a, b in ((out.keypoints, out_p.keypoints),
                     (out.twists, out_p.twists), (out.beta, out_p.beta)):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-5)

    def test_template_row_permutation_equivariance(self):
        """Template rows carry no positional signal, so permuting them
        permutes every downstream row. Cross-attention is bit-exact (each
        query row's computation is untouched); self-attention is exact only
        up to rounding because the permutation reorders each softmax row's
        summands."""
        cfg = tiny_cfg()
        params = make_head(cfg, seed=6, dtype=np.float32)
        blk = params.blocks[0]
        rng = np.random.default_rng(8)
        e3d = Tensor(rng.standard_normal((48, cfg.d)).astype(np.float32))
        e2d = Tensor(rng.standard_normal((cfg.n_patches, cfg.d)).astype(np.float32))
        perm = np.random.default_rng(1).permutation(48)

        enc = M.encode_templates_block(blk, e3d)
        enc_p = M.encode_templates_block(blk, Tensor(e3d.data[perm]))
        np.testing.assert_allclose(enc_p.data, enc.data[perm], rtol=0, atol=1e-5)

        dec = M.decode_block(blk, e3d, e2d)
        dec_p = M.decode_block(blk, Tensor(e3d.data[perm]), e2d)
        np.testing.assert_array_equal(dec_p.data, dec.data[perm])

    def test_eval_forward_is_deterministic(self):
        cfg = tiny_cfg(dropout=0.3)
        params = make_head(cfg, seed=2, dtype=np.float32)
        feats = rand_features(cfg, seed=2, dtype=np.float32)
        a = M.forward(cfg, params, feats)
        b = M.forward(cfg, params, feats)
        np.testing.assert_array_equal(a.keypoints.data, b.keypoints.data)
        np.testing.assert_array_equal(a.twists.data, b.twists.data)
        np.testing.assert_array_equal(a.beta.data, b.beta.data)

    def test_eval_forward_draws_nothing_from_rng(self):
        cfg = tiny_cfg(dropout=0.3)
        params = make_head(cfg, seed=2, dtype=np.float32)
        gen = np.random.default_rng(4)
        before = gen.bit_generator.state
        M.forward(cfg, params, rand_features(cfg, seed=2, dtype=np.float32),
                  training=False, rng=gen)
        assert gen.bit_generator.state == before

    def test_training_dropout_depends_only_on_rng(self):
        cfg = tiny_cfg(dropout=0.4)
        params = make_head(cfg, seed=2, dtype=np.float32)
        feats = rand_features(cfg, seed=2, dtype=np.float32)
        a = M.forward(cfg, params, feats, training=True, rng=np.random.default_rng(11))
        b = M.forward(cfg, params, feats, training=True, rng=np.random.default_rng(11))
        c = M.forward(cfg, params, feats, training=True, rng=np.random.default_rng(12))
        np.testing.assert_array_equal(a.keypoints.data, b.keypoints.data)
        assert not np.array_equal(a.keypoints.data, c.keypoints.data)

    def test_training_dropout_requires_rng(self):
        cfg = tiny_cfg(dropout=0.4)
        params = make_head(cfg, seed=2, dtype=np.float32)
        feats = rand_features(cfg, seed=2, dtype=np.float32)
        with pytest.raises(ValueError, match="rng"):
            M.forward(cfg, params, feats, training=True)


# ------------------------------------------------------------------ outputs

class TestOutputs:
    def test_shapes_and_unit_twists(self):
        cfg = tiny_cfg()
        params = make_head(cfg, seed=0)
        out = M.forward(cfg, params, rand_features(cfg))
        assert out.keypoints.shape == (24, 3)
        assert out.twists.shape == (23, 2)
        assert out.beta.shape == (10,)
        norms = np.sqrt((out.twists.data ** 2).sum(axis=1))
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-6)

    def test_projection_slices_rows(self):
        cfg = tiny_cfg()
        params = make_head(cfg, seed=0)
        _, e3d = M.encode_decode(cfg, params, rand_features(cfg))
        out = M.project_outputs(e3d, params.proj_kpt, params.proj_twist, params.proj_beta)
        np.testing.assert_allclose(
            out.keypoints.data, np_linear(params.proj_kpt, e3d.data[:24]), atol=1e-12)
        raw = np_linear(params.proj_twist, e3d.data[24:47])
        np.testing.assert_allclose(
            out.twists.data, raw / np.linalg.norm(raw, axis=1, keepdims=True), atol=1e-12)
        np.testing.assert_allclose(
            out.beta.data, np_linear(params.proj_beta, e3d.data[47:48])[0], atol=1e-12)

    def test_degenerate_twist_raises_at_eval(self):
        cfg = tiny_cfg()
        e = Tensor(np.random.default_rng(0).standard_normal((48, cfg.d)))
        zero = B.LinearParams(Tensor(np.zeros((cfg.d, 2))), Tensor(np.zeros(2)))
        kpt = B.LinearParams(Tensor(np.zeros((cfg.d, 3))), Tensor(np.zeros(3)))
        beta = B.LinearParams(Tensor(np.zeros((cfg.d, 10))), Tensor(np.zeros(10)))
        with pytest.raises(NormalizationDegenerateError, match="norm"):
            M.project_outputs(e, kpt, zero, beta)
        out = M.project_outputs(e, kpt, zero, beta, training=True)
        assert np.isfinite(out.twists.data).all()

    def test_twist_norm_at_the_floor_is_not_degenerate(self):
        cfg = tiny_cfg()
        e = Tensor(np.zeros((48, cfg.d)))
        kpt = B.LinearParams(Tensor(np.zeros((cfg.d, 3))), Tensor(np.zeros(3)))
        beta = B.LinearParams(Tensor(np.zeros((cfg.d, 10))), Tensor(np.zeros(10)))

        def twist(norm):  # every twist row is (norm, 0)
            return B.LinearParams(Tensor(np.zeros((cfg.d, 2))), Tensor(np.array([norm, 0.0])))

        out = M.project_outputs(e, kpt, twist(M.TWIST_NORM_FLOOR), beta)
        np.testing.assert_array_equal(out.twists.data[:, 0], 1.0)
        with pytest.raises(NormalizationDegenerateError, match="norm"):
            M.project_outputs(e, kpt, twist(np.nextafter(M.TWIST_NORM_FLOOR, 0.0)), beta)

    def test_patch_subset_matches_manual_subset(self):
        cfg = tiny_cfg(n_patches=5)
        params = make_head(cfg, seed=3)
        feats = rand_features(cfg, seed=4)
        idx = [4, 1, 2]
        out = M.forward(cfg, params, feats, patch_indices=idx)

        sub_cfg = tiny_cfg(n_patches=3)
        sub_params = make_head(sub_cfg, seed=3)
        for (_, dst), (_, src) in zip(sub_params.named_parameters(),
                                      params.named_parameters()):
            if dst.shape == src.shape:
                dst.data = src.data.copy()
        sub_params.templates.pos_enc.data = params.templates.pos_enc.data[idx]
        out_sub = M.forward(sub_cfg, sub_params, Tensor(feats.data[idx]))
        np.testing.assert_allclose(out.keypoints.data, out_sub.keypoints.data, atol=1e-12)
        np.testing.assert_allclose(out.beta.data, out_sub.beta.data, atol=1e-12)


# ------------------------------------------------------------------ batches

class TestBatchedForward:
    @given(h=st.sampled_from([1, 2, 4]), batch=st.integers(1, 3),
           n_patches=st.integers(2, 5), subset=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_matches_per_sample_numpy_oracle(self, h, batch, n_patches, subset, seed):
        cfg = tiny_cfg(h=h, n_patches=n_patches)
        params = make_head(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        for _, t in params.named_parameters():
            t.data = t.data + rng.uniform(-0.1, 0.1, size=t.shape)
        feats = rng.standard_normal((batch, n_patches, cfg.c_in))
        idx = sorted(rng.choice(n_patches, size=n_patches - 1, replace=False)) if subset else None
        out = M.forward(cfg, params, Tensor(feats), patch_indices=idx)
        assert out.keypoints.shape == (batch, 24, 3)
        assert out.twists.shape == (batch, 23, 2)
        assert out.beta.shape == (batch, 10)
        for s in range(batch):
            kpt, twists, beta = np_forward(cfg, params, feats[s], idx)
            np.testing.assert_allclose(out.keypoints.data[s], kpt, rtol=0, atol=1e-10)
            np.testing.assert_allclose(out.twists.data[s], twists, rtol=0, atol=1e-10)
            np.testing.assert_allclose(out.beta.data[s], beta, rtol=0, atol=1e-10)

    def test_single_sample_is_batch_of_one(self):
        cfg = tiny_cfg()
        params = make_head(cfg, seed=2)
        feats = rand_features(cfg, seed=3)
        single = M.forward(cfg, params, feats)
        batched = M.forward(cfg, params, Tensor(feats.data[None]))
        for a, b in ((single.keypoints, batched.keypoints),
                     (single.twists, batched.twists), (single.beta, batched.beta)):
            np.testing.assert_array_equal(a.data, b.data[0])

    def test_features_must_be_matrix_or_batch(self):
        cfg = tiny_cfg()
        params = make_head(cfg)
        with pytest.raises(T.ShapeError, match="features"):
            M.forward(cfg, params, Tensor(np.zeros((1, 1, cfg.n_patches, cfg.c_in))))

    def test_degenerate_twist_names_sample_and_row(self):
        cfg = tiny_cfg()
        e = np.random.default_rng(0).standard_normal((2 * 48, cfg.d))
        proj_twist = B.LinearParams(Tensor(np.zeros((cfg.d, 2))), Tensor(np.ones(2)))
        kpt = B.LinearParams(Tensor(np.zeros((cfg.d, 3))), Tensor(np.zeros(3)))
        beta = B.LinearParams(Tensor(np.zeros((cfg.d, 10))), Tensor(np.zeros(10)))
        e[48 + 24 + 5] = 0.0  # sample 1, twist row 5
        proj_twist.weight.data[:, 0] = 1.0
        proj_twist.bias.data = np.array([0.0, 0.0])
        with pytest.raises(NormalizationDegenerateError, match="sample 1 twist row 5"):
            M.project_outputs(Tensor(e), kpt, proj_twist, beta, batch=2)


# ----------------------------------------------------------- gather indices

def comprehension_embed_source(features, t, patch_indices=None):
    """embed_source with its gather indices built by list comprehensions over
    samples and rows, as they were before the np.arange arithmetic; kept as
    the reference."""
    batch = features.shape[0] if features.data.ndim == 3 else 1
    n_patches, c_in = features.shape[-2:]
    keep = list(range(n_patches) if patch_indices is None else patch_indices)
    rows = [s * n_patches + i for s in range(batch) for i in keep]
    x = T.gather_rows(T.reshape(features, (batch * n_patches, c_in)), rows)
    return T.add(B.linear(t.input_proj, x), T.gather_rows(t.pos_enc, keep * batch))


def comprehension_output_rows(n_samples, n_rows, n_joints):
    """project_outputs' keypoint, twist and shape rows, by list comprehension."""
    def rows(lo, hi):
        return [s * n_rows + r for s in range(n_samples) for r in range(lo, hi)]

    return [rows(0, n_joints), rows(n_joints, n_rows - 1), rows(n_rows - 1, n_rows)]


def recorded_gathers(monkeypatch):
    """The index list of every gather_rows call made from now on."""
    calls = []
    real = T.gather_rows

    def recording(x, indices):
        calls.append(np.asarray(indices).tolist())
        return real(x, indices)

    monkeypatch.setattr(T, "gather_rows", recording)
    return calls


class TestGatherIndices:
    """embed_source and project_outputs gather exactly the rows that their
    list comprehensions did, for unbatched input and batches of 1 and 4."""

    @pytest.mark.parametrize("batch", [None, 1, 4])
    @pytest.mark.parametrize("subset", [None, [3, 0, 2], [1]])
    def test_embed_source(self, monkeypatch, batch, subset):
        cfg = tiny_cfg()
        params = make_head(cfg)
        lead = () if batch is None else (batch,)
        feats = Tensor(np.random.default_rng(5).standard_normal(lead + (cfg.n_patches, cfg.c_in)))
        calls = recorded_gathers(monkeypatch)
        got = M.embed_source(feats, params.templates, subset)
        got_calls = calls[:]
        want = comprehension_embed_source(feats, params.templates, subset)
        assert got_calls == calls[len(got_calls):]
        np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("batch", [None, 1, 4])
    def test_project_outputs(self, monkeypatch, batch):
        cfg = tiny_cfg()
        params = make_head(cfg)
        n = batch or 1
        e = Tensor(np.random.default_rng(6).standard_normal((n * cfg.n_templates, cfg.d)))
        calls = recorded_gathers(monkeypatch)
        out = M.project_outputs(e, params.proj_kpt, params.proj_twist, params.proj_beta,
                                batch=batch)
        kpt, twist, beta = comprehension_output_rows(n, cfg.n_templates, cfg.n_joints)
        assert calls == [kpt, twist, beta]
        twists = T.normalize_rows(B.linear(params.proj_twist, Tensor(e.data[twist])),
                                  eps=M.TWIST_NORM_FLOOR)
        for got, want in ((out.keypoints, B.linear(params.proj_kpt, Tensor(e.data[kpt]))),
                          (out.twists, twists),
                          (out.beta, B.linear(params.proj_beta, Tensor(e.data[beta])))):
            np.testing.assert_array_equal(got.data, want.data.reshape(got.shape))


# ------------------------------------------------------- block-0 hoisting

def unhoisted_encode_decode(cfg, params, features, *, training=False, rng=None,
                            patch_indices=None):
    """The path that block-0 hoisting replaced, kept as the reference: every
    sample's template rows are assembled and attended on their own in every
    block, the score scale and the residual add are ops of their own, and
    dropout runs inside attention."""
    dropout_p = cfg.dropout if training else 0.0
    batch = features.shape[0] if features.data.ndim == 3 else 1

    def mha(p, q, k, v):
        def split(x, axes):
            rows, d = x.shape
            return T.transpose(T.reshape(x, (batch, rows // batch, p.h, d // p.h)), axes)

        scores = T.scale(T.matmul(split(B.linear(p.q, q), (0, 2, 1, 3)),
                                  split(B.linear(p.k, k), (0, 2, 3, 1))),
                         1.0 / np.sqrt(p.scale_dim))
        heads = T.matmul(T.softmax_rows(scores), split(B.linear(p.v, v), (0, 2, 1, 3)))
        out = B.linear(p.out, T.reshape(T.transpose(heads, (0, 2, 1, 3)), q.shape))
        return T.dropout(out, dropout_p, rng)

    def stage(a, residual, ln):
        return T.relu(T.layer_norm(T.add(a, residual), ln.gamma, ln.beta))

    def ffn(p, x):
        return B.feed_forward(p, x, dropout_p=dropout_p, rng=rng)

    t = params.templates
    e2d = M.embed_source(features, t, patch_indices)
    e3d = T.add(T.gather_rows(t.joint_emb, np.tile(M.TEMPLATE_JOINTS, batch)),
                T.gather_rows(t.type_emb, np.tile(M.TEMPLATE_TYPES, batch)))
    for blk in params.blocks:
        e2d = ffn(blk.ffn_2d, stage(mha(blk.mha_2d, e2d, e2d, e2d), e2d, blk.ln_2d))
        e3d_t = stage(mha(blk.mha_3d, e3d, e3d, e3d), e3d, blk.ln_3d)
        e3d = ffn(blk.ffn_3d, stage(mha(blk.mha_cross, e3d_t, e2d, e2d), e3d_t,
                                    blk.ln_cross))
    return e2d, e3d


def template_grads(run, params, feats, w):
    """Final template embedding, and the gradients of its readout by w with
    respect to the features and every parameter but the output projections."""
    for _, t in params.named_parameters():
        t.zero_grad()
    feats.grad = None
    with Tape() as tape:
        _, e3d = run(feats)
        backward(T.sum_(T.mul(e3d, Tensor(w))), tape)
    grads = {name: t.grad.copy() for name, t in params.named_parameters()
             if not name.startswith("proj_")}
    grads["features"] = feats.grad.copy()
    return e3d.data, grads


def recording_dropout(monkeypatch):
    """Patch T.dropout and T.relu (whose p > 0 form applies dropout) to log,
    in draw order, the keep mask of every call that draws one (p > 0), read
    from a copy of the generator's state before the call draws it."""
    masks = []

    def recording(real):
        def draw(x, p=0.0, rng=None):
            if p > 0.0:
                probe = np.random.Generator(np.random.PCG64())
                probe.bit_generator.state = rng.bit_generator.state
                masks.append(probe.random(x.shape) >= p)
            return real(x, p, rng)
        return draw

    monkeypatch.setattr(T, "dropout", recording(T.dropout))
    monkeypatch.setattr(T, "relu", recording(T.relu))
    return masks


class TestBlockZeroHoisting:
    @given(h=st.sampled_from([1, 2, 4]), batch=st.integers(1, 4),
           n_patches=st.integers(2, 5), subset=st.booleans(),
           dropout=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_matches_unhoisted_path(self, h, batch, n_patches, subset, dropout, seed):
        """Forward, every gradient and every dropout mask equal those of the
        unhoisted path, for the same generator."""
        with pytest.MonkeyPatch.context() as mp:
            masks = recording_dropout(mp)
            cfg = tiny_cfg(h=h, n_patches=n_patches, dropout=dropout)
            params = make_head(cfg, seed=seed)
            rng = np.random.default_rng(seed + 1)
            for _, t in params.named_parameters():
                t.data = t.data + rng.uniform(-0.1, 0.1, size=t.shape)
            feats = Tensor(rng.standard_normal((batch, n_patches, cfg.c_in)),
                           requires_grad=True)
            idx = (sorted(rng.choice(n_patches, size=n_patches - 1, replace=False))
                   if subset else None)
            w = rng.standard_normal((batch * cfg.n_templates, cfg.d))
            results, drawn, states = [], [], []
            for encode_decode in (M.encode_decode, unhoisted_encode_decode):
                masks.clear()
                gen = np.random.default_rng(seed + 2)
                results.append(template_grads(
                    lambda f: encode_decode(cfg, params, f, training=True, rng=gen,
                                            patch_indices=idx), params, feats, w))
                drawn.append(list(masks))
                states.append(gen.bit_generator.state)
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        for name, g in want_grads.items():
            np.testing.assert_allclose(got_grads[name], g, rtol=0, atol=1e-10, err_msg=name)
        # per block: after mha_2d, twice in ffn_2d, after mha_3d, after
        # mha_cross, twice in ffn_3d
        assert len(drawn[0]) == len(drawn[1]) == (7 * cfg.L if dropout else 0)
        for a, b in zip(*drawn):
            np.testing.assert_array_equal(a, b)
        assert states[0] == states[1]

    @given(h=st.sampled_from([1, 2]), batch=st.integers(2, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_gradients_are_sums_of_per_sample_gradients(self, h, batch, seed):
        cfg = tiny_cfg(h=h)
        params = make_head(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        for _, t in params.named_parameters():
            t.data = t.data + rng.uniform(-0.1, 0.1, size=t.shape)
        feats = rng.standard_normal((batch, cfg.n_patches, cfg.c_in))
        w = rng.standard_normal((batch, cfg.n_templates, cfg.d))

        def run(f):
            return M.encode_decode(cfg, params, f)

        got, got_grads = template_grads(run, params, Tensor(feats, requires_grad=True),
                                        w.reshape(-1, cfg.d))
        per_sample = [template_grads(run, params, Tensor(feats[s], requires_grad=True), w[s])
                      for s in range(batch)]
        np.testing.assert_allclose(got, np.concatenate([e3d for e3d, _ in per_sample]),
                                   rtol=0, atol=1e-10)
        for name, g in got_grads.items():
            parts = [grads[name] for _, grads in per_sample]
            want = np.stack(parts) if name == "features" else np.sum(parts, axis=0)
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("training", [False, True])
    def test_block0_template_attention_runs_once_per_batch(self, monkeypatch, training):
        """Per block the attention order is mha_2d, mha_3d, mha_cross; at
        batch 4 only block 0's mha_3d scores lead with 1."""
        shapes = []
        real = T.softmax_rows

        def softmax_rows(x, *args, **kwargs):
            shapes.append(x.shape)
            return real(x, *args, **kwargs)

        monkeypatch.setattr(T, "softmax_rows", softmax_rows)
        cfg = tiny_cfg(L=3, dropout=0.2)
        params = make_head(cfg, dtype=np.float32)
        feats = np.random.default_rng(0).standard_normal((4, cfg.n_patches, cfg.c_in))
        M.encode_decode(cfg, params, Tensor(feats), training=training,
                        rng=np.random.default_rng(1))
        assert [s[0] for s in shapes] == [4, 1, 4] + [4, 4, 4] * (cfg.L - 1)
        assert shapes[1] == (1, cfg.h, cfg.n_templates, cfg.n_templates)


# ------------------------------------------------------------------- params

class TestParameterRegistry:
    def test_names_unique_and_stable(self):
        cfg = tiny_cfg()
        params = make_head(cfg)
        names = [n for n, _ in params.named_parameters()]
        assert len(names) == len(set(names))
        assert names == [n for n, _ in params.named_parameters()]
        assert "templates.joint_emb" in names
        assert "blocks.0.mha_2d.q.weight" in names
        assert not any(".heads." in n for n in names)
        assert "blocks.1.ffn_3d.layers.2.bias" in names
        assert "proj_beta.bias" in names

    def test_no_ffn_params_in_template_stage(self):
        cfg = tiny_cfg()
        params = make_head(cfg)
        names = [n for n, _ in params.named_parameters()]
        assert not any("ffn_templates" in n or ".ffn_t." in n for n in names)
        per_block = [n for n in names if n.startswith("blocks.0.")]
        assert sum(".ffn_" in n for n in per_block) == 2 * 6  # two FFNs x 3 layers x (w, b)

    def test_init_is_seed_deterministic(self):
        cfg = tiny_cfg()
        a = make_head(cfg, seed=5)
        b = make_head(cfg, seed=5)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)


# ---------------------------------------------------------------- gradients

def scalar_readout(out: M.PoseOutput, w) -> Tensor:
    wk, wt, wb = w
    s1 = T.sum_(T.mul(out.keypoints, wk))
    s2 = T.sum_(T.mul(out.twists, wt))
    s3 = T.sum_(T.mul(out.beta, wb))
    return T.add(T.add(s1, s2), s3)


def readout_weights(cfg, seed=13, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((cfg.n_joints, 3)).astype(dtype)),
            Tensor(rng.standard_normal((cfg.n_twists, 2)).astype(dtype)),
            Tensor(rng.standard_normal(cfg.beta_dim).astype(dtype)))


class TestGradientFlow:
    def test_every_parameter_receives_gradient(self):
        cfg = tiny_cfg()
        params = make_head(cfg, seed=1)
        feats = rand_features(cfg, seed=2)
        w = readout_weights(cfg)
        with Tape() as tape:
            loss = scalar_readout(M.forward(cfg, params, feats), w)
            backward(loss, tape)
        for name, t in params.named_parameters():
            assert t.grad is not None, name
            # key biases shift every attention score row-uniformly, which the
            # softmax cancels; their true gradient is identically zero
            if ".k.bias" in name:
                assert np.abs(t.grad).max() < 1e-12, name
            else:
                assert np.abs(t.grad).max() > 0, name
        joint_row_norms = np.abs(params.templates.joint_emb.grad).max(axis=1)
        assert (joint_row_norms > 0).all()

    def test_end_to_end_finite_differences(self):
        """Spot-check analytic gradients of the whole head against central
        differences in float64, subsampling coordinates per tensor.

        Parameters are jittered away from the init point first: zero-init
        biases park whole relu rows exactly on the kink (a dead row feeds the
        next layer's zero bias), where the gradient is one-sided and central
        differences measure neither side.
        """
        cfg = tiny_cfg()
        params = make_head(cfg, seed=1)
        jitter = np.random.default_rng(55)
        for _, t in params.named_parameters():
            t.data = t.data + jitter.uniform(-0.05, 0.05, size=t.shape)
        feats = rand_features(cfg, seed=2)
        feats.requires_grad = True
        w = readout_weights(cfg)

        def value():
            return scalar_readout(M.forward(cfg, params, feats), w).item()

        with Tape() as tape:
            loss = scalar_readout(M.forward(cfg, params, feats), w)
            backward(loss, tape)

        rng = np.random.default_rng(99)
        step = 1e-5
        targets = list(params.named_parameters()) + [("features", feats)]
        for name, t in targets:
            flat = t.data.reshape(-1)
            picks = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            analytic = t.grad.reshape(-1)[picks]
            numeric = np.empty_like(analytic)
            for j, idx in enumerate(picks):
                orig = flat[idx]
                flat[idx] = orig + step
                up = value()
                flat[idx] = orig - step
                down = value()
                flat[idx] = orig
                numeric[j] = (up - down) / (2 * step)
            err = rel_error(analytic, numeric)
            assert err < 1e-4, f"{name}: rel err {err:.3e}"

    def test_feature_gradient_shape(self):
        cfg = tiny_cfg()
        params = make_head(cfg, seed=1)
        feats = rand_features(cfg, seed=2)
        feats.requires_grad = True
        with Tape() as tape:
            out = M.forward(cfg, params, feats)
            backward(T.sum_(out.keypoints), tape)
        assert feats.grad is not None and feats.grad.shape == feats.shape


def serial_xavier(rng, fan_in, fan_out):
    """The Xavier draw as init_head made it before draws were queued."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def serial_init_head(cfg, rng, dtype):
    """name -> array of init_head as it drew before draws were queued: the
    three embeddings, then every weight in stage order, one serial_xavier
    call each (one per head and projection in attention)."""
    out, d = {}, cfg.d

    def embedding(name, rows):
        out[name] = (rng.standard_normal((rows, d)) / np.sqrt(d)).astype(dtype)

    def linear(name, fan_in, fan_out):
        out[f"{name}.weight"] = serial_xavier(rng, fan_in, fan_out).astype(dtype)
        out[f"{name}.bias"] = np.zeros(fan_out, dtype)

    def mha(name):
        dh = d // cfg.h
        weights = [np.empty((d, d), dtype=dtype) for _ in range(3)]
        for i in range(cfg.h):
            for w in weights:
                w[:, i * dh:(i + 1) * dh] = serial_xavier(rng, d, dh)
        for proj, w in zip("qkv", weights):
            out[f"{name}.{proj}.weight"], out[f"{name}.{proj}.bias"] = w, np.zeros(d, dtype)
        linear(f"{name}.out", d, d)

    def norm(name):
        out[f"{name}.gamma"], out[f"{name}.beta"] = np.ones(d, dtype), np.zeros(d, dtype)

    embedding("templates.joint_emb", cfg.n_joints)
    embedding("templates.type_emb", 3)
    embedding("templates.pos_enc", cfg.n_patches)
    linear("templates.input_proj", cfg.c_in, d)
    for b in range(cfg.L):
        for stage, ffn in (("2d", "ffn_2d"), ("3d", None), ("cross", "ffn_3d")):
            mha(f"blocks.{b}.mha_{stage}")
            norm(f"blocks.{b}.ln_{stage}")
            for j in range(3 if ffn else 0):
                linear(f"blocks.{b}.{ffn}.layers.{j}", d, d)
    for name, width in (("kpt", cfg.kpt_width), ("twist", cfg.twist_width),
                        ("beta", cfg.beta_dim)):
        linear(f"proj_{name}", d, width)
    return out


BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "pcg64_buffered": np.random.PCG64,  # after an odd count of uint32 draws
    "pcg64dxsm": np.random.PCG64DXSM,
    "philox": np.random.Philox,
    "mt19937": np.random.MT19937,
}


def same_state(a, b):
    """Bit-generator states equal, key for key (MT19937's key is an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def parameter_digest(params):
    """SHA-256 over every parameter's name and bytes, in walk order."""
    h = hashlib.sha256()
    for name, t in params.named_parameters():
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


class TestAllocateHead:
    """allocate_head builds init_head's structure and draws nothing."""

    @staticmethod
    def job_keys(params, jobs):
        """(parameter name, byte offset, shape, strides, bound) per job."""
        owner = {id(t.data): name for name, t in params.named_parameters()}
        keys = []
        for view, a in jobs:
            base = view if view.base is None else view.base
            keys.append((owner[id(base)], view.ctypes.data - base.ctypes.data,
                         view.shape, view.strides, a))
        return keys

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_heads_structure_and_jobs(self, monkeypatch, dtype):
        cfg = HeadConfig(L=2, h=4, d=16, n_patches=5, c_in=6)
        jobs = []
        allocated = M.allocate_head(cfg, jobs, dtype)
        filled = []
        fill_uniform = B.fill_uniform
        monkeypatch.setattr(B, "fill_uniform",
                            lambda rng, js: filled.append(list(js)) or fill_uniform(rng, js))
        init = M.init_head(cfg, np.random.default_rng(0), dtype=dtype)
        assert len(filled) == 1
        got, want = dict(allocated.named_parameters()), dict(init.named_parameters())
        assert list(got) == list(want)
        for name, t in got.items():
            assert t.shape == want[name].shape, name
            assert t.data.dtype == want[name].data.dtype == dtype, name
            assert t.requires_grad and t.grad is None, name
            if name.endswith((".bias", ".beta")):
                assert not want[name].data.any() and not t.data.any(), name
            elif name.endswith(".gamma"):
                assert (want[name].data == 1).all() and (t.data == 1).all(), name
        keys = self.job_keys(allocated, jobs)
        assert keys == self.job_keys(init, filled[0])
        # the jobs cover every weight, once, and nothing else
        weights = [name for name in got if name.endswith(".weight")]
        assert sorted({k[0] for k in keys}) == sorted(weights)
        assert sum(view.size for view, _ in jobs) == sum(got[n].size for n in weights)


class TestSplitDraws:
    """init_head queues its Xavier draws and blocks.fill_uniform makes them,
    split across the pool by PCG64 jump-ahead: every byte and the final
    generator state are those of one serial pass."""

    @staticmethod
    def generator(kind, seed, uint32_draws):
        rng = np.random.Generator(BIT_GENERATORS[kind](seed))
        if kind == "pcg64_buffered":
            rng.integers(0, 2**32, size=2 * uint32_draws + 1, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    @staticmethod
    def split_forced(mp, parts, cpus):
        """Patch the pool gate down so any draw count splits; returns the
        list that each over_chunks call appends its part count to."""
        mp.setattr(W, "POOL_BYTES", 0)
        mp.setattr(B, "SPLIT_PARTS", parts)
        mp.setattr(W, "CPUS", cpus)
        splits = []
        over_chunks = W.over_chunks
        mp.setattr(W, "over_chunks",
                   lambda fn, n, nbytes: splits.append(n) or over_chunks(fn, n, nbytes))
        return splits

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(BIT_GENERATORS)), seed=st.integers(0, 2**32 - 1),
           uint32_draws=st.integers(0, 3), dtype=st.sampled_from([np.float32, np.float64]),
           L=st.integers(1, 2), h=st.sampled_from([1, 2, 4]), dh=st.integers(1, 4),
           n_patches=st.integers(1, 5), c_in=st.integers(1, 6),
           parts=st.integers(1, 40), cpus=st.integers(2, 3))
    def test_split_head_is_the_serial_head(self, kind, seed, uint32_draws, dtype, L, h, dh,
                                           n_patches, c_in, parts, cpus):
        cfg = HeadConfig(L=L, h=h, d=h * dh, n_patches=n_patches, c_in=c_in)
        want_rng = self.generator(kind, seed, uint32_draws)
        want = serial_init_head(cfg, want_rng, dtype)
        rng = self.generator(kind, seed, uint32_draws)
        with pytest.MonkeyPatch.context() as mp:
            splits = self.split_forced(mp, parts, cpus)
            got = {name: t.data for name, t in M.init_head(cfg, rng, dtype=dtype)
                   .named_parameters()}
        assert sorted(got) == sorted(want)
        for name, arr in got.items():
            assert arr.dtype == want[name].dtype and arr.shape == want[name].shape, name
            assert arr.tobytes() == want[name].tobytes(), name
        assert same_state(rng.bit_generator.state, want_rng.bit_generator.state)
        # only generators whose advance() counts draws are split
        if kind.startswith("pcg64"):
            assert len(splits) == 1 and 1 <= splits[0] <= parts
        else:
            assert splits == []

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(BIT_GENERATORS)), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]), h=st.sampled_from([1, 2, 3]),
           dh=st.integers(1, 5), parts=st.integers(1, 8))
    def test_split_mha_and_ffn_are_serial(self, kind, seed, dtype, h, dh, parts):
        d = h * dh
        rng, want_rng = self.generator(kind, seed, 1), self.generator(kind, seed, 1)
        with pytest.MonkeyPatch.context() as mp:
            self.split_forced(mp, parts, 2)
            mha = drawn(rng, B.init_mha, d, h, scale_dim=d, dtype=dtype)
            ffn = drawn(rng, B.init_ffn, d, dtype=dtype)
        # head i's q, k, v columns, then the output projection, then the FFN
        got = [p.weight.data[:, i * dh:(i + 1) * dh] for i in range(h)
               for p in (mha.q, mha.k, mha.v)]
        got += [mha.out.weight.data] + [lp.weight.data for lp in ffn.layers]
        want = [serial_xavier(want_rng, d, dh) for _ in range(3 * h)]
        want += [serial_xavier(want_rng, d, d) for _ in range(4)]
        for g, w in zip(got, want, strict=True):
            assert g.dtype == dtype and g.tobytes() == w.astype(dtype).tobytes()
        assert same_state(rng.bit_generator.state, want_rng.bit_generator.state)

    def test_many_threads_switching_often_draw_the_serial_head(self, monkeypatch):
        # more threads than most hosts have cores, switching as often as the
        # interpreter allows: a part drawn from the wrong offset shows here
        cfg = HeadConfig(L=2, h=4, d=64, n_patches=8, c_in=16)
        want = serial_init_head(cfg, np.random.default_rng(5), np.float32)
        splits = self.split_forced(monkeypatch, 64, 4)
        monkeypatch.setattr(W, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = M.init_head(cfg, np.random.default_rng(5))
        finally:
            sys.setswitchinterval(interval)
            pool = W._pool
            pool.shutdown(wait=True)
        assert len(splits) == 1 and splits[0] > 4  # more parts than threads
        assert all(t.data.tobytes() == want[name].tobytes()
                   for name, t in got.named_parameters())
        assert all(not t.is_alive() for t in pool._threads)

    # SHA-256 of init_head's parameters at seed 0 (parameter_digest), taken
    # from the serial code before draws were queued
    DIGESTS = {
        "tiny": "a383b4a6b4118e2e149f4aeb70c6bde406ce579acf46b8572e5ca7dfea4b1ddc",
        "paper": "b8e35b5e42b19b76dc6e185244e781c4033a6a30b760642bff002f02ac07df7f",
    }

    @pytest.mark.parametrize("profile, cpus", [("tiny", 1), ("tiny", 2), ("paper", 1),
                                               ("paper", 2)])
    def test_seed_0_parameters_are_pinned(self, monkeypatch, profile, cpus):
        monkeypatch.setattr(W, "CPUS", cpus)
        cfg = (HeadConfig(L=2, h=2, d=32, n_patches=16, c_in=32) if profile == "tiny"
               else HeadConfig())
        assert parameter_digest(M.init_head(cfg, np.random.default_rng(0))) == \
            self.DIGESTS[profile]

    def test_tiny_head_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(W, "CPUS", 2)
        monkeypatch.setattr(W, "_pool", None)
        M.init_head(HeadConfig(L=2, h=2, d=32, n_patches=16, c_in=32),
                    np.random.default_rng(0))
        assert W._pool is None

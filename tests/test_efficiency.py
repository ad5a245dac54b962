"""Parameter/FLOP accounting tests: closed forms against reflection oracles
(instantiated tensors; live matmul shapes) and hand-expanded arithmetic."""

import numpy as np
import pytest

import lifthead.model as M
import lifthead.tensor as T
from lifthead.efficiency import (DeconvConfig, EfficiencyReport, deconv_head_flops,
                                 deconv_head_params, efficiency_report,
                                 transformer_head_flops, transformer_head_params)
from lifthead.model import HeadConfig
from lifthead.tensor import Tensor


def instantiated_count(cfg):
    params = M.init_head(cfg, np.random.default_rng(0))
    return sum(t.size for _, t in params.named_parameters())


class TestTransformerParams:
    def test_microscopic_hand_count(self):
        # d=h=1: input proj 2, pos_enc 1, embeddings 27, block 42
        # (3 MHA x 8 + 3 LN x 2 + 2 FFN x 6), output projections 30
        cfg = HeadConfig(L=1, h=1, d=1, n_patches=1, c_in=1)
        assert transformer_head_params(cfg) == 102

    def test_default_matches_instantiation_exactly(self):
        cfg = HeadConfig()
        formula = transformer_head_params(cfg)
        assert formula == 28_702_223  # hand-expanded from the closed form
        assert formula == instantiated_count(cfg)

    def test_twenty_random_configs_match_instantiation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            h = int(rng.choice([1, 2, 4]))
            cfg = HeadConfig(L=int(rng.integers(1, 4)), h=h,
                             d=h * int(rng.integers(1, 9)),
                             n_patches=int(rng.integers(1, 20)),
                             c_in=int(rng.integers(1, 40)))
            assert transformer_head_params(cfg) == instantiated_count(cfg), cfg

    def test_monotone_in_depth(self):
        counts = [transformer_head_params(HeadConfig(L=l)) for l in (1, 2, 3, 4)]
        diffs = np.diff(counts)
        assert (diffs > 0).all()
        assert len(set(diffs)) == 1  # additive per block


class TestTransformerFlops:
    def test_matches_live_matmul_trace(self, monkeypatch):
        """Count 2*m*k*n per product over every matmul of one eval forward
        (a batched matmul is one product per leading index); the closed form
        must reproduce the trace exactly."""
        counted = [0]
        real_matmul = T.matmul

        def counting_matmul(a, b, bias=None):
            products = int(np.prod(a.shape[:-2], dtype=np.int64))
            m, k = a.shape[-2:]
            n = b.shape[-1]
            counted[0] += 2 * products * m * k * n
            return real_matmul(a, b, bias)

        monkeypatch.setattr(T, "matmul", counting_matmul)
        cfg = HeadConfig(L=2, h=2, d=8, n_patches=5, c_in=7, dropout=0.0)
        params = M.init_head(cfg, np.random.default_rng(0))
        feats = Tensor(np.random.default_rng(1).standard_normal((5, 7)))
        M.forward(cfg, params, feats)
        assert counted[0] == transformer_head_flops(cfg)

    def test_linear_in_depth(self):
        f = [transformer_head_flops(HeadConfig(L=l)) for l in (1, 2, 3)]
        assert f[2] - f[1] == f[1] - f[0] > 0


class TestDeconvCounts:
    def test_unit_conv_arithmetic(self):
        # all-1 widths: each 1x1x1x1 deconv layer is w+b = 2; final conv 2
        dc = DeconvConfig(in_channels=1, channels=(1, 1, 1), kernel=1,
                          heatmap_joints=1, depth_bins=1, grid=1)
        assert deconv_head_params(dc) == 8

    def test_default_hand_expansion(self):
        # 4*4*512*256+256, then twice 4*4*256*256+256, then 256*1536+1536
        dc = DeconvConfig()
        want = (2_097_152 + 256) + 2 * (1_048_576 + 256) + (393_216 + 1_536)
        assert want == 4_589_824
        assert deconv_head_params(dc) == want

    def test_weights_scale_quadratically(self):
        dc1 = DeconvConfig()
        dc2 = DeconvConfig(in_channels=1024, channels=(512, 512, 512),
                           depth_bins=128)
        biases1 = sum(dc1.channels) + dc1.heatmap_joints * dc1.depth_bins
        biases2 = sum(dc2.channels) + dc2.heatmap_joints * dc2.depth_bins
        w1 = deconv_head_params(dc1) - biases1
        w2 = deconv_head_params(dc2) - biases2
        assert w2 == 4 * w1

    def test_default_flops_hand_expansion(self):
        # stride-2 grid 8->16->32->64, then 1x1 conv at 64x64
        dc = DeconvConfig()
        want = (2 * 16 * 512 * 256 * 16 * 16
                + 2 * 16 * 256 * 256 * 32 * 32
                + 2 * 16 * 256 * 256 * 64 * 64
                + 2 * 256 * (24 * 64) * 64 * 64)
        assert deconv_head_flops(dc) == want == 15_032_385_536

    def test_layer_count_enforced(self):
        with pytest.raises(ValueError, match="3 deconv layers"):
            DeconvConfig(channels=(256, 256))


class TestReport:
    def test_deterministic(self):
        a = efficiency_report(HeadConfig(), DeconvConfig()).to_text()
        b = efficiency_report(HeadConfig(), DeconvConfig()).to_text()
        assert a == b

    def test_ratio_recomputation(self):
        rep = efficiency_report(HeadConfig(), DeconvConfig())
        assert rep.param_ratio == rep.transformer_head_params / rep.deconv_head_params
        assert rep.flop_ratio == rep.transformer_head_flops / rep.deconv_head_flops

    def test_text_is_tab_separated_key_values(self):
        text = efficiency_report(HeadConfig(), DeconvConfig()).to_text()
        lines = text.splitlines()
        assert all(line.count("\t") == 1 for line in lines)
        keys = [line.split("\t")[0] for line in lines]
        assert keys[0] == "transformer_head_params"
        assert "assumption.deconv.channels" in keys
        assert "note.gpu_memory" in keys

    def test_assumptions_echo_configs(self):
        text = efficiency_report(HeadConfig(d=128, h=4),
                                 DeconvConfig(kernel=3)).to_text()
        fields = dict(line.split("\t") for line in text.splitlines())
        assert fields["assumption.transformer.d"] == "128"
        assert fields["assumption.deconv.kernel"] == "3"
        assert fields["assumption.deconv.channels"] == "256x256x256"
        assert fields["note.wall_clock"] == "not reproduced (hardware-bound)"

    def test_claims_marked_not_reproduced(self):
        rep = efficiency_report(HeadConfig(), DeconvConfig())
        text = rep.to_text()
        assert text.count("not reproduced (hardware-bound)") == 2

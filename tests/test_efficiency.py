"""Parameter/FLOP accounting tests: closed forms against reflection oracles
(instantiated tensors; live matmul shapes) and hand-expanded arithmetic."""

import numpy as np
import pytest

import lifthead.efficiency as E
import lifthead.model as M
import lifthead.tensor as T
from lifthead.efficiency import (deconv_head_flops, deconv_head_params, efficiency_report,
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
    def test_unit_conv_arithmetic(self, monkeypatch):
        # all-1 widths: each 1x1x1x1 deconv layer is w+b = 2; the final conv
        # maps 1 channel to 24 heatmaps, 24 + 24
        monkeypatch.setattr(E, "DECONV_CHANNELS", (1, 1, 1))
        monkeypatch.setattr(E, "DECONV_KERNEL", 1)
        monkeypatch.setattr(E, "DEPTH_BINS", 1)
        assert deconv_head_params(HeadConfig(c_in=1)) == 3 * 2 + 48

    def test_default_hand_expansion(self):
        # 4*4*512*256+256, then twice 4*4*256*256+256, then 256*1536+1536
        want = (2_097_152 + 256) + 2 * (1_048_576 + 256) + (393_216 + 1_536)
        assert want == 4_589_824
        assert deconv_head_params(HeadConfig()) == want

    def test_reads_the_head_configs_channels(self):
        # tiny's 32 channels: only the first deconv's weights change
        want = (4 * 4 * 32 * 256 + 256) + 2 * (1_048_576 + 256) + (393_216 + 1_536)
        assert want == 2_623_744
        assert deconv_head_params(HeadConfig(c_in=32, n_patches=16)) == want
        assert deconv_head_params(HeadConfig(c_in=32, n_patches=1)) == want

    def test_weights_scale_quadratically(self, monkeypatch):
        def weights():
            cfg = HeadConfig(c_in=2 * E.DECONV_CHANNELS[0])
            biases = sum(E.DECONV_CHANNELS) + cfg.n_joints * E.DEPTH_BINS
            return deconv_head_params(cfg) - biases

        w1 = weights()
        monkeypatch.setattr(E, "DECONV_CHANNELS", (512, 512, 512))
        monkeypatch.setattr(E, "DEPTH_BINS", 128)
        assert weights() == 4 * w1

    def test_default_flops_hand_expansion(self):
        # stride-2 grid 8->16->32->64, then 1x1 conv at 64x64
        want = (2 * 16 * 512 * 256 * 16 * 16
                + 2 * 16 * 256 * 256 * 32 * 32
                + 2 * 16 * 256 * 256 * 64 * 64
                + 2 * 256 * (24 * 64) * 64 * 64)
        assert deconv_head_flops(HeadConfig()) == want == 15_032_385_536

    def test_flops_read_the_head_configs_input(self):
        # tiny: 16 positions of 32 channels -> 64 -> 256 -> 1024 positions
        want = (2 * 16 * 32 * 256 * 64
                + 2 * 16 * 256 * 256 * 256
                + 2 * 16 * 256 * 256 * 1024
                + 2 * 256 * (24 * 64) * 1024)
        assert deconv_head_flops(HeadConfig(c_in=32, n_patches=16)) == want == 3_506_438_144

    def test_flops_need_no_square_grid(self):
        # positions, not a side, are counted: 5 patches cost 5/4 of 4
        assert 4 * deconv_head_flops(HeadConfig(n_patches=5)) == \
            5 * deconv_head_flops(HeadConfig(n_patches=4))


def report_fields(cfg):
    return dict(line.split("\t") for line in efficiency_report(cfg).splitlines())


class TestReport:
    def test_deterministic(self):
        assert efficiency_report(HeadConfig()) == efficiency_report(HeadConfig())

    def test_ratio_recomputation(self):
        # paper, then tiny: both heads read the same config
        for cfg in (HeadConfig(), HeadConfig(L=2, h=2, d=32, n_patches=16, c_in=32)):
            fields = report_fields(cfg)
            tp, dp = transformer_head_params(cfg), deconv_head_params(cfg)
            tf, df = transformer_head_flops(cfg), deconv_head_flops(cfg)
            assert [int(fields[k]) for k in ("transformer_head_params", "deconv_head_params",
                                             "transformer_head_flops", "deconv_head_flops")] == \
                [tp, dp, tf, df]
            assert fields["param_ratio"] == f"{tp / dp:.6f}"
            assert fields["flop_ratio"] == f"{tf / df:.6f}"

    def test_text_is_tab_separated_key_values(self):
        text = efficiency_report(HeadConfig())
        lines = text.splitlines()
        assert text.endswith("\n")
        assert all(line.count("\t") == 1 for line in lines)
        keys = [line.split("\t")[0] for line in lines]
        assert keys[0] == "transformer_head_params"
        assert "assumption.deconv.channels" in keys
        assert "note.gpu_memory" in keys

    def test_assumptions_echo_configs(self, monkeypatch):
        monkeypatch.setattr(E, "DECONV_KERNEL", 3)
        fields = report_fields(HeadConfig(d=128, h=4))
        assert fields["assumption.transformer.d"] == "128"
        assert fields["assumption.deconv.kernel"] == "3"
        assert fields["assumption.deconv.channels"] == "256x256x256"
        assert fields["assumption.deconv.depth_bins"] == "64"
        assert fields["note.wall_clock"] == "not reproduced (hardware-bound)"

    def test_claims_marked_not_reproduced(self):
        text = efficiency_report(HeadConfig())
        assert text.count("not reproduced (hardware-bound)") == 2

"""Acceptance suite: one test per shipping criterion, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines as
they happen; without -s the per-test result lines of -v carry the same
information.
"""

import time
from contextlib import contextmanager

import numpy as np

import lifthead.efficiency as E
import lifthead.gradcheck as G
import lifthead.model as M
import lifthead.synthetic as S
import lifthead.training as TR
from lifthead.cli import FIELDS, PROFILES, head_config
from lifthead.tensor import Tensor


@contextmanager
def criterion(n, name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {n}] {name}: FAIL ({time.time() - t0:.1f}s)",
              flush=True)
        raise
    print(f"\n[ACCEPTANCE {n}] {name}: PASS ({time.time() - t0:.1f}s)",
          flush=True)


def profile_head_config(name):
    return head_config({**{f.name: f.default for f in FIELDS}, **PROFILES[name]})


def test_01_gradient_suite():
    with criterion(1, "gradient suite"):
        t0 = time.time()
        results = G.run_primitive_suite()
        bad = [(n, e) for n, e, ok in results if not (ok and e < 1e-6)]
        assert not bad, f"primitive failures: {bad}"
        composed = G.composed_head_check(seed=0)
        assert composed < 1e-4, f"composed head rel err {composed:.3e}"
        assert time.time() - t0 < 60.0


def test_02_shape_structure_at_paper_profile():
    with criterion(2, "shape/structure at paper profile"):
        cfg = profile_head_config("paper")
        params = M.init_head(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        feats = Tensor(rng.standard_normal(
            (cfg.n_patches, cfg.c_in)).astype(np.float32))
        e_2d, e_3d = M.encode_decode(cfg, params, feats)
        assert e_3d.shape == (48, 512), e_3d.shape
        assert e_2d.shape == (64, 512), e_2d.shape
        out = M.forward(cfg, params, feats)
        assert out.keypoints.shape == (24, 3)
        assert out.twists.shape == (23, 2)
        assert out.beta.shape == (10,)
        norms = np.linalg.norm(out.twists.data, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6


def test_03_overfit_run():
    with criterion(3, "small-sample overfit run"):
        t0 = time.time()
        p = PROFILES["tiny"]
        assert p["n_samples"] == 64 and p["noise_sigma"] == 0.0
        assert p["batch_size"] == 16
        steps_per_epoch = -(-p["n_samples"] // p["batch_size"])
        assert p["epochs"] * steps_per_epoch <= 2000

        cfg = profile_head_config("tiny")
        tc = TR.TrainConfig(max_lr=p["max_lr"], warmup_steps=p["warmup_steps"],
                            epochs=p["epochs"], batch_size=p["batch_size"],
                            avg_last_epochs=p["avg_last_epochs"], seed=0,
                            min_keep_patches=p.get("min_keep_patches"),
                            w_kpt=p.get("w_kpt", 1.0),
                            w_twist=p.get("w_twist", 1.0),
                            w_beta=p.get("w_beta", 1.0))
        gen = S.SyntheticGen(seed=0, n_patches=cfg.n_patches, c_in=cfg.c_in,
                             noise_sigma=0.0)
        dataset = S.generate(p["n_samples"], gen)
        params = M.init_head(cfg, np.random.default_rng(tc.seed))
        result = TR.train(cfg, params, dataset, tc)

        first_epoch = np.mean([m.loss for m in result.metrics if m.epoch == 0])
        final = np.mean([m.loss for m in result.metrics
                         if m.epoch == tc.epochs - 1])
        assert final < 0.1 * first_epoch, \
            f"loss {final:.4f} vs first epoch {first_epoch:.4f}"
        held_in = TR.evaluate(cfg, result.params, dataset)
        assert held_in["keypoint_mse"] < 1e-2, held_in
        assert time.time() - t0 < 600.0


def test_04_schedule_values():
    with criterion(4, "learning-rate schedule values"):
        tc = TR.TrainConfig()  # max_lr 5e-4, warmup 4000
        assert TR.lr_at(4000, tc) == 5e-4
        assert TR.lr_at(1000, tc) == 0.000125
        assert abs(TR.lr_at(16000, tc) - 0.00025) < 1e-19
        w = tc.warmup_steps
        ramp = tc.max_lr * w / w
        decay = tc.max_lr * np.sqrt(w / w)
        assert abs(ramp - decay) < 1e-12


def test_05_augmentation_statistics():
    with criterion(5, "patch-subset statistics"):
        n, draws = 64, 100_000
        tc = TR.TrainConfig()  # min_keep defaults to n // 4 = 16
        rng = np.random.default_rng(12345)
        counts = np.zeros(n)
        for _ in range(draws):
            idx = TR.sample_patch_subset(n, tc, rng)
            assert len(set(idx)) == len(idx), "duplicate patch index"
            counts[idx] += 1
        min_keep = n // 4
        p = (min_keep + n) / 2 / n  # E[k]/n for k ~ U{min_keep..n}
        sigma = np.sqrt(p * (1 - p) / draws)
        worst = np.abs(counts / draws - p).max()
        assert worst < 3 * sigma, f"worst deviation {worst:.5f} vs 3s={3*sigma:.5f}"


def test_06_checkpoint_averaging():
    with criterion(6, "checkpoint averaging"):
        cfg = M.HeadConfig(L=2, h=2, d=16, n_patches=8, c_in=8, dropout=0.0)
        base = M.init_head(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        copies = []
        for _ in range(10):
            c = TR.average_checkpoints([base])  # deep structural copy
            for _, t in c.named_parameters():
                t.data = (t.data + rng.normal(0, 0.01, t.shape)).astype(t.data.dtype)
            copies.append(c)
        avg = TR.average_checkpoints(copies)
        tensors = {name: t for name, t in avg.named_parameters()}
        for name, _ in copies[0].named_parameters():
            stack = np.stack([dict(c.named_parameters())[name].data.astype(np.float64)
                              for c in copies])
            direct = stack.mean(axis=0)
            assert np.abs(tensors[name].data - direct).max() < 1e-7, name
        same = TR.average_checkpoints([base] * 10)
        for (_, a), (_, b) in zip(same.named_parameters(),
                                  base.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)


def test_07_parameter_accounting():
    with criterion(7, "parameter accounting"):
        cfg = M.HeadConfig()
        formula = E.transformer_head_params(cfg)
        params = M.init_head(cfg, np.random.default_rng(0))
        walked = sum(t.data.size for _, t in params.named_parameters())
        assert formula == walked == 28_702_223
        report = E.efficiency_report(cfg, E.DeconvConfig())
        again = E.efficiency_report(cfg, E.DeconvConfig())
        assert report.to_text() == again.to_text()
        fields = dict(line.split("\t") for line in
                      report.to_text().strip().splitlines())
        fresh_ratio = formula / E.deconv_head_params(E.DeconvConfig())
        assert fields["param_ratio"] == f"{fresh_ratio:.6f}"


def test_08_patch_permutation_property():
    with criterion(8, "patch permutation property"):
        cfg = profile_head_config("tiny")
        params = M.init_head(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((cfg.n_patches, cfg.c_in)).astype(np.float32)
        base = M.forward(cfg, params, Tensor(feats.copy()))

        perm = rng.permutation(cfg.n_patches)
        saved_pos = params.templates.pos_enc.data.copy()
        params.templates.pos_enc.data = saved_pos[perm]
        permuted = M.forward(cfg, params, Tensor(feats[perm]))
        params.templates.pos_enc.data = saved_pos

        for a, b in ((base.keypoints, permuted.keypoints),
                     (base.twists, permuted.twists),
                     (base.beta, permuted.beta)):
            assert np.abs(a.data - b.data).max() <= 1e-5

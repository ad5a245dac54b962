"""CLI behavior: config layering, echo header, exit codes, artifacts."""

import contextlib
import dataclasses
import io
import os
import struct
import subprocess
import sys
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lifthead.blocks as B
import lifthead.checkpoint as C
import lifthead.gradcheck as G
import lifthead.model as M
import lifthead.synthetic as S
import lifthead.training as TR
from lifthead.cli import FIELDS, main

# fast architecture for train/eval round trips (seconds, not minutes)
MICRO = ["--profile", "tiny", "--d", "16", "--n-samples", "8",
         "--batch-size", "4", "--epochs", "2", "--avg-last-epochs", "2",
         "--warmup-steps", "5", "--max-lr", "1e-3"]


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def kv(out):
    """First two tab-separated columns of every output line."""
    pairs = {}
    for line in out.splitlines():
        parts = line.split("\t")
        if len(parts) >= 2:
            pairs[parts[0]] = parts[1]
    return pairs


def run_quiet(argv):
    """main(argv) with its stdout and stderr caught, for hypothesis tests,
    which cannot take the function-scoped capsys fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# settings drawn on top of --profile tiny, from accepted and rejected values;
# (d, h) pairs are drawn together
RULE_VALUES = {
    "n_patches": ["8", "2", "0"],
    "min_keep_patches": ["none", "0", "4", "99"],
    "n_samples": ["0", "8"],
    "eval_samples": ["0", "8"],
    "noise_sigma": ["-1", "nan", "0"],
    "seed": ["-1", "0"],
    "data_seed": ["-1", "0"],
    "max_lr": ["-1", "nan", "1e-3"],
    "batch_size": ["0", "4"],
    "dropout": ["-0.5", "1", "0.2"],
}
RULE_SHAPES = [("32", "2"), ("16", "4"), ("30", "4"), ("32", "0")]


def micro_cfg():
    return M.HeadConfig(L=2, h=2, d=16, n_patches=16, c_in=32, dropout=0.0)


def strip_wall_ms(text):
    return "\n".join("\t".join(line.split("\t")[:4])
                     for line in text.strip().splitlines())


# the config block of `schedule --steps 1` at the defaults and at the tiny
# profile (the paper profile is the defaults): these lines are the stdout
# contract, in this order and format
ECHO_DEFAULT = (
    "config.profile\tnone\n"
    "config.config_file\tnone\n"
    "config.L\t6\n"
    "config.h\t8\n"
    "config.d\t512\n"
    "config.n_patches\t64\n"
    "config.c_in\t512\n"
    "config.dropout\t0.1\n"
    "config.max_lr\t0.0005\n"
    "config.warmup_steps\t4000\n"
    "config.epochs\t200\n"
    "config.batch_size\t16\n"
    "config.avg_last_epochs\t10\n"
    "config.seed\t0\n"
    "config.min_keep_patches\tnone\n"
    "config.w_kpt\t1\n"
    "config.w_twist\t1\n"
    "config.w_beta\t1\n"
    "config.n_samples\t1024\n"
    "config.eval_samples\t256\n"
    "config.noise_sigma\t0.01\n"
    "config.data_seed\t0\n"
    "config.out_dir\truns\n"
    "config.metrics_file\truns/metrics.tsv\n"
    "config.checkpoint\t\n"
)

ECHO_TINY = (
    "config.profile\ttiny\n"
    "config.config_file\tnone\n"
    "config.L\t2\n"
    "config.h\t2\n"
    "config.d\t32\n"
    "config.n_patches\t16\n"
    "config.c_in\t32\n"
    "config.dropout\t0\n"
    "config.max_lr\t0.0056\n"
    "config.warmup_steps\t400\n"
    "config.epochs\t500\n"
    "config.batch_size\t16\n"
    "config.avg_last_epochs\t10\n"
    "config.seed\t0\n"
    "config.min_keep_patches\t16\n"
    "config.w_kpt\t2\n"
    "config.w_twist\t0.05\n"
    "config.w_beta\t0.5\n"
    "config.n_samples\t64\n"
    "config.eval_samples\t64\n"
    "config.noise_sigma\t0\n"
    "config.data_seed\t0\n"
    "config.out_dir\truns\n"
    "config.metrics_file\truns/metrics.tsv\n"
    "config.checkpoint\t\n"
)

# the `params` report that follows the echo: the profile-dependent counts
# and architecture, then the pose layout, the baseline and the notes
PARAMS_PAPER = (
    "transformer_head_params\t28702223\n"
    "deconv_head_params\t4589824\n"
    "param_ratio\t6.253447\n"
    "transformer_head_flops\t3320971264\n"
    "deconv_head_flops\t15032385536\n"
    "flop_ratio\t0.220921\n"
    "assumption.transformer.L\t6\n"
    "assumption.transformer.h\t8\n"
    "assumption.transformer.d\t512\n"
    "assumption.transformer.n_patches\t64\n"
    "assumption.transformer.c_in\t512\n"
)

PARAMS_TINY = (
    "transformer_head_params\t41327\n"
    "deconv_head_params\t2623744\n"
    "param_ratio\t0.015751\n"
    "transformer_head_flops\t3252224\n"
    "deconv_head_flops\t3506438144\n"
    "flop_ratio\t0.000928\n"
    "assumption.transformer.L\t2\n"
    "assumption.transformer.h\t2\n"
    "assumption.transformer.d\t32\n"
    "assumption.transformer.n_patches\t16\n"
    "assumption.transformer.c_in\t32\n"
)

PARAMS_TAIL = (
    "assumption.transformer.n_joints\t24\n"
    "assumption.transformer.n_twists\t23\n"
    "assumption.transformer.beta_dim\t10\n"
    "assumption.deconv.channels\t256x256x256\n"
    "assumption.deconv.kernel\t4\n"
    "assumption.deconv.depth_bins\t64\n"
    "note.flop_accounting\tmultiply-add = 2 ops; softmax/norm/activation excluded\n"
    "note.gpu_memory\tnot reproduced (hardware-bound)\n"
    "note.wall_clock\tnot reproduced (hardware-bound)\n"
    "note.proxy\tparameter and FLOP counts are the desk-scale proxy\n"
)


class TestConfigResolution:
    def test_echo_header_lists_every_field(self, capsys):
        code, out, _ = run_cli(["schedule", "--steps", "1"], capsys)
        assert code == 0
        pairs = kv(out)
        for name in ("L", "h", "d", "n_patches", "c_in", "dropout", "max_lr",
                     "warmup_steps", "epochs", "batch_size", "avg_last_epochs",
                     "seed", "min_keep_patches", "w_kpt", "w_twist", "w_beta",
                     "n_samples", "eval_samples", "noise_sigma", "data_seed",
                     "out_dir", "metrics_file", "checkpoint"):
            assert f"config.{name}" in pairs, name
        assert out.startswith("config.profile\t")

    def test_model_fields_and_layout_have_one_source(self):
        """Every HeadConfig field is a [model] field, in order, and the pose
        layout constants are the shapes of the synthetic targets."""
        hc = M.HeadConfig
        names = [f.name for f in dataclasses.fields(hc)]
        assert names == ["L", "h", "d", "n_patches", "c_in", "dropout"]
        assert names == [f.name for f in FIELDS if f.section == "model"]
        _, target = S.generate(1, S.SyntheticGen(n_patches=4, c_in=32))[0]
        assert [t.shape for t in (target.keypoints, target.twists, target.beta)] == [
            (hc.n_joints, 3), (hc.n_twists, 2), (hc.beta_dim,)]

    @pytest.mark.parametrize("argv, block", [
        ((), ECHO_DEFAULT), (("--profile", "tiny"), ECHO_TINY),
        (("--profile", "paper"), ECHO_DEFAULT.replace("none", "paper", 1))])
    def test_echo_block_is_pinned(self, capsys, argv, block):
        code, out, _ = run_cli(["schedule", "--steps", "1", *argv], capsys)
        assert code == 0
        assert "".join(line + "\n" for line in out.splitlines()
                       if line.startswith("config.")) == block

    def test_echo_comes_before_command_output(self, capsys):
        _, out, _ = run_cli(["schedule", "--steps", "3"], capsys)
        lines = out.splitlines()
        boundary = next(i for i, l in enumerate(lines)
                        if not l.startswith("config."))
        assert lines[boundary:] == [f"{s}\t{v}" for s, v in
                                    zip("123", ["1.25e-07", "2.5e-07", "3.75e-07"])]

    def test_profile_sets_architecture(self, capsys):
        _, out, _ = run_cli(["params", "--profile", "tiny"], capsys)
        assert kv(out)["config.d"] == "32"
        _, out, _ = run_cli(["params", "--profile", "paper"], capsys)
        assert kv(out)["config.d"] == "512"

    def test_flag_overrides_profile(self, capsys):
        _, out, _ = run_cli(["params", "--profile", "tiny", "--d", "64"], capsys)
        assert kv(out)["config.d"] == "64"

    def test_config_file_between_profile_and_flags(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nd = 128\nh = 4\n\n[train]\nseed = 9\n")
        _, out, _ = run_cli(["params", "--profile", "tiny",
                             "--config", str(ini), "--h", "8"], capsys)
        pairs = kv(out)
        assert pairs["config.d"] == "128"     # file beats profile
        assert pairs["config.h"] == "8"       # flag beats file
        assert pairs["config.seed"] == "9"
        assert pairs["config.config_file"] == str(ini)

    def test_optional_field_accepts_none(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nmin_keep_patches = none\n")
        code, out, _ = run_cli(["schedule", "--steps", "1",
                                "--config", str(ini)], capsys)
        assert code == 0
        assert kv(out)["config.min_keep_patches"] == "none"

    def test_metrics_file_defaults_under_out_dir(self, capsys):
        _, out, _ = run_cli(["schedule", "--steps", "1", "--out", "exp7"], capsys)
        assert kv(out)["config.metrics_file"] == os.path.join("exp7", "metrics.tsv")
        _, out, _ = run_cli(["schedule", "--steps", "1",
                             "--metrics-file", "m.tsv"], capsys)
        assert kv(out)["config.metrics_file"] == "m.tsv"


class TestConfigErrors:
    def test_unknown_profile(self, capsys):
        code, _, err = run_cli(["params", "--profile", "huge"], capsys)
        assert code == 1 and "profile" in err

    def test_bad_flag_value_names_field(self, capsys):
        code, _, err = run_cli(["schedule", "--d", "lots"], capsys)
        assert code == 1 and "d" in err and "lots" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(["schedule", "--bogus", "3"], capsys)
        assert code == 1 and "bogus" in err

    def test_unknown_config_field(self, capsys, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nwidth = 64\n")
        code, _, err = run_cli(["params", "--config", str(ini)], capsys)
        assert code == 1 and "width" in err

    def test_field_in_wrong_section(self, capsys, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[train]\nd = 64\n")
        code, _, err = run_cli(["params", "--config", str(ini)], capsys)
        assert code == 1 and "'d'" in err

    def test_unknown_section(self, capsys, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[misc]\nx = 1\n")
        code, _, err = run_cli(["params", "--config", str(ini)], capsys)
        assert code == 1 and "misc" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(["params", "--config",
                                str(tmp_path / "absent.ini")], capsys)
        assert code == 1 and "absent.ini" in err

    def test_invalid_field_value_names_field(self, capsys):
        code, _, err = run_cli(["params", "--d", "33", "--h", "8"], capsys)
        assert code == 1 and "d=33" in err

    @pytest.mark.parametrize("argv", [["params", "--attn-scale-dim", "8"],
                                      ["train", "--profile", "tiny", "--config", "old.ini"]])
    def test_attn_scale_dim_is_an_unknown_field(self, capsys, tmp_path, monkeypatch, argv):
        """The attention divisor is sqrt(d), not a setting: a flag or a
        config file that names one fails before any work."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old.ini").write_text("[model]\nattn_scale_dim = 8\n")
        code, _, err = run_cli([*argv, "--out", str(tmp_path / "run")], capsys)
        assert code == 1
        want = ("unrecognized arguments: --attn-scale-dim 8" if "--config" not in argv
                else "config: unknown field 'attn_scale_dim' in [model]")
        assert err == f"config error: {want}\n", err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value", [
        ("max_lr", "nan"), ("max_lr", "inf"), ("w_kpt", "nan"), ("w_twist", "inf"),
        ("w_beta", "-inf"), ("noise_sigma", "nan"), ("noise_sigma", "inf")])
    def test_non_finite_setting_names_field(self, capsys, tmp_path, field, value):
        flag = "--" + field.replace("_", "-")
        code, _, err = run_cli(["train", *MICRO, f"{flag}={value}",
                                "--out", str(tmp_path / "run")], capsys)
        assert code == 1
        assert err.startswith(f"config error: {field} must be "), err
        assert "finite" in err

    def test_rejected_data_setting_creates_no_path(self, capsys, tmp_path):
        # each is checked before the data is generated or any path is made,
        # and also with --epochs 0, which makes nothing; min_keep_patches by
        # the rule sample_patch_subset applies
        for setting, message in [
                (["--noise-sigma=-1"], "noise_sigma must be "),
                (["--epochs", "0", "--noise-sigma=-1"], "noise_sigma must be "),
                (["--epochs", "0", "--n-samples", "0"], "n_samples must be >= 1"),
                (["--min-keep-patches", "99"], "min_keep_patches must be in [1, 16], got 99"),
                (["--epochs", "0", "--min-keep-patches", "0"], "min_keep_patches must be in "),
                (["--seed", "-1"], "seed must be >= 0, got -1"),
                (["--epochs", "0", "--seed", "-1"], "seed must be >= 0, got -1"),
                (["--data-seed", "-1"], "data_seed must be >= 0, got -1"),
                (["--epochs", "0", "--data-seed", "-1"], "data_seed must be >= 0, got -1"),
        ]:
            code, _, err = run_cli(["train", *MICRO, *setting,
                                    "--out", str(tmp_path / "run")], capsys)
            assert code == 1, setting
            assert err.startswith("config error: " + message), err
            assert list(tmp_path.iterdir()) == []

    @given(drawn=st.fixed_dictionaries({}, optional={
        **{name: st.sampled_from(values) for name, values in RULE_VALUES.items()},
        "d_h": st.sampled_from(RULE_SHAPES)}))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example(drawn={})
    @example(drawn={"max_lr": "-1"})
    def test_every_command_accepts_or_rejects_alike(self, drawn):
        flags = []
        for name, value in drawn.items():
            pairs = zip(("d", "h"), value) if name == "d_h" else [(name, value)]
            flags += [f"--{n.replace('_', '-')}={v}" for n, v in pairs]
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["--profile", "tiny", *flags, "--epochs", "0",
                    "--out", os.path.join(tmp, "run"),
                    "--checkpoint", os.path.join(tmp, "absent.ckpt")]
            runs = [run_quiet([command, *argv, *extra]) for command, extra in
                    (("params", ()), ("schedule", ("--steps", "1")), ("train", ()))]
            code, out, err = run_quiet(["eval", *argv])
            assert os.listdir(tmp) == []
        assert len({c for c, _, _ in runs}) == 1, runs
        if runs[0][0] == 1:
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert all(line.startswith("config.") for line in out.splitlines())
            assert code == 1 and all((o, e) == (out, err) for _, o, e in runs)
        else:
            assert runs[0][0] == 0
            assert code == 1 and err.startswith("io error: ") and "absent.ckpt" in err, err

    def test_invalid_log_level(self, capsys, monkeypatch):
        monkeypatch.setenv("LIFT_LOG_LEVEL", "chatty")
        code, _, err = run_cli(["schedule", "--steps", "1"], capsys)
        assert code == 1 and "LIFT_LOG_LEVEL" in err

    def test_log_levels_accepted(self, capsys, monkeypatch):
        for level in ("error", "info", "debug"):
            monkeypatch.setenv("LIFT_LOG_LEVEL", level)
            code, _, _ = run_cli(["schedule", "--steps", "1"], capsys)
            assert code == 0

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0

    def test_command_help_prints_every_default(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["train", "--help"])
        assert e.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for f in FIELDS:
            assert f"[{f.section}] {f.name}, default " in text, f.name
        for entry in ("[model] d, default 512", "[model] dropout, default 0.1",
                      "[train] max_lr, default 0.0005", "[train] w_beta, default 1",
                      "[data] noise_sigma, default 0.01", "[io] out_dir, default runs",
                      "[io] checkpoint, default unset"):
            assert entry in text, entry


class TestSchedule:
    def test_steps_4000_last_line(self, capsys):
        code, out, _ = run_cli(["schedule", "--steps", "4000"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "4000\t0.0005"

    def test_respects_schedule_overrides(self, capsys):
        _, out, _ = run_cli(["schedule", "--steps", "100", "--max-lr", "0.001",
                             "--warmup-steps", "100"], capsys)
        assert out.splitlines()[-1] == "100\t0.001"

    def test_default_step_count_is_warmup(self, capsys):
        _, out, _ = run_cli(["schedule", "--warmup-steps", "7"], capsys)
        rows = [l for l in out.splitlines() if not l.startswith("config.")]
        assert len(rows) == 7 and rows[-1].startswith("7\t")

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run_cli(["schedule", "--steps", "0"], capsys)
        assert code == 1 and "steps" in err


class TestParams:
    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(["params", "--profile", "paper"], capsys)
        _, second, _ = run_cli(["params", "--profile", "paper"], capsys)
        assert first == second
        assert kv(first)["transformer_head_params"] == "28702223"

    def test_follows_architecture_flags(self, capsys):
        _, out, _ = run_cli(["params", "--profile", "tiny"], capsys)
        pairs = kv(out)
        assert pairs["assumption.transformer.d"] == "32"
        assert int(pairs["transformer_head_params"]) < 28_702_223

    @pytest.mark.parametrize("profile, echo, report", [
        ("paper", ECHO_DEFAULT.replace("none", "paper", 1), PARAMS_PAPER),
        ("tiny", ECHO_TINY, PARAMS_TINY)], ids=["paper", "tiny"])
    def test_stdout_is_pinned(self, capsys, profile, echo, report):
        code, out, _ = run_cli(["params", "--profile", profile], capsys)
        assert code == 0
        assert out == echo + report + PARAMS_TAIL


class TestGradcheck:
    # table order: each row draws its inputs after the rows above it
    ROWS = ["matmul", "transpose", "add", "sub", "mul", "scale", "relu", "abs", "sum", "mean",
            "softmax_rows", "layer_norm", "dropout", "concat_last_dim", "slice_rows",
            "gather_rows", "reshape", "normalize_rows",  # 18 primitives
            "matmul_batch_x_matrix", "matmul_batch_x_batch", "transpose_axes",
            "softmax_last_axis",  # 4 N-D forms
            "layer_norm_residual", "softmax_scaled", "matmul_bias", "relu_dropout",
            "layer_norm_relu",  # 5 folded forms
            "composed_head", "composed_head_batch3"]

    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run_cli(["gradcheck"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("gradcheck.")]
        assert [r.split("\t")[0] for r in rows] == [f"gradcheck.{n}" for n in self.ROWS]
        assert all(r.endswith("\tpass") for r in rows)

    def test_fault_injection_exits_three(self, capsys, monkeypatch):
        # the matmul row checked against a backward scaled by a 1% fault
        check_op = G.check_op
        matmul = G.primitive_checks()["matmul"][0].__code__

        def faulty_matmul(make_scalar, inputs):
            return check_op(make_scalar, inputs, 0.01 if make_scalar.__code__ is matmul else 0.0)

        monkeypatch.setattr(G, "check_op", faulty_matmul)
        code, out, err = run_cli(["gradcheck"], capsys)
        assert code == 3
        row = next(l for l in out.splitlines()
                   if l.startswith("gradcheck.matmul\t"))
        assert row.endswith("\tfail")
        assert "matmul" in err

    def test_composed_error_at_the_tolerance_fails(self, capsys, monkeypatch):
        # pass means below the tolerance, for the composed rows as for the primitives
        monkeypatch.setattr(G, "composed_head_check", lambda seed, batch: G.COMPOSED_TOLERANCE)
        code, out, err = run_cli(["gradcheck"], capsys)
        assert code == 3
        rows = [l for l in out.splitlines() if l.startswith("gradcheck.composed_head")]
        assert len(rows) == 2 and all(r.endswith("\tfail") for r in rows)
        assert "composed_head_batch3" in err


class TestTrain:
    def test_epochs_zero_echo_only(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(["train", "--profile", "tiny", "--epochs", "0",
                                "--out", str(out_dir)], capsys)
        assert code == 0
        assert not out_dir.exists()
        assert all(line.startswith("config.") for line in out.splitlines())

    def test_writes_checkpoints_metrics_and_summary(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(["train", *MICRO, "--out", str(out_dir)], capsys)
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["averaged.ckpt", "epoch_0000.ckpt",
                         "epoch_0001.ckpt", "metrics.tsv"]
        rows = (out_dir / "metrics.tsv").read_text().strip().splitlines()
        assert len(rows) == 4  # 8 samples / batch 4 * 2 epochs
        assert all(len(r.split("\t")) == 5 for r in rows)
        pairs = kv(out)
        assert pairs["train.steps"] == "4"
        assert float(pairs["train.final_loss"]) > 0
        assert pairs["train.averaged_checkpoint"] == str(out_dir / "averaged.ckpt")

    def test_final_loss_is_the_last_logged_step(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        _, out, _ = run_cli(["train", *MICRO, "--epochs", "3", "--out", str(out_dir)], capsys)
        rows = (out_dir / "metrics.tsv").read_text().splitlines()
        assert len(rows) == 6
        assert kv(out)["train.final_loss"] == rows[-1].split("\t")[3]

    def test_same_seed_identical_runs(self, capsys, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(["train", *MICRO, "--seed", "7",
                                  "--out", str(out_dir)], capsys)
            assert code == 0
            outs.append(out_dir)
        # wall_ms is a measurement; every computed column must match exactly
        a = strip_wall_ms((outs[0] / "metrics.tsv").read_text())
        b = strip_wall_ms((outs[1] / "metrics.tsv").read_text())
        assert a == b
        assert (outs[0] / "averaged.ckpt").read_bytes() == \
               (outs[1] / "averaged.ckpt").read_bytes()

    def test_different_seed_differs(self, capsys, tmp_path):
        texts = []
        for seed in ("7", "8"):
            out_dir = tmp_path / seed
            run_cli(["train", *MICRO, "--seed", seed, "--out", str(out_dir)],
                    capsys)
            texts.append(strip_wall_ms((out_dir / "metrics.tsv").read_text()))
        assert texts[0] != texts[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_exits_two(self, capsys, tmp_path):
        # an absurd peak lr overflows float32 inside the FFN by step 2
        code, _, err = run_cli(
            ["train", *MICRO, "--max-lr", "1e30", "--warmup-steps", "1",
             "--out", str(tmp_path / "run")], capsys)
        assert code == 2
        assert "non-finite loss" in err


class TestEval:
    def run_train(self, capsys, tmp_path, extra=()):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(["train", *MICRO, "--epochs", "3",
                              "--out", str(out_dir), *extra], capsys)
        assert code == 0
        return out_dir

    def test_requires_checkpoint(self, capsys):
        code, _, err = run_cli(["eval", "--profile", "tiny"], capsys)
        assert code == 1 and "checkpoint" in err

    def test_missing_checkpoint_file(self, capsys, tmp_path):
        code, _, err = run_cli(["eval", *MICRO,
                                "--checkpoint", str(tmp_path / "no.ckpt")], capsys)
        assert code == 1 and "no.ckpt" in err

    def test_eval_samples_checked_before_the_checkpoint_is_read(self, capsys, tmp_path):
        code, _, err = run_cli(["eval", *MICRO, "--eval-samples", "0",
                                "--checkpoint", str(tmp_path / "no.ckpt")], capsys)
        assert code == 1
        assert err.startswith("config error: eval_samples must be >= 1"), err

    def test_noise_sigma_checked_before_the_checkpoint_is_read(self, capsys, tmp_path):
        code, _, err = run_cli(["eval", *MICRO, "--noise-sigma=-1",
                                "--checkpoint", str(tmp_path / "no.ckpt")], capsys)
        assert code == 1
        assert err.startswith("config error: noise_sigma must be "), err

    def test_prints_three_metrics(self, capsys, tmp_path):
        out_dir = self.run_train(capsys, tmp_path)
        code, out, _ = run_cli(["eval", *MICRO, "--epochs", "3",
                                "--checkpoint", str(out_dir / "averaged.ckpt")],
                               capsys)
        assert code == 0
        pairs = kv(out)
        for key in ("eval.keypoint_mse", "eval.twist_angular_error_deg",
                    "eval.beta_mse"):
            assert np.isfinite(float(pairs[key]))

    def test_averaged_model_matches_external_mean(self, capsys, tmp_path):
        out_dir = self.run_train(capsys, tmp_path)
        # rebuild the average from the last two epoch files by hand
        cfg = micro_cfg()
        sets = []
        for epoch in (1, 2):
            p = M.init_head(cfg, np.random.default_rng(0))
            C.load_checkpoint(out_dir / f"epoch_{epoch:04d}.ckpt", p)
            sets.append(p)
        external = TR.average_checkpoints(sets)
        ext_path = tmp_path / "external.ckpt"
        C.save_checkpoint(external, None, ext_path)

        metrics = {}
        for tag, path in (("cli", out_dir / "averaged.ckpt"),
                          ("ext", ext_path)):
            code, out, _ = run_cli(["eval", *MICRO, "--epochs", "3",
                                    "--checkpoint", str(path)], capsys)
            assert code == 0
            metrics[tag] = {k: float(v) for k, v in kv(out).items()
                            if k.startswith("eval.")}
        for key in metrics["cli"]:
            assert abs(metrics["cli"][key] - metrics["ext"][key]) < 1e-7

    def test_corrupted_checkpoint_exits_one_with_checksum_message(
            self, capsys, tmp_path):
        out_dir = self.run_train(capsys, tmp_path)
        path = out_dir / "averaged.ckpt"
        path.write_bytes(path.read_bytes()[:-5])
        code, _, err = run_cli(["eval", *MICRO, "--checkpoint", str(path)],
                               capsys)
        assert code == 1 and "checksum" in err.lower()

    def test_malformed_header_with_valid_crc_is_a_checkpoint_error(self, capsys, tmp_path):
        # a tensor count that runs past the end, and a name that is not UTF-8
        path = tmp_path / "bad.ckpt"
        for body in (b"LIFTCKPT" + struct.pack("<II", 2, 1),
                     b"LIFTCKPT" + struct.pack("<IIH", 2, 1, 1) + b"\xff"
                     + struct.pack("<BB", 0, 0) + b"\0" * 4):
            path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
            code, _, err = run_cli(["eval", *MICRO, "--checkpoint", str(path)], capsys)
            assert code == 1
            assert err.startswith("checkpoint error: "), err

    @pytest.mark.parametrize("h", ["1", "4"])
    def test_checkpoint_of_another_head_count_exits_one(self, capsys, tmp_path, monkeypatch, h):
        """The checkpoint states h, which sets no parameter shape: eval with
        another h exits 1 before it writes a parameter."""
        path = self.run_train(capsys, tmp_path) / "averaged.ckpt"
        made, allocate_head = [], M.allocate_head

        def allocate(*args, **kw):
            params = allocate_head(*args, **kw)
            for _, t in params.named_parameters():
                t.data[...] = 7.0
            made.append(params)
            return params

        monkeypatch.setattr(M, "allocate_head", allocate)
        code, out, err = run_cli(["eval", *MICRO, "--h", h, "--checkpoint", str(path)], capsys)
        assert code == 1
        assert err == f"checkpoint error: {path}: blocks.0.mha_2d.h is 2, the head has {h}\n"
        assert "eval." not in out
        assert all((t.data == 7.0).all() for _, t in made[0].named_parameters())

    def test_degenerate_twist_output_has_its_own_message(self, capsys, tmp_path):
        out_dir = self.run_train(capsys, tmp_path)
        params = M.init_head(micro_cfg(), np.random.default_rng(0))
        C.load_checkpoint(out_dir / "averaged.ckpt", params)
        for t in (params.proj_twist.weight, params.proj_twist.bias):
            t.data = np.zeros_like(t.data)
        path = tmp_path / "collapsed.ckpt"
        C.save_checkpoint(params, None, path)
        code, _, err = run_cli(["eval", *MICRO, "--checkpoint", str(path)], capsys)
        assert code == 1
        assert "degenerate output: sample 0 twist row 0" in err
        assert "config error" not in err

    def test_draws_nothing(self, capsys, tmp_path, monkeypatch):
        # every value comes from the checkpoint: no Xavier or embedding draw
        path = str(self.run_train(capsys, tmp_path) / "averaged.ckpt")
        argv = ["eval", *MICRO, "--checkpoint", path]
        code, want, _ = run_cli(argv, capsys)
        assert code == 0

        def no_draws(*args, **kw):
            raise AssertionError("eval drew initial parameters")

        monkeypatch.setattr(B, "fill_uniform", no_draws)
        monkeypatch.setattr(M, "init_head", no_draws)
        code, got, _ = run_cli(argv, capsys)
        assert code == 0
        lines = [line for line in got.splitlines() if line.startswith("eval.")]
        assert len(lines) == 3
        assert lines == [line for line in want.splitlines() if line.startswith("eval.")]

    def test_architecture_mismatch_exits_one(self, capsys, tmp_path):
        out_dir = self.run_train(capsys, tmp_path)
        code, _, err = run_cli(["eval", *MICRO, "--d", "32",
                                "--checkpoint", str(out_dir / "averaged.ckpt")],
                               capsys)
        assert code == 1 and "shape" in err.lower()


def run_module(*argv):
    """`python -m lifthead` in a child process that imports the same package
    as these tests, also from a checkout where it is not installed."""
    src = os.path.dirname(os.path.dirname(C.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lifthead", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("schedule", "--steps", "2")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1].startswith("2\t")

    def test_module_invocation_propagates_failure(self):
        proc = run_module("params", "--profile", "nope")
        assert proc.returncode == 1
        assert "config error: profile" in proc.stderr

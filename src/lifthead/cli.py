"""Command-line entry point.

Commands: train, eval, gradcheck, params, schedule. Settings resolve in
layers (built-in defaults, then --profile, then --config file, then flags)
and the fully resolved configuration is echoed to stdout before anything
runs. `build` then checks every setting, alike for every command and before
any work: a configuration is valid for every command or for none. Stdout
stays tab-separated key/value (or column) lines; free-form diagnostics go
to stderr. Exit codes: 0 success, 1 configuration or checkpoint error or a
degenerate eval output (a twist projection of near-zero length, reported
as "degenerate output: ..."), 2 non-finite training loss or gradient, 3
gradient check failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import logging
import os
import sys
from typing import Optional, get_type_hints

import numpy as np

from . import checkpoint as ckpt
from . import gradcheck as G
from . import model as M
from . import synthetic as S
from . import training as TR
from .efficiency import DeconvConfig, efficiency_report

log = logging.getLogger("lifthead.cli")

# offset so eval draws a sample stream disjoint from the training one; the
# mixing map depends on the feature shape alone, so both streams share it
HELDOUT_SEED_OFFSET = 1


class ConfigError(Exception):
    """Bad configuration; the message names the offending field."""


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    section: str
    name: str
    kind: str  # int | float | str | optint
    default: object


_KINDS = {int: "int", float: "float", Optional[int]: "optint"}


def _dataclass_fields(section: str, cls) -> tuple[FieldSpec, ...]:
    """Specs for cls's fields, in declaration order, with kinds from the
    type hints and the dataclass defaults."""
    hints = get_type_hints(cls)
    return tuple(FieldSpec(section, f.name, _KINDS[hints[f.name]], f.default)
                 for f in dataclasses.fields(cls))


FIELDS = (
    _dataclass_fields("model", M.HeadConfig)
    + _dataclass_fields("train", TR.TrainConfig)
    + (FieldSpec("data", "n_samples", "int", 1024),
       FieldSpec("data", "eval_samples", "int", 256),
       FieldSpec("data", "noise_sigma", "float", 0.01),
       FieldSpec("data", "data_seed", "int", 0),
       FieldSpec("io", "out_dir", "str", "runs"),
       FieldSpec("io", "metrics_file", "str", ""),
       FieldSpec("io", "checkpoint", "str", ""))
)
FIELD_BY_NAME = {f.name: f for f in FIELDS}
SECTIONS = ("model", "train", "data", "io")

# profile values replace defaults before file and flag overrides apply
PROFILES: dict[str, dict[str, object]] = {
    # CI-speed settings sized for the small-sample overfit run: 64 samples
    # at batch 16 is 4 steps/epoch, 500 epochs = 2000 steps. Over those
    # steps the warmup/inverse-sqrt schedule applies a total learning of
    # max_lr * (2*sqrt(2000*w) - 1.5*w) for warmup w and ends at
    # max_lr * sqrt(w/2000). warmup 400 at peak 5.6e-3 applies as much as
    # warmup 889 at 5e-3 (the most at that peak) but ends at 2.5e-3, not
    # 3.3e-3: with L1 terms Adam's last steps jitter by about the lr, and
    # that jitter set the final loss. Keypoint loss is up-weighted because
    # L1 keypoint error is the slowest-converging term at this scale. The
    # shape MSE is halved because it drives the shared layers first: at
    # weight 1 the keypoints sit at the mean prediction for ~130 epochs.
    # The twist term is small so that its slow L1 decline does not hold up
    # the final loss.
    "tiny": dict(L=2, h=2, d=32, n_patches=16, c_in=32, dropout=0.0,
                 max_lr=5.6e-3, warmup_steps=400, epochs=500, batch_size=16,
                 avg_last_epochs=10, min_keep_patches=16, w_kpt=2.0,
                 w_twist=0.05, w_beta=0.5, n_samples=64, eval_samples=64,
                 noise_sigma=0.0),
    # the defaults are the paper's settings
    "paper": {},
}


def _convert(name: str, kind: str, raw: str):
    raw = raw.strip()
    if kind == "optint" and raw.lower() in ("", "none"):
        return None
    try:
        if kind in ("int", "optint"):
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"field {name}: expected {kind.replace('opt', '')}, "
                          f"got {raw!r}") from None
    return raw


def load_config_file(path: str) -> dict[str, object]:
    """Parse a sectioned key = value file into typed field values."""
    if not os.path.isfile(path):
        raise ConfigError(f"config: file not found: {path}")
    cp = configparser.ConfigParser()
    cp.optionxform = str  # preserve case; L and d are case-sensitive names
    try:
        with open(path) as f:
            cp.read_file(f)
    except configparser.Error as e:
        raise ConfigError(f"config: {e}") from None
    values: dict[str, object] = {}
    for section in cp.sections():
        if section not in SECTIONS:
            raise ConfigError(f"config: unknown section [{section}]")
        for key, raw in cp.items(section):
            spec = FIELD_BY_NAME.get(key)
            if spec is None or spec.section != section:
                raise ConfigError(f"config: unknown field {key!r} in [{section}]")
            values[key] = _convert(key, spec.kind, raw)
    return values


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """Defaults, then profile, then config file, then explicit flags."""
    cfg = {f.name: f.default for f in FIELDS}
    if args.profile is not None:
        try:
            cfg.update(PROFILES[args.profile])
        except KeyError:
            known = "|".join(sorted(PROFILES))
            raise ConfigError(
                f"profile: unknown profile {args.profile!r} (choose {known})") from None
    if args.config is not None:
        cfg.update(load_config_file(args.config))
    for f in FIELDS:
        raw = getattr(args, f.name, None)
        if raw is not None:
            cfg[f.name] = _convert(f.name, f.kind, raw)
    if not cfg["metrics_file"]:
        cfg["metrics_file"] = os.path.join(str(cfg["out_dir"]), "metrics.tsv")
    return cfg


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def echo_config(cfg: dict[str, object], args: argparse.Namespace) -> None:
    print(f"config.profile\t{_fmt(args.profile)}")
    print(f"config.config_file\t{_fmt(args.config)}")
    for f in FIELDS:
        print(f"config.{f.name}\t{_fmt(cfg[f.name])}")


def _from_cfg(cls, cfg: dict[str, object]):
    """cls built from the entries of cfg that name its fields."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)})


def head_config(cfg: dict[str, object]) -> M.HeadConfig:
    return _from_cfg(M.HeadConfig, cfg)


def train_config(cfg: dict[str, object]) -> TR.TrainConfig:
    return _from_cfg(TR.TrainConfig, cfg)


def build(cfg: dict[str, object]) -> tuple[M.HeadConfig, TR.TrainConfig, S.SyntheticGen]:
    """Every command's settings objects. Each checks its own fields; here
    fields are checked against each other and the data fields their bounds."""
    hc, tc = head_config(cfg), train_config(cfg)
    TR.min_keep_patches(hc.n_patches, tc)
    for name, low in (("n_samples", 1), ("eval_samples", 1), ("data_seed", 0)):
        if cfg[name] < low:
            raise ConfigError(f"{name} must be >= {low}, got {cfg[name]}")
    return hc, tc, S.SyntheticGen(seed=cfg["data_seed"], n_patches=hc.n_patches,
                                  c_in=hc.c_in, noise_sigma=cfg["noise_sigma"])


def cmd_train(cfg: dict[str, object], hc: M.HeadConfig, tc: TR.TrainConfig,
              gen: S.SyntheticGen) -> int:
    if tc.epochs == 0:
        return 0
    out_dir = str(cfg["out_dir"])
    metrics_file = str(cfg["metrics_file"])
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.dirname(os.path.abspath(metrics_file)), exist_ok=True)

    dataset = S.generate(cfg["n_samples"], gen)
    params = M.init_head(hc, np.random.default_rng(tc.seed))
    log.info("training: %d samples, %d epochs, batch %d",
             len(dataset), tc.epochs, tc.batch_size)
    result = TR.train(hc, params, dataset, tc,
                      checkpoint_dir=out_dir, metrics_path=metrics_file)
    log.info("training finished after %d steps", len(result.metrics))

    print(f"train.steps\t{len(result.metrics)}")
    print(f"train.final_loss\t{result.metrics[-1].loss:.10g}")
    print(f"train.checkpoint_dir\t{out_dir}")
    print(f"train.averaged_checkpoint\t{os.path.join(out_dir, 'averaged.ckpt')}")
    print(f"train.metrics_file\t{metrics_file}")
    return 0


def cmd_eval(cfg: dict[str, object], hc: M.HeadConfig, gen: S.SyntheticGen) -> int:
    if not cfg["checkpoint"]:
        raise ConfigError("checkpoint must be set for eval")
    params = M.allocate_head(hc, [])  # every value comes from the checkpoint
    ckpt.load_checkpoint(str(cfg["checkpoint"]), params)
    dataset = S.generate(cfg["eval_samples"],
                         dataclasses.replace(gen, seed=gen.seed + HELDOUT_SEED_OFFSET))
    log.info("evaluating %s on %d held-out samples",
             cfg["checkpoint"], len(dataset))
    metrics = TR.evaluate(hc, params, dataset)
    for key in ("keypoint_mse", "twist_angular_error_deg", "beta_mse"):
        print(f"eval.{key}\t{metrics[key]:.10g}")
    return 0


def cmd_gradcheck(seed: int) -> int:
    results = G.run_primitive_suite(seed=seed)
    for name, batch in (("composed_head", None), ("composed_head_batch3", 3)):
        err = G.composed_head_check(seed=seed, batch=batch)
        results.append((name, err, err < G.COMPOSED_TOLERANCE))
    failed = []
    for name, err, ok in results:
        print(f"gradcheck.{name}\t{err:.3e}\t{'pass' if ok else 'fail'}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def cmd_params(hc: M.HeadConfig) -> int:
    sys.stdout.write(efficiency_report(hc, DeconvConfig()).to_text())
    return 0


def cmd_schedule(tc: TR.TrainConfig, steps: Optional[str]) -> int:
    n = _convert("steps", "int", steps) if steps is not None else tc.warmup_steps
    if n < 1:
        raise ConfigError(f"steps must be >= 1, got {n}")
    for step in range(1, n + 1):
        print(f"{step}\t{TR.lr_at(step, tc):.10g}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route through the config-error path
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="settings file")
    common.add_argument("--profile", metavar="NAME",
                        help="preset: " + "|".join(sorted(PROFILES)))
    for f in FIELDS:
        flag = "--out" if f.name == "out_dir" else "--" + f.name.replace("_", "-")
        common.add_argument(flag, dest=f.name, metavar=f.kind.upper(),
                            help=f"[{f.section}] {f.name}, default "
                                 f"{_fmt(f.default) or 'unset'}")

    parser = _Parser(prog="lifthead", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", parents=[common],
                   help="fit the head on synthetic data, write checkpoints")
    sub.add_parser("eval", parents=[common],
                   help="score a checkpoint on a held-out synthetic split")
    sub.add_parser("gradcheck", parents=[common],
                   help="finite-difference check of every primitive")
    sub.add_parser("params", parents=[common],
                   help="parameter/FLOP report vs a deconvolution baseline")
    p = sub.add_parser("schedule", parents=[common],
                       help="print the learning-rate schedule")
    p.add_argument("--steps", metavar="INT", help="steps to print")
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("LIFT_LOG_LEVEL", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"LIFT_LOG_LEVEL: expected error|info|debug, "
                          f"got {level_name!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s",
                        force=True)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        echo_config(cfg, args)
        hc, tc, gen = build(cfg)
        if args.command == "train":
            return cmd_train(cfg, hc, tc, gen)
        if args.command == "eval":
            return cmd_eval(cfg, hc, gen)
        if args.command == "gradcheck":
            return cmd_gradcheck(tc.seed)
        if args.command == "params":
            return cmd_params(hc)
        return cmd_schedule(tc, args.steps)
    except M.NormalizationDegenerateError as e:
        print(f"degenerate output: {e}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except ckpt.CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1
    except TR.TrainingAborted as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

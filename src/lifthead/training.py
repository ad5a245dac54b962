"""Training machinery: warmup/decay schedule, Adam, patch-subset
augmentation, the weighted pose loss, per-epoch snapshots with trailing-window
parameter averaging, and eval metrics.
"""

from __future__ import annotations

import copy
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import model as M
from . import tensor as T
from .model import HeadConfig, HeadParams, PoseOutput
from .tensor import Tape, Tensor, backward

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# samples per batched forward in evaluate(); bounds its activation memory
EVAL_BATCH = 64


class TrainingAborted(RuntimeError):
    """Raised when the loss stops being finite."""

    def __init__(self, step: int, lr: float, loss_value: float):
        self.step = step
        self.lr = lr
        self.loss_value = loss_value
        super().__init__(
            f"non-finite loss at step {step}: loss={loss_value}, lr={lr:.3e}")


@dataclass
class TrainConfig:
    max_lr: float = 5e-4
    warmup_steps: int = 4000
    epochs: int = 200
    batch_size: int = 16
    avg_last_epochs: int = 10
    dropout: float = 0.1
    seed: int = 0
    # None -> n_patches // 4, resolved where the patch count is known
    min_keep_patches: Optional[int] = None
    w_kpt: float = 1.0
    w_twist: float = 1.0
    w_beta: float = 1.0

    def __post_init__(self):
        if self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.max_lr <= 0:
            raise ValueError(f"max_lr must be positive, got {self.max_lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.avg_last_epochs < 1:
            raise ValueError(f"avg_last_epochs must be >= 1, got {self.avg_last_epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Inverse-square-root schedule: linear warmup to max_lr at warmup_steps,
    then decay as sqrt(warmup_steps / step). Continuous at the peak."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return cfg.max_lr * min(step / cfg.warmup_steps,
                            math.sqrt(cfg.warmup_steps / step))


@dataclass
class AdamState:
    """First/second moment estimates keyed by parameter name."""
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def init(cls, params: HeadParams) -> "AdamState":
        state = cls()
        for name, t in params.named_parameters():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def adam_step(named_params: Iterable[tuple[str, Tensor]], state: AdamState,
              lr: float) -> None:
    """One Adam update with bias correction; consumes and clears gradients.

    Every parameter must carry a gradient (zero counts, None does not).
    """
    params = list(named_params)
    for name, t in params:
        if t.grad is None:
            raise ValueError(f"parameter {name} has no gradient")
    state.step += 1
    b1c = 1.0 - ADAM_BETA1 ** state.step
    b2c = 1.0 - ADAM_BETA2 ** state.step
    for name, t in params:
        g = t.grad
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / b1c
        v_hat = state.v[name] / b2c
        t.data = t.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        t.grad = None


def sample_patch_subset(n_patches: int, cfg: TrainConfig,
                        rng: np.random.Generator) -> list[int]:
    """Sorted distinct patch indices for one training batch.

    The retained count k is uniform over [min_keep_patches, n_patches]
    inclusive; the indices are then drawn uniformly without replacement. Eval
    never calls this: inference always uses every patch.
    """
    min_keep = cfg.min_keep_patches
    if min_keep is None:
        min_keep = max(1, n_patches // 4)
    if not 1 <= min_keep <= n_patches:
        raise ValueError(
            f"min_keep_patches must be in [1, {n_patches}], got {min_keep}")
    k = int(rng.integers(min_keep, n_patches + 1))
    return sorted(int(i) for i in rng.choice(n_patches, size=k, replace=False))


def loss(pred: PoseOutput, target: PoseOutput, *, w_kpt: float = 1.0,
         w_twist: float = 1.0, w_beta: float = 1.0) -> Tensor:
    """w_kpt * mean|Δkeypoints| + w_twist * mean|Δtwists| + w_beta * mean(Δbeta²)."""
    l_kpt = T.mean(T.abs_(T.sub(pred.keypoints, target.keypoints)))
    l_twist = T.mean(T.abs_(T.sub(pred.twists, target.twists)))
    d_beta = T.sub(pred.beta, target.beta)
    l_beta = T.mean(T.mul(d_beta, d_beta))
    return T.add(T.add(T.scale(l_kpt, w_kpt), T.scale(l_twist, w_twist)),
                 T.scale(l_beta, w_beta))


def average_checkpoints(param_sets: Sequence[HeadParams]) -> HeadParams:
    """Elementwise mean of the parameter sets.

    Computed as first + mean(others - first): deviations between nearby
    checkpoints are small, and identical inputs average to themselves
    bit-for-bit.
    """
    if not param_sets:
        raise ValueError("average_checkpoints needs at least one parameter set")
    names0 = [(n, t.shape) for n, t in param_sets[0].named_parameters()]
    for ps in param_sets[1:]:
        names = [(n, t.shape) for n, t in ps.named_parameters()]
        if names != names0:
            raise ValueError("parameter sets have mismatched structure")
    out = copy.deepcopy(param_sets[0])
    others = [dict(ps.named_parameters()) for ps in param_sets[1:]]
    n = len(param_sets)
    for name, t in out.named_parameters():
        base = t.data
        delta = np.zeros_like(base)
        for ps in others:
            delta = delta + (ps[name].data - base)
        t.data = base + delta / n
        t.grad = None
    return out


@dataclass
class StepMetrics:
    step: int
    epoch: int
    lr: float
    loss: float
    wall_ms: float


def metrics_to_text(metrics: Sequence[StepMetrics]) -> str:
    """One tab-separated line per step: step, epoch, lr, loss, wall_ms."""
    lines = [f"{m.step}\t{m.epoch}\t{m.lr:.10g}\t{m.loss:.10g}\t{m.wall_ms:.3f}"
             for m in metrics]
    return "".join(line + "\n" for line in lines)


@dataclass
class TrainResult:
    params: HeadParams          # trailing-window average across final epochs
    last_params: HeadParams     # raw parameters after the last step
    metrics: list[StepMetrics]


def stack_samples(samples: Sequence[tuple[Tensor, PoseOutput]]
                  ) -> tuple[Tensor, PoseOutput]:
    """One (B, n_patches, c_in) feature batch and its batched targets."""
    targets = [t for _, t in samples]
    return Tensor(np.stack([f.data for f, _ in samples])), PoseOutput(
        keypoints=Tensor(np.stack([t.keypoints.data for t in targets])),
        twists=Tensor(np.stack([t.twists.data for t in targets])),
        beta=Tensor(np.stack([t.beta.data for t in targets])))


def train(head_cfg: HeadConfig, params: HeadParams,
          dataset: Sequence[tuple[Tensor, PoseOutput]], cfg: TrainConfig, *,
          checkpoint_dir=None, metrics_path=None) -> TrainResult:
    """Optimize params on dataset; returns the averaged model and step log.

    Each epoch shuffles, batches, draws one patch subset per batch, and runs
    one batched forward/loss/backward and one Adam update per step (the loss
    of a batch is the mean of its per-sample losses). A parameter snapshot is
    kept per epoch; the returned model is the elementwise mean of the last
    avg_last_epochs snapshots. With checkpoint_dir set, per-epoch and
    averaged checkpoints are also written to disk. A non-finite loss aborts
    with step/lr/loss in the error.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    from . import checkpoint as C

    rng = np.random.default_rng(cfg.seed)
    state = AdamState.init(params)
    snapshots: deque[HeadParams] = deque(maxlen=cfg.avg_last_epochs)
    metrics: list[StepMetrics] = []
    step = 0
    n = len(dataset)
    n_patches = head_cfg.n_patches
    train_cfg_head = copy.copy(head_cfg)
    train_cfg_head.dropout = cfg.dropout

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            features, targets = stack_samples(
                [dataset[i] for i in order[lo:lo + cfg.batch_size]])
            step += 1
            lr = lr_at(step, cfg)
            subset = sample_patch_subset(n_patches, cfg, rng)
            t0 = time.perf_counter()
            with Tape() as tape:
                out = M.forward(train_cfg_head, params, features,
                                training=True, rng=rng, patch_indices=subset)
                total = loss(out, targets, w_kpt=cfg.w_kpt,
                             w_twist=cfg.w_twist, w_beta=cfg.w_beta)
                loss_value = total.item()
                if not math.isfinite(loss_value):
                    raise TrainingAborted(step, lr, loss_value)
                backward(total, tape)
            adam_step(params.named_parameters(), state, lr)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            metrics.append(StepMetrics(step, epoch, lr, loss_value, wall_ms))
        snapshots.append(copy.deepcopy(params))
        if checkpoint_dir is not None:
            C.save_checkpoint(params, state,
                              f"{checkpoint_dir}/epoch_{epoch:04d}.ckpt")

    averaged = average_checkpoints(list(snapshots)) if snapshots else params
    if checkpoint_dir is not None and snapshots:
        C.save_checkpoint(averaged, None, f"{checkpoint_dir}/averaged.ckpt")
    if metrics_path is not None:
        with open(metrics_path, "w") as f:
            f.write(metrics_to_text(metrics))
    return TrainResult(params=averaged, last_params=params, metrics=metrics)


def evaluate(head_cfg: HeadConfig, params: HeadParams,
             dataset: Sequence[tuple[Tensor, PoseOutput]]) -> dict[str, float]:
    """Eval-mode metrics over a dataset: keypoint MSE, mean twist angular
    error in degrees, beta MSE, each the mean of per-sample values. Uses
    every patch (no augmentation); runs batched forwards of at most
    EVAL_BATCH samples."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    kpt_sq, ang_deg, beta_sq = [], [], []
    for lo in range(0, len(dataset), EVAL_BATCH):
        features, target = stack_samples(dataset[lo:lo + EVAL_BATCH])
        out = M.forward(head_cfg, params, features, training=False)
        kpt_sq.append(((out.keypoints.data - target.keypoints.data) ** 2).mean(axis=(1, 2)))
        cosang = np.clip((out.twists.data * target.twists.data).sum(axis=2), -1.0, 1.0)
        ang_deg.append(np.degrees(np.arccos(cosang)).mean(axis=1))
        beta_sq.append(((out.beta.data - target.beta.data) ** 2).mean(axis=1))
    return {
        "keypoint_mse": float(np.mean(np.concatenate(kpt_sq))),
        "twist_angular_error_deg": float(np.mean(np.concatenate(ang_deg))),
        "beta_mse": float(np.mean(np.concatenate(beta_sq))),
    }

"""Training machinery: warmup/decay schedule, Adam, patch-subset
augmentation, the weighted pose loss, trailing-window parameter averaging
(a running mean fed as each epoch ends), and eval metrics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import blocks as B
from . import model as M
from . import tensor as T
from . import workers as W
from .model import HeadConfig, HeadParams, PoseOutput
from .tensor import Tape, Tensor, backward

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# samples per batched forward in evaluate(); bounds its activation memory
EVAL_BATCH = 64


class TrainingAborted(RuntimeError):
    """Raised when the loss or a gradient stops being finite; for a
    gradient, ``parameter`` names the first parameter holding a non-finite
    value."""

    def __init__(self, step: int, lr: float, loss_value: Optional[float] = None,
                 parameter: Optional[str] = None):
        self.step = step
        self.lr = lr
        self.loss_value = loss_value
        self.parameter = parameter
        if parameter is None:
            msg = f"non-finite loss at step {step}: loss={loss_value}, lr={lr:.3e}"
        else:
            msg = (f"non-finite gradient at step {step}: parameter {parameter}, "
                   f"lr={lr:.3e}")
        super().__init__(msg)


@dataclass
class TrainConfig:
    max_lr: float = 5e-4
    warmup_steps: int = 4000
    epochs: int = 200
    batch_size: int = 16
    avg_last_epochs: int = 10
    seed: int = 0
    # None -> n_patches // 4, resolved where the patch count is known
    min_keep_patches: Optional[int] = None
    w_kpt: float = 1.0
    w_twist: float = 1.0
    w_beta: float = 1.0

    def __post_init__(self):
        if self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if not 0 < self.max_lr < math.inf:
            raise ValueError(f"max_lr must be positive and finite, got {self.max_lr}")
        for name in ("w_kpt", "w_twist", "w_beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.avg_last_epochs < 1:
            raise ValueError(f"avg_last_epochs must be >= 1, got {self.avg_last_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Inverse-square-root schedule: linear warmup to max_lr at warmup_steps,
    then decay as sqrt(warmup_steps / step). Continuous at the peak."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return cfg.max_lr * min(step / cfg.warmup_steps,
                            math.sqrt(cfg.warmup_steps / step))


def _pack(tensors: Sequence[Tensor]) -> np.ndarray:
    """One contiguous copy of the tensors' values, in order."""
    if not tensors:
        raise ValueError("no parameters to pack")
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ValueError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
    return np.concatenate([t.data.reshape(-1) for t in tensors])


def _views(flat: np.ndarray, tensors: Sequence[Tensor]) -> list[np.ndarray]:
    """Views of flat, shaped like each tensor, in the order _pack lays them out."""
    ends = np.cumsum([t.size for t in tensors])
    return [flat[end - t.size:end].reshape(t.shape) for t, end in zip(tensors, ends)]


# elements per chunk of the passes over flat parameter buffers (adam_step,
# the running mean): a chunk of the gradient, the moments, the parameters
# and two temporaries stays in a 2 MB L2 cache, where whole-buffer passes
# would stream each array from memory once per operation
ADAM_CHUNK = 1 << 16


@dataclass
class AdamState:
    """Adam moments over a flat parameter arena.

    init copies the parameters into one contiguous buffer, ``arena``, and
    rebinds each parameter's .data to its view of it; ``m_flat`` and
    ``v_flat`` share that layout and are the only copy of the moments.
    ``named`` keeps the (name, Tensor) pairs init packed, in arena order:
    the pairs adam_step updates and the checkpoint's ``adam.m.<name>`` and
    ``adam.v.<name>`` names.
    """
    named: list[tuple[str, Tensor]]
    arena: np.ndarray
    m_flat: np.ndarray
    v_flat: np.ndarray
    views: list[np.ndarray]  # per parameter, the arena view it holds
    # per ADAM_CHUNK-element chunk of the arena, the pieces of the
    # parameters that make it up: (parameter index, None) for a whole
    # parameter, (parameter index, slice) for part of a flattened one
    chunks: list[list[tuple[int, Optional[slice]]]]
    step: int = 0

    @classmethod
    def init(cls, named: Iterable[tuple[str, Tensor]]) -> "AdamState":
        """Pack the (name, Tensor) pairs into a new arena with zero moments."""
        named = list(named)
        tensors = [t for _, t in named]
        arena = _pack(tensors)
        views = _views(arena, tensors)
        for t, view in zip(tensors, views):
            t.data = view
        chunks = [[] for _ in range(0, arena.size, ADAM_CHUNK)]
        start = 0
        for i, t in enumerate(tensors):
            end = start + t.size
            for k in range(start // ADAM_CHUNK, -(-end // ADAM_CHUNK)):
                lo, hi = k * ADAM_CHUNK, (k + 1) * ADAM_CHUNK
                whole = lo <= start and end <= hi
                chunks[k].append((i, None if whole else
                                  slice(max(lo, start) - start, min(hi, end) - start)))
            start = end
        return cls(named=named, arena=arena, m_flat=np.zeros(arena.shape, arena.dtype),
                   v_flat=np.zeros(arena.shape, arena.dtype), views=views, chunks=chunks)

    def named_views(self, flat: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """(name, view of flat shaped like that parameter) in arena order;
        of m_flat or v_flat, the views are the moments adam_step uses."""
        names, tensors = zip(*self.named)
        return list(zip(names, _views(flat, tensors)))


def adam_step(state: AdamState, lr: float) -> None:
    """One Adam update with bias correction of the parameters state was
    initialised from; consumes and clears their gradients.

    Each parameter must still hold its arena view and carry a gradient
    (zero counts, None does not). A non-finite gradient raises
    TrainingAborted before any parameter, moment or the step count changes.

    The update runs chunk by chunk over the arena, in two passes that hand
    the chunks out to up to one thread per usable CPU if the arena's bytes
    are pooled (workers.over_chunks, workers.POOL_BYTES). The first pass
    checks that every gradient is finite, and has finished on every thread
    before the second one updates anything. A chunk's gradient is a view
    of one parameter's gradient where the chunk lies within it, and is
    otherwise gathered into the thread's own buffer with one
    np.concatenate. Every element goes through the same operations in the
    same order whichever thread takes its chunk, so the result is
    bit-identical to a single-threaded update.
    """
    for (name, t), view in zip(state.named, state.views):
        if t.grad is None:
            raise ValueError(f"parameter {name} has no gradient")
        if t.data is not view:
            raise ValueError(f"parameter {name} no longer holds its view of the Adam "
                             f"arena; call AdamState.init again")
    grads = [t.grad for _, t in state.named]
    n = state.arena.size
    n_chunks = len(state.chunks)

    def scratch():
        return np.empty(min(n, ADAM_CHUNK), dtype=state.arena.dtype)

    def gather(k, buf):
        pieces = state.chunks[k]
        if len(pieces) == 1:  # within one parameter: a view of its gradient
            i, part = pieces[0]
            return grads[i].reshape(-1)[part or slice(None)]
        return np.concatenate(
            [grads[i] if part is None else grads[i].reshape(-1)[part]
             for i, part in pieces],
            axis=None, out=buf[:min(n - k * ADAM_CHUNK, ADAM_CHUNK)])

    def finite(chunks):
        buf = scratch()
        return all(np.isfinite(gather(k, buf)).all() for k in chunks)

    if not all(W.over_chunks(finite, n_chunks, state.arena.nbytes)):
        bad = next(name for name, t in state.named if not np.isfinite(t.grad).all())
        raise TrainingAborted(state.step + 1, lr, parameter=bad)
    state.step += 1
    b1c = 1.0 - ADAM_BETA1 ** state.step
    b2c = 1.0 - ADAM_BETA2 ** state.step

    # the per-tensor update's operations, in its order, applied in place:
    #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
    #   p = p - lr (m / b1c) / (sqrt(v / b2c) + eps)
    def update(chunks):
        buf, tmp, den = scratch(), scratch(), scratch()
        for k in chunks:
            g = gather(k, buf)
            lo = k * ADAM_CHUNK
            hi = lo + g.size
            m, v, p = state.m_flat[lo:hi], state.v_flat[lo:hi], state.arena[lo:hi]
            t1, t2 = tmp[:g.size], den[:g.size]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=t1)
            m += t1
            v *= ADAM_BETA2
            np.multiply(g, g, out=t1)
            t1 *= 1.0 - ADAM_BETA2
            v += t1
            np.divide(v, b2c, out=t2)
            np.sqrt(t2, out=t2)
            t2 += ADAM_EPS
            np.divide(m, b1c, out=t1)
            t1 *= lr
            t1 /= t2
            p -= t1

    W.over_chunks(update, n_chunks, state.arena.nbytes)
    for _, t in state.named:
        t.grad = None


def min_keep_patches(n_patches: int, cfg: TrainConfig) -> int:
    """cfg.min_keep_patches (None: n_patches // 4, at least 1), in [1, n_patches]."""
    k = max(1, n_patches // 4) if cfg.min_keep_patches is None else cfg.min_keep_patches
    if not 1 <= k <= n_patches:
        raise ValueError(f"min_keep_patches must be in [1, {n_patches}], got {k}")
    return k


def sample_patch_subset(n_patches: int, cfg: TrainConfig,
                        rng: np.random.Generator) -> list[int]:
    """Sorted distinct patch indices for one training batch.

    The retained count k is uniform over [min_keep_patches, n_patches]
    inclusive; the indices are then drawn uniformly without replacement. Eval
    never calls this: inference always uses every patch.
    """
    k = int(rng.integers(min_keep_patches(n_patches, cfg), n_patches + 1))
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


class _RunningMean:
    """first + (Σ (other - first)) / n of flat arrays packed like ``like``, fed
    one at a time: nearby checkpoints deviate little, and equal inputs average
    to themselves bit-for-bit. Keeps the first array (not copied), the sum, n."""

    def __init__(self, like: HeadParams, first: np.ndarray):
        self.like, self.base, self.delta, self.n = like, first, None, 1

    def add(self, flat: np.ndarray) -> None:
        if self.delta is None:
            self.delta = np.zeros_like(self.base)
        # by chunks, so that the temporaries stay in cache
        for lo in range(0, flat.size, ADAM_CHUNK):
            chunk = slice(lo, lo + ADAM_CHUNK)
            self.delta[chunk] += flat[chunk] - self.base[chunk]
        self.n += 1


def average_checkpoints(param_sets) -> HeadParams:
    """Elementwise mean of a sequence of HeadParams, packed and fed in order
    to a _RunningMean, or of the arrays fed to a given _RunningMean. The
    result is shaped like the first set (or the running mean's ``like``); its
    tensors view the deviation sum, overwritten in place with the mean. A
    single set is its own mean: the result views a packed copy of it, keeping
    any -0.0 that the formula would turn into +0.0.
    """
    mean = param_sets
    if not isinstance(mean, _RunningMean):
        if not param_sets:
            raise ValueError("average_checkpoints needs at least one parameter set")
        if len({tuple((n, t.shape) for n, t in ps.named_parameters())
                for ps in param_sets}) > 1:
            raise ValueError("parameter sets have mismatched structure")
        flats = (_pack([t for _, t in ps.named_parameters()]) for ps in param_sets)
        mean = _RunningMean(param_sets[0], next(flats))
        for flat in flats:
            mean.add(flat)
    avg = mean.base
    if mean.n > 1:  # sum / n + base in place: addition commutes exactly
        avg = np.divide(mean.delta, mean.n, out=mean.delta)
        avg += mean.base
    views = iter(_views(avg, [t for _, t in mean.like.named_parameters()]))
    return B.rebuild(mean.like, lambda t: Tensor(next(views), requires_grad=t.requires_grad))


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
    of a batch is the mean of its per-sample losses); the forward applies
    head_cfg.dropout. The returned model is the mean of the parameters after
    each of the last avg_last_epochs epochs, fed to a running mean as each ends.
    With checkpoint_dir set, per-epoch and averaged checkpoints are also
    written to disk. A non-finite loss aborts with step/lr/loss in the
    error, a non-finite gradient with step/lr/parameter. params are first
    packed into a new Adam arena, so on return their .data are views of one
    buffer.

    Each epoch ends by writing its checkpoint and then feeding the window
    (or, at the window's first epoch, creating it from a copy of the arena).
    At the last epoch the Adam state is dropped in between, so its moments
    are freed before the window copies or sums the arena: a window that
    starts at the last epoch (a 1-epoch call) never holds the copy beside
    the moments.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    from . import checkpoint as C

    rng = np.random.default_rng(cfg.seed)
    # packs params into the arena on every call: callers may rebind .data
    state = AdamState.init(params.named_parameters())
    window: Optional[_RunningMean] = None  # of the last avg_last_epochs epochs
    metrics: list[StepMetrics] = []
    step = 0
    n = len(dataset)
    n_patches = head_cfg.n_patches

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
                out = M.forward(head_cfg, params, features,
                                training=True, rng=rng, patch_indices=subset)
                total = loss(out, targets, w_kpt=cfg.w_kpt,
                             w_twist=cfg.w_twist, w_beta=cfg.w_beta)
                loss_value = total.item()
                if not math.isfinite(loss_value):
                    raise TrainingAborted(step, lr, loss_value)
                backward(total, tape)
            # backward emptied the tape as it walked it; drop the tape too,
            # so that no tape outlives its step
            del tape
            adam_step(state, lr)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            metrics.append(StepMetrics(step, epoch, lr, loss_value, wall_ms))
        if checkpoint_dir is not None:
            C.save_checkpoint(params, state,
                              f"{checkpoint_dir}/epoch_{epoch:04d}.ckpt")
        arena = state.arena
        if epoch == cfg.epochs - 1:
            del state  # frees the moments before the window's copy or sum
        if window is not None:
            window.add(arena)
        elif epoch >= cfg.epochs - cfg.avg_last_epochs:
            window = _RunningMean(params, arena.copy())

    averaged = params if window is None else average_checkpoints(window)
    if checkpoint_dir is not None and window is not None:
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

"""Finite-difference gradient checking.

The oracle is independent of the tape: it re-evaluates a scalar function of
plain float64 arrays with central differences and compares against whatever
analytic gradient the caller hands it. Used by the test suite and by the
``gradcheck`` CLI command.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T

FD_STEP = 1e-5
PRIMITIVE_TOLERANCE = 1e-6  # worst relative error that passes, per primitive
COMPOSED_TOLERANCE = 1e-4   # and for the whole head


def numeric_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                 step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute difference, scaled by the largest gradient magnitude.

    The scale is floored at 1.0 so directions whose true gradient is zero
    (where central differences only return roundoff noise) are compared
    absolutely at the stated tolerance instead of dividing noise by noise.
    """
    diff = np.abs(analytic - numeric).max(initial=0.0)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1.0)
    return float(diff / scale)


def check_op(make_scalar: Callable[[Sequence[T.Tensor]], T.Tensor],
             inputs: Sequence[np.ndarray],
             fault: float = 0.0) -> float:
    """Compare tape gradients of make_scalar against central differences.

    make_scalar receives float64 leaf Tensors and must return a scalar Tensor
    built from tape primitives. Returns the worst relative error over all
    inputs. ``fault`` perturbs the analytic gradients multiplicatively; the
    CLI uses it to prove the checker can fail.
    """
    leaves = [T.Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in inputs]
    with T.Tape() as tape:
        loss = make_scalar(leaves)
    T.backward(loss, tape)

    worst = 0.0
    for k, leaf in enumerate(leaves):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        analytic = analytic * (1.0 + fault)

        def f(arr, k=k):
            vals = [T.Tensor(np.asarray(a, dtype=np.float64)) for a in inputs]
            vals[k] = T.Tensor(np.asarray(arr, dtype=np.float64))
            return make_scalar(vals).item()

        numeric = numeric_grad(f, np.asarray(inputs[k], dtype=np.float64))
        worst = max(worst, rel_error(analytic, numeric))
    return worst


def _weighted(out: T.Tensor, w: np.ndarray) -> T.Tensor:
    # random projection to a scalar so no gradient direction cancels out
    return T.sum_(T.mul(out, T.Tensor(np.asarray(w, dtype=np.float64))))


def primitive_checks(seed: int = 0) -> dict[str, Callable[[float], float]]:
    """One finite-difference check per differentiable primitive, plus one
    per N-D form of matmul, transpose and softmax_rows, and one per folded
    form of layer_norm (residual, relu), softmax_rows (scale), matmul (bias)
    and relu (dropout).

    Returns a name -> callable map; each callable takes a fault factor and
    returns the worst relative error for that primitive.
    """
    rng = np.random.default_rng(seed)

    def r(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    a44, b44 = r(4, 4), r(4, 4)
    x35 = r(3, 5)
    gamma5, beta5 = r(5), r(5)
    bias5 = r(5)
    w35, w44, w_scalar = r(3, 5), r(4, 4), r(1)
    w53 = r(5, 3)
    w_concat = r(3, 6)
    w_rows = r(2, 5)
    w_gather = r(4, 5)
    w_resh = r(15)
    drop_seed = int(rng.integers(1 << 30))
    # batched forms: a (2, 3, 4) stack against a shared (4, 5) matrix and
    # against a (2, 4, 5) stack; an axes permutation; softmax on the last
    # axis, whose width 7 makes the halving row max fold an odd column twice
    # (7 -> 3 -> 1), as width 5 does in the 2-D check
    x234, b45, b245 = r(2, 3, 4), r(4, 5), r(2, 4, 5)
    w235, w423 = r(2, 3, 5), r(4, 2, 3)
    x237, w237 = r(2, 3, 7), r(2, 3, 7)

    checks = {
        "matmul": lambda fault=0.0: check_op(
            lambda t: _weighted(T.matmul(t[0], t[1]), w44), [a44, b44], fault),
        "transpose": lambda fault=0.0: check_op(
            lambda t: _weighted(T.transpose(t[0], (1, 0)), w53), [x35], fault),
        "add": lambda fault=0.0: check_op(
            lambda t: _weighted(T.add(t[0], t[1]), w35), [x35, r(3, 5)], fault),
        "sub": lambda fault=0.0: check_op(
            lambda t: _weighted(T.sub(t[0], t[1]), w35), [x35, r(3, 5)], fault),
        "mul": lambda fault=0.0: check_op(
            lambda t: _weighted(T.mul(t[0], t[1]), w35), [x35, r(3, 5)], fault),
        "scale": lambda fault=0.0: check_op(
            lambda t: _weighted(T.scale(t[0], -1.7), w35), [x35], fault),
        "relu": lambda fault=0.0: check_op(
            lambda t: _weighted(T.relu(t[0]), w35), [x35 + 0.05], fault),
        "abs": lambda fault=0.0: check_op(
            lambda t: _weighted(T.abs_(t[0]), w35), [x35 + 0.05], fault),
        "sum": lambda fault=0.0: check_op(
            lambda t: T.mul(T.sum_(t[0]), T.Tensor(np.float64(w_scalar[0]))),
            [x35], fault),
        "mean": lambda fault=0.0: check_op(
            lambda t: T.mul(T.mean(t[0]), T.Tensor(np.float64(w_scalar[0]))),
            [x35], fault),
        "softmax_rows": lambda fault=0.0: check_op(
            lambda t: _weighted(T.softmax_rows(t[0]), w35), [x35], fault),
        "layer_norm": lambda fault=0.0: check_op(
            lambda t: _weighted(T.layer_norm(t[0], t[1], t[2], eps=1e-5), w35),
            [x35, gamma5, beta5], fault),
        "dropout": lambda fault=0.0: check_op(
            lambda t: _weighted(T.dropout(t[0], 0.3, np.random.default_rng(drop_seed)), w35),
            [x35], fault),
        "concat_last_dim": lambda fault=0.0: check_op(
            lambda t: _weighted(T.concat_last_dim([t[0], t[1]]), w_concat),
            [r(3, 2), r(3, 4)], fault),
        "slice_rows": lambda fault=0.0: check_op(
            lambda t: _weighted(T.slice_rows(t[0], 1, 3), w_rows),
            [r(4, 5)], fault),
        "gather_rows": lambda fault=0.0: check_op(
            lambda t: _weighted(T.gather_rows(t[0], [2, 0, 2, 1]), w_gather),
            [r(3, 5)], fault),
        "reshape": lambda fault=0.0: check_op(
            lambda t: _weighted(T.reshape(t[0], (15,)), w_resh), [x35], fault),
        "normalize_rows": lambda fault=0.0: check_op(
            lambda t: _weighted(T.normalize_rows(t[0], eps=1e-8), w35),
            [x35 + np.sign(x35) * 0.1], fault),
        "matmul_batch_x_matrix": lambda fault=0.0: check_op(
            lambda t: _weighted(T.matmul(t[0], t[1]), w235), [x234, b45], fault),
        "matmul_batch_x_batch": lambda fault=0.0: check_op(
            lambda t: _weighted(T.matmul(t[0], t[1]), w235), [x234, b245], fault),
        "transpose_axes": lambda fault=0.0: check_op(
            lambda t: _weighted(T.transpose(t[0], (2, 0, 1)), w423), [x234], fault),
        "softmax_last_axis": lambda fault=0.0: check_op(
            lambda t: _weighted(T.softmax_rows(t[0]), w237), [x237], fault),
        # folded forms, on an odd last axis: a residual summand, and a
        # score scale other than 1
        "layer_norm_residual": lambda fault=0.0: check_op(
            lambda t: _weighted(T.layer_norm(t[0], t[1], t[2], eps=1e-5, residual=t[3]),
                                w237[0]),
            [r(3, 7), r(7), r(7), r(3, 7)], fault),
        "softmax_scaled": lambda fault=0.0: check_op(
            lambda t: _weighted(T.softmax_rows(t[0], scale=2.5), w237), [r(2, 3, 7)], fault),
        # last: these rows draw their inputs when they run, after every row
        # above, so those keep their draws
        "matmul_bias": lambda fault=0.0: check_op(
            lambda t: _weighted(T.matmul(*t), w35), [r(3, 4), r(4, 5), bias5], fault),
        "relu_dropout": lambda fault=0.0: check_op(
            lambda t: _weighted(T.relu(t[0], 0.3, np.random.default_rng(drop_seed)), w35),
            [r(3, 5)], fault),
        "layer_norm_relu": lambda fault=0.0: check_op(
            lambda t: _weighted(T.layer_norm(t[0], t[1], t[2], eps=1e-5, relu=True), w35),
            [r(3, 5), r(5), r(5)], fault),
    }
    return checks


def run_primitive_suite(tolerance: float = PRIMITIVE_TOLERANCE,
                        seed: int = 0) -> list[tuple[str, float, bool]]:
    """Run every primitive check; returns (name, worst rel error, passed) rows."""
    results = []
    for name, check in primitive_checks(seed).items():
        err = check(0.0)
        results.append((name, err, err < tolerance))
    return results


def composed_head_check(seed: int = 0, coords_per_tensor: int = 4,
                        batch: Optional[int] = None) -> float:
    """Worst relative error across all parameters of a small full head.

    A random linear readout of the pose outputs gives the scalar; every
    parameter tensor and the input features are probed at a few coordinates
    with central differences in float64. With batch set, the features are a
    (batch, n_patches, c_in) stack and the batched path is checked.
    Parameters are first jittered away from the init point, where zero
    biases park whole relu rows exactly on the kink and a one-sided slope is
    the honest answer that central differences cannot measure.
    """
    from . import model as M

    cfg = M.HeadConfig(L=2, h=2, d=8, n_patches=4, c_in=6, dropout=0.0)
    rng = np.random.default_rng(seed)
    params = M.init_head(cfg, rng, dtype=np.float64)
    for _, t in params.named_parameters():
        t.data = t.data + rng.uniform(-0.05, 0.05, size=t.shape)
    lead = () if batch is None else (batch,)
    feats = T.Tensor(rng.standard_normal(lead + (cfg.n_patches, cfg.c_in)))
    feats.requires_grad = True
    wk = rng.standard_normal(lead + (cfg.n_joints, 3))
    wt = rng.standard_normal(lead + (cfg.n_twists, 2))
    wb = rng.standard_normal(lead + (cfg.beta_dim,))

    def readout():
        out = M.forward(cfg, params, feats)
        s = T.add(T.sum_(T.mul(out.keypoints, T.Tensor(wk))),
                  T.sum_(T.mul(out.twists, T.Tensor(wt))))
        return T.add(s, T.sum_(T.mul(out.beta, T.Tensor(wb))))

    with T.Tape() as tape:
        T.backward(readout(), tape)

    worst = 0.0
    targets = list(params.named_parameters()) + [("features", feats)]
    for _, t in targets:
        flat = t.data.reshape(-1)
        picks = rng.choice(flat.size, size=min(coords_per_tensor, flat.size),
                           replace=False)
        analytic = t.grad.reshape(-1)[picks]
        numeric = np.empty_like(analytic)
        for j, idx in enumerate(picks):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            up = readout().item()
            flat[idx] = orig - FD_STEP
            down = readout().item()
            flat[idx] = orig
            numeric[j] = (up - down) / (2.0 * FD_STEP)
        worst = max(worst, rel_error(analytic, numeric))
    return worst

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
COMPOSED_COORDS = 4         # coordinates probed per tensor of the whole head


def numeric_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                 coords: Optional[Sequence[int]] = None) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time.

    A float64 x is perturbed in place and restored after each coordinate,
    so f may read it through another reference (a parameter's .data).
    With coords, only those flat coordinates are probed, and their
    derivatives come back in that order as a 1-D array.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.flat  # writes reach x in any memory layout, where reshape may copy
    picks = range(x.size) if coords is None else coords
    g = np.empty(len(picks))
    for j, i in enumerate(picks):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f(x)
        flat[i] = orig - FD_STEP
        fm = f(x)
        flat[i] = orig
        g[j] = (fp - fm) / (2.0 * FD_STEP)
    return g.reshape(x.shape) if coords is None else g


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
    tests use it to prove the checker can fail.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in inputs]
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        loss = make_scalar(leaves)
    T.backward(loss, tape)

    def f(_):  # numeric_grad perturbs one of arrays in place
        return make_scalar([T.Tensor(a) for a in arrays]).item()

    worst = 0.0
    for leaf, arr in zip(leaves, arrays):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(arr)
        worst = max(worst, rel_error(analytic * (1.0 + fault), numeric_grad(f, arr)))
    return worst


def _weighted(out: T.Tensor, w: np.ndarray) -> T.Tensor:
    # random projection to a scalar so no gradient direction cancels out
    return T.sum_(T.mul(out, T.Tensor(np.asarray(w, dtype=np.float64))))


def primitive_checks(seed: int = 0) -> dict[str, tuple[Callable, list[np.ndarray]]]:
    """One finite-difference check per differentiable primitive, plus one
    per N-D form of matmul, transpose and softmax_rows, and one per folded
    form of layer_norm (residual, relu), softmax_rows (scale), matmul (bias)
    and relu (dropout).

    Returns a name -> (make_scalar, inputs) map, the arguments of check_op.
    The inputs are drawn from one stream seeded by seed: the shared arrays
    first, then each row's own in row order, so a new row goes last to
    leave every earlier row's inputs as they are.
    """
    rng = np.random.default_rng(seed)

    def r(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    a44, b44, x35 = r(4, 4), r(4, 4), r(3, 5)
    gamma5, beta5, bias5 = r(5), r(5), r(5)
    w35, w44, w_scalar, w53 = r(3, 5), r(4, 4), r(1), r(5, 3)
    w_concat, w_rows, w_gather, w_resh = r(3, 6), r(2, 5), r(4, 5), r(15)
    drop_seed = int(rng.integers(1 << 30))
    # batched forms: a (2, 3, 4) stack against a shared (4, 5) matrix and
    # against a (2, 4, 5) stack; an axes permutation; softmax on the last
    # axis. Rows this narrow take _row_max's transposed path; both sides of
    # its cut are checked by test_tensor.py::test_row_max_is_exact
    x234, b45, b245 = r(2, 3, 4), r(4, 5), r(2, 4, 5)
    w235, w423 = r(2, 3, 5), r(4, 2, 3)
    x237, w237 = r(2, 3, 7), r(2, 3, 7)

    def drop():  # the same dropout mask at every evaluation
        return np.random.default_rng(drop_seed)

    return {
        "matmul": (lambda t: _weighted(T.matmul(*t), w44), [a44, b44]),
        "transpose": (lambda t: _weighted(T.transpose(t[0], (1, 0)), w53), [x35]),
        "add": (lambda t: _weighted(T.add(*t), w35), [x35, r(3, 5)]),
        "sub": (lambda t: _weighted(T.sub(*t), w35), [x35, r(3, 5)]),
        "mul": (lambda t: _weighted(T.mul(*t), w35), [x35, r(3, 5)]),
        "scale": (lambda t: _weighted(T.scale(t[0], -1.7), w35), [x35]),
        "relu": (lambda t: _weighted(T.relu(t[0]), w35), [x35 + 0.05]),
        "abs": (lambda t: _weighted(T.abs_(t[0]), w35), [x35 + 0.05]),
        "sum": (lambda t: T.mul(T.sum_(t[0]), T.Tensor(np.float64(w_scalar[0]))), [x35]),
        "mean": (lambda t: T.mul(T.mean(t[0]), T.Tensor(np.float64(w_scalar[0]))), [x35]),
        "softmax_rows": (lambda t: _weighted(T.softmax_rows(t[0]), w35), [x35]),
        "layer_norm": (lambda t: _weighted(T.layer_norm(*t), w35), [x35, gamma5, beta5]),
        "dropout": (lambda t: _weighted(T.dropout(t[0], 0.3, drop()), w35), [x35]),
        "concat_last_dim": (lambda t: _weighted(T.concat_last_dim(t), w_concat),
                            [r(3, 2), r(3, 4)]),
        "slice_rows": (lambda t: _weighted(T.slice_rows(t[0], 1, 3), w_rows), [r(4, 5)]),
        "gather_rows": (lambda t: _weighted(T.gather_rows(t[0], [2, 0, 2, 1]), w_gather),
                        [r(3, 5)]),
        "reshape": (lambda t: _weighted(T.reshape(t[0], (15,)), w_resh), [x35]),
        "normalize_rows": (lambda t: _weighted(T.normalize_rows(t[0]), w35),
                           [x35 + np.sign(x35) * 0.1]),
        "matmul_batch_x_matrix": (lambda t: _weighted(T.matmul(*t), w235), [x234, b45]),
        "matmul_batch_x_batch": (lambda t: _weighted(T.matmul(*t), w235), [x234, b245]),
        "transpose_axes": (lambda t: _weighted(T.transpose(t[0], (2, 0, 1)), w423), [x234]),
        "softmax_last_axis": (lambda t: _weighted(T.softmax_rows(t[0]), w237), [x237]),
        # folded forms, on an odd last axis: a residual summand, and a
        # score scale other than 1
        "layer_norm_residual": (lambda t: _weighted(
            T.layer_norm(*t[:3], residual=t[3]), w237[0]), [r(3, 7), r(7), r(7), r(3, 7)]),
        "softmax_scaled": (lambda t: _weighted(T.softmax_rows(t[0], scale=2.5), w237),
                           [r(2, 3, 7)]),
        "matmul_bias": (lambda t: _weighted(T.matmul(*t), w35), [r(3, 4), r(4, 5), bias5]),
        "relu_dropout": (lambda t: _weighted(T.relu(t[0], 0.3, drop()), w35), [r(3, 5)]),
        "layer_norm_relu": (lambda t: _weighted(T.layer_norm(*t, relu=True), w35),
                            [r(3, 5), r(5), r(5)]),
    }


def run_primitive_suite(seed: int = 0) -> list[tuple[str, float, bool]]:
    """Run every primitive check; returns (name, worst rel error, passed) rows."""
    results = []
    for name, (make_scalar, inputs) in primitive_checks(seed).items():
        err = check_op(make_scalar, inputs)
        results.append((name, err, err < PRIMITIVE_TOLERANCE))
    return results


def composed_head_check(seed: int = 0, batch: Optional[int] = None) -> float:
    """Worst relative error across all parameters of a small full head.

    A random linear readout of the pose outputs gives the scalar; every
    parameter tensor and the input features are probed at COMPOSED_COORDS
    coordinates with central differences in float64, perturbed in place.
    With batch set, the features are a (batch, n_patches, c_in) stack and
    the batched path is checked. Parameters are first jittered away from
    the init point, where zero biases park whole relu rows exactly on the
    kink and a one-sided slope is the honest answer that central
    differences cannot measure.
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
    for _, t in list(params.named_parameters()) + [("features", feats)]:
        picks = rng.choice(t.size, size=min(COMPOSED_COORDS, t.size), replace=False)
        numeric = numeric_grad(lambda _: readout().item(), t.data, coords=picks)
        worst = max(worst, rel_error(t.grad.reshape(-1)[picks], numeric))
    return worst

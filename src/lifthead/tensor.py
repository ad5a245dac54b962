"""Dense tensor arithmetic with reverse-mode differentiation.

Values are row-major numpy arrays, float32 by default with float64 available
for gradient oracles. Differentiation uses a dynamic tape: primitives executed
while a Tape is active append one entry each, in execution order, so the tape
is already topologically sorted. backward() walks it once in reverse and
accumulates gradients into leaf tensors (parameters and inputs flagged
requires_grad).

Liveness: the tape keeps alive only what the backward pass reads. An entry
refers to an input recorded on the same tape by its node id, holds a
requires_grad leaf itself, and drops any other input. Each primitive's
backward_fn captures only the arrays (and shapes, dtypes, constants) it
reads, never an input Tensor, so an intermediate whose values no backward_fn
needs is freed as soon as the forward pass lets go of it. A mask is kept as
a bool array, not a float copy: dropout and relu with dropout keep the
mask of kept elements so, and relu and layer_norm with relu read the relu
mask from the output they return, which the next op keeps anyway.
backward() pops each entry as it walks past it, so an activation is freed
once the last entry that reads it has run, while the gradients build up. A
tape is therefore walked once: a second backward() on it raises.

Heap policy: importing this module pins glibc's malloc thresholds for the
whole process, so that the heap a training step frees is reused rather than
returned to the kernel and faulted in again. The heap then never shrinks,
for this package and for every other library in the process, until the
process exits (_pin_heap_policy gives the measurements).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


def _pin_heap_policy() -> None:
    """Fix glibc's malloc thresholds: the heap grows for any request under
    32 MiB, and its free top is never handed back to the kernel.

    A training step frees most of what it allocates. Under glibc's default,
    dynamic thresholds the freed top of the heap went back to the kernel and
    the next train() or evaluate() call faulted it in again, page by page:
    with the tape holding only what backward reads, a paper-profile train()
    call took 38-40K page faults on every call (under 200 with this policy,
    once the heap has grown to its high-water mark) and a tiny-profile
    evaluate() 544 (0), which made it about 10% slower. Setting the trim
    threshold alone would also freeze the mmap threshold at its 128 KiB
    start and send every larger block to mmap, so both are set; 32 MiB is
    the ceiling the dynamic mmap threshold reaches on 64-bit glibc. A no-op
    where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 2 ** 31 - 1)


_pin_heap_policy()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class NonScalarLossError(ValueError):
    """Raised when backward() is seeded from a tensor with more than one element."""


class Tensor:
    """A dense n-dimensional array with an optional gradient accumulator.

    ``data`` is immutable by convention after construction; only ``grad`` is
    mutated (by backward passes) and ``data`` by optimizer updates between
    steps, in place in the optimizer's parameter buffer. ``grad``, when
    present, always has the same shape as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_node_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = data if type(data) is np.ndarray else np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype.char not in "fd":  # float32, float64
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[object] = None  # Tape.key of the recording tape
        self._node_id: Optional[int] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g to .grad, which takes the first g as given (cast only to a new
        dtype); .grad stays an ndarray where a 0-d g or sum is a numpy scalar."""
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = np.asarray(g, self.data.dtype)
        else:
            self.grad = np.asarray(self.grad + g)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


class _TapeEntry:
    """One recorded primitive. ``inputs`` has one item per input: its node id
    if it was recorded on the same tape, the tensor itself if it is a
    requires_grad leaf, and None if no gradient flows to it."""
    __slots__ = ("out_id", "inputs", "backward_fn")

    def __init__(self, out_id, inputs, backward_fn):
        self.out_id = out_id
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Entries are appended in execution order, so every op's inputs precede it
    and a single reverse sweep visits each op exactly once. backward()
    consumes the entries as it sweeps, so a tape is walked once; record a
    new tape for another pass.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []
        self._ids = itertools.count()
        # Recorded tensors point at this key, not at the tape: the entries
        # hold leaf tensors, so a back-reference would make every tape a
        # reference cycle, freed only by the cyclic garbage collector.
        self.key = object()
        self.walked = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack.pop()
        assert popped is self

    def record(self, out: Tensor, inputs: Sequence[Tensor],
               backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> None:
        key = out._tape = self.key
        out._node_id = node_id = next(self._ids)
        refs = [t._node_id if t._tape is key else t if t.requires_grad else None
                for t in inputs]
        self.entries.append(_TapeEntry(node_id, refs, backward_fn))


_tape_stack: list[Tape] = []


def _maybe_record(out, inputs, backward_fn):
    if _tape_stack:
        tape = _tape_stack[-1]
        key = tape.key
        for t in inputs:
            if t.requires_grad or t._tape is key:
                tape.record(out, inputs, backward_fn)
                break
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf tensor.

    Each entry is popped off tape.entries as the reverse sweep reaches it, so
    the arrays its backward_fn holds are let go before the next entry runs,
    and the tape is left empty. A tape is walked once: calling backward() on it
    again raises RuntimeError rather than returning no gradient. Gradients
    are added to .grad, so two passes over two identical tapes leave exactly
    twice the gradient of one.
    """
    if loss.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.shape}")
    if tape.walked:
        raise RuntimeError("backward() has already walked this tape; record a "
                           "new tape for another pass")
    tape.walked = True
    adjoint: dict[int, np.ndarray] = {}
    if loss._tape is tape.key and loss._node_id is not None:
        adjoint[loss._node_id] = np.ones_like(loss.data)
    elif loss.requires_grad:
        # loss is itself a leaf; nothing upstream to differentiate
        loss.accumulate_grad(np.ones_like(loss.data))
    entries = tape.entries
    while entries:
        entry = entries.pop()
        g = adjoint.pop(entry.out_id, None)
        if g is None:
            continue  # not on a path from the loss
        grads = entry.backward_fn(g)
        for ref, gi in zip(entry.inputs, grads):
            if gi is None or ref is None:
                continue
            if type(ref) is int:
                if ref in adjoint:
                    adjoint[ref] = adjoint[ref] + gi
                else:
                    adjoint[ref] = gi
            else:
                ref.accumulate_grad(gi)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------
# Short-axis sums run as BLAS products with a ones vector, several times
# faster than numpy's pairwise reductions at these widths. They round
# differently in float32, so tests hold them to the numpy sums in float64.

@functools.lru_cache(maxsize=None)
def _ones(n: int, dtype: np.dtype) -> np.ndarray:
    ones = np.ones(n, dtype=dtype)
    ones.flags.writeable = False
    return ones


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, keepdims."""
    w = x.shape[-1]
    return (x.reshape(-1, w) @ _ones(w, x.dtype)).reshape(x.shape[:-1] + (1,))


def _col_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the first axis of a matrix."""
    return _ones(x.shape[0], x.dtype) @ x


# Rows narrower than this take their max from one transposed copy; wider rows
# fold in halves. float32 on one core: at (16, 8, 43, 43) the transposed max
# took 0.18 ms against the folds' 0.32 ms, at (16, 8, 64, 64) 1.2 ms against
# 0.61 ms (a 256-byte stride), at (16, 8, 43, 128) 3.3 ms against 0.68 ms.
_TRANSPOSED_MAX_BELOW = 64


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims. Narrow rows are copied into columns
    and reduced down them in one pass, so the cost is not paid per row; wider
    rows are folded in halves: each fold takes the elementwise max of the two
    halves, and an odd last column is folded into the first. Either way the
    result equals x.max(axis=-1) exactly (max does not round; NaN
    propagates), though a row holding both -0.0 and +0.0 may yield either."""
    w = x.shape[-1]
    if w == 0:
        raise ShapeError(f"max over an empty last axis, shape {x.shape}")
    if w < _TRANSPOSED_MAX_BELOW:
        cols = np.ascontiguousarray(x.reshape(-1, w).T)
        return np.maximum.reduce(cols, axis=0).reshape(x.shape[:-1] + (1,))
    m = x
    while w > 1:
        h = w // 2
        folded = np.maximum(m[..., :h], m[..., h:2 * h])
        if w % 2:
            folded[..., :1] = np.maximum(folded[..., :1], m[..., 2 * h:])
        m, w = folded, h
    return m


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product over the last two axes, plus an optional bias.

    ``a`` is (..., m, k); ``b`` is either a (k, n) matrix shared by every
    leading index, whose gradient is then one 2-D product over all rows of
    ``a``, or (..., k, n) with the same leading dims as ``a``. An (n,)
    ``bias``, only with a 2-D ``b``, is added to every row: one tape entry,
    bit for bit the product and then a bias add (gradient: column sums).
    """
    ad, bd = a.data, b.data
    a_shape, b_shape = ad.shape, bd.shape
    if (len(a_shape) < 2 or len(b_shape) < 2 or a_shape[-1] != b_shape[-2]
            or (len(b_shape) > 2 and a_shape[:-2] != b_shape[:-2])):
        raise ShapeError(f"matmul: incompatible shapes {a_shape} x {b_shape}")
    y = ad @ bd
    if bias is not None:
        bias_d = bias.data
        if len(b_shape) != 2 or bias_d.shape != b_shape[1:]:
            raise ShapeError(f"matmul: bias {bias_d.shape} does not fit {a_shape} x {b_shape}")
        # in place unless the dtypes differ: the dtype a separate add gives
        if bias_d.dtype == y.dtype:
            y += bias_d
        else:
            y = y + bias_d
    out = Tensor(y)

    if len(b_shape) == 2:
        n, k, has_bias = b_shape[1], a_shape[-1], bias is not None

        def bwd(g):
            g2 = g.reshape(-1, n)
            # b.T is read in place, bit for bit the product with a contiguous
            # copy on OpenBLAS 0.3.31; float32, 2 threads: the view takes 1.7
            # ms and the copy 2.7 ms at (768, 512) x (512, 512), while at
            # tiny's (256, 32) x (32, 32) the view is about 2 us slower
            grads = (g @ bd.T, ad.reshape(-1, k).T @ g2)
            return grads + (_col_sums(g2),) if has_bias else grads
    else:
        def bwd(g):
            return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return _maybe_record(out, (a, b) if bias is None else (a, b, bias), bwd)


@functools.lru_cache(maxsize=256)
def _inverse_permutation(axes: tuple, ndim: int) -> Optional[tuple]:
    """The inverse of axes, or None if axes is not a permutation of range(ndim)."""
    if sorted(axes) != list(range(ndim)):
        return None
    return tuple(axes.index(i) for i in range(ndim))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes: axis i of the result is axis axes[i] of x."""
    xd = x.data
    axes = tuple(axes)
    inverse = _inverse_permutation(axes, xd.ndim)
    if inverse is None:
        raise ShapeError(f"transpose: {axes} is not a permutation of the axes of {xd.shape}")
    out = Tensor(np.ascontiguousarray(xd.transpose(axes)))

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _maybe_record(out, (x,), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal shapes; no broadcasting."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g):
        return g, g

    return _maybe_record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} - {b.shape}")
    out = Tensor(a.data - b.data)

    def bwd(g):
        return g, -g

    return _maybe_record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)

    def bwd(g):
        return g * bd, g * ad

    return _maybe_record(out, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)

    def bwd(g):
        return (g * c,)

    return _maybe_record(out, (x,), bwd)


def relu(x: Tensor, p: float = 0.0, rng: Optional[np.random.Generator] = None) -> Tensor:
    """max(x, 0); NaN propagates. The subgradient at 0 is 0.

    With p > 0, inverted dropout follows: one tape entry, bit for bit
    dropout(relu(x), p, rng), drawing the same mask from rng, and it keeps
    the bool mask of kept elements. Either way the relu mask is read from
    the output, which the next op keeps anyway."""
    y = np.maximum(x.data, 0)
    if p == 0.0:
        out = Tensor(y)

        # y > 0 exactly where x > 0 (NaN, +0 and -0 give False in both), so
        # the input need not be kept
        def bwd(g):
            return (g * (y > 0),)
    else:
        keep, s = _keep_mask(x, p, rng)
        y *= keep * s
        out = Tensor(y)

        # s > 0 keeps a kept element positive or not (overflow to +inf
        # included); a dropped one reads as not positive, and the factor has
        # already zeroed its gradient, so the bits equal a y > 0 mask's
        def bwd(g):
            return ((g * (keep * s)) * (y > 0),)

    return _maybe_record(out, (x,), bwd)


def abs_(x: Tensor) -> Tensor:
    out = Tensor(np.abs(x.data))
    sign = np.sign(x.data)

    def bwd(g):
        return (g * sign,)

    return _maybe_record(out, (x,), bwd)


def sum_(x: Tensor) -> Tensor:
    shape, dtype = x.shape, x.dtype
    out = Tensor(np.asarray(x.data.sum(), dtype=dtype))

    def bwd(g):
        return (np.full(shape, g, dtype),)

    return _maybe_record(out, (x,), bwd)


def mean(x: Tensor) -> Tensor:
    n, shape, dtype = x.size, x.shape, x.dtype
    out = Tensor(np.asarray(x.data.mean(), dtype=dtype))

    def bwd(g):
        return (np.full(shape, g / n, dtype),)

    return _maybe_record(out, (x,), bwd)


def softmax_rows(x: Tensor, scale: float = 1.0) -> Tensor:
    """Softmax over the last axis of x * scale, with max subtraction for
    stability. Bit for bit softmax_rows(scale(x, scale))."""
    if x.data.ndim < 1:
        raise ShapeError(f"softmax_rows expects at least one axis, got shape {x.shape}")
    c = float(scale)
    y = x.data * c
    y -= _row_max(y)
    np.exp(y, out=y)
    y /= _row_sums(y)
    out = Tensor(y)

    def bwd(g):
        gx = y * (g - _row_sums(g * y))
        gx *= c
        return (gx,)

    return _maybe_record(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
               residual: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """Per-row normalization to zero mean and unit variance, then affine.

    With residual set, normalizes x + residual: bit for bit
    layer_norm(add(x, residual), ...), with both summands getting the
    gradient of the sum. With relu set, applies relu to the result in
    place: bit for bit relu(layer_norm(...)). Backward keeps xhat, inv_std
    and gamma, and with relu the output, to mask the gradient by y > 0."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.shape}")
    n = x.shape[1]
    if n < 2:
        raise ShapeError(f"layer_norm needs at least 2 features per row, got {n}")
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({n},), got {gamma.shape} and {beta.shape}"
        )
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"layer_norm: residual {residual.shape} does not match {x.shape}")
    s = x.data if residual is None else x.data + residual.data
    mu = _row_sums(s) / n
    centered = s - mu
    var = _row_sums(centered * centered) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    gd = gamma.data
    y = xhat * gd + beta.data
    if relu:
        np.maximum(y, 0, out=y)
    out = Tensor(y)
    has_residual = residual is not None
    relu_out = y if relu else None

    def bwd(g):
        if relu_out is not None:
            g = g * (relu_out > 0)
        gxhat = g * gd
        dx = inv_std * (
            gxhat
            - _row_sums(gxhat) / n
            - xhat * (_row_sums(gxhat * xhat) / n)
        )
        grads = (dx, _col_sums(g * xhat), _col_sums(g))
        return grads + (dx,) if has_residual else grads

    inputs = (x, gamma, beta, residual) if has_residual else (x, gamma, beta)
    return _maybe_record(out, inputs, bwd)


def _keep_mask(x: Tensor, p: float, rng: np.random.Generator):
    """The kept elements of inverted dropout over x's shape, drawn from rng
    as one float64 array, and the survivors' scale 1/(1-p) in x's dtype."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return rng.random(x.shape) >= p, x.dtype.type(1.0 / (1.0 - p))


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero each element with probability p and scale the
    survivors by 1/(1-p). At p = 0 it returns x itself, drawing nothing from
    rng and recording nothing, so an eval forward passes p = 0. Backward
    keeps the bool mask of kept elements and rebuilds the scale factor from
    it."""
    if p == 0.0:
        return x
    keep, s = _keep_mask(x, p, rng)
    out = Tensor(x.data * (keep * s))

    def bwd(g):
        return (g * (keep * s),)

    return _maybe_record(out, (x,), bwd)


def concat_last_dim(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ShapeError("concat_last_dim needs at least one tensor")
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.data.ndim != 2 or t.shape[0] != rows:
            raise ShapeError(
                f"concat_last_dim: row counts differ, {[t.shape for t in tensors]}"
            )
    widths = [t.shape[1] for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=1))
    offsets = np.cumsum([0] + widths)

    def bwd(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(widths)))

    return _maybe_record(out, tuple(tensors), bwd)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.data[start:stop].copy())
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        full = np.zeros(shape, dtype)
        full[start:stop] = g
        return (full,)

    return _maybe_record(out, (x,), bwd)


def gather_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows by index (repeats allowed). Backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows expects a matrix and 1-d indices, got {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {x.shape[0]} rows")
    out = Tensor(x.data[idx])
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        full = np.zeros(shape, dtype)
        if np.all(idx[1:] > idx[:-1]):
            # increasing indices are unique: a plain scatter
            full[idx] = g
        else:
            # one reduceat sums the rows of each repeated index, without
            # np.add.at's per-element loop; past two repeats it can round
            # differently from np.add.at's running sum
            order = np.argsort(idx, kind="stable")
            rows, starts = np.unique(idx[order], return_index=True)
            full[rows] = np.add.reduceat(g[order], starts, axis=0)
        return (full,)

    return _maybe_record(out, (x,), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    xd = x.data
    shape, in_shape = tuple(shape), xd.shape
    if math.prod(shape) != xd.size:
        raise ShapeError(f"reshape: cannot view {in_shape} as {shape}")
    out = Tensor(xd.reshape(shape))

    def bwd(g):
        return (g.reshape(in_shape),)

    return _maybe_record(out, (x,), bwd)


def normalize_rows(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Scale each row to unit L2 norm; rows with norm <= eps divide by eps
    instead, which keeps the map differentiable near zero."""
    if x.data.ndim != 2:
        raise ShapeError(f"normalize_rows expects a matrix, got shape {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, eps)
    y = x.data / denom
    out = Tensor(y)
    small = norms <= eps

    def bwd(g):
        proj = (g * y).sum(axis=1, keepdims=True)
        dx_regular = (g - y * proj) / denom
        dx_small = g / eps
        return (np.where(small, dx_small, dx_regular),)

    return _maybe_record(out, (x,), bwd)

"""Neural primitives: scaled dot-product attention, multi-head attention,
the 3-layer feed-forward network, and parameter initialization.

Activations are 2-D row matrices: a batch of B samples with n rows each is
one (B*n, d) matrix, sample-major, so linears and feed-forward layers are
single matrix products. Only attention splits rows by sample and columns by
head, into (B, h, n, d/h).

Attention divides the score matrix by sqrt(scale_dim) where scale_dim is the
model-wide width d, not the per-head width d/h. That is deliberate and
config-visible; callers that prefer per-head scaling can pass d // h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import tensor as T
from . import workers as W
from .tensor import ShapeError, Tensor


@dataclass
class LinearParams:
    """An affine map x -> x @ weight + bias."""
    weight: Tensor  # (d_in, d_out)
    bias: Tensor    # (d_out,)


@dataclass
class MHAParams:
    """Fused q/k/v projections plus the output projection, all d -> d.

    Head i owns columns [i*d/h, (i+1)*d/h) of q, k and v; out maps the
    concatenated heads back to width d. scale_dim is the attention divisor.
    """
    q: LinearParams
    k: LinearParams
    v: LinearParams
    out: LinearParams
    h: int
    scale_dim: int

    def __post_init__(self):
        d = self.out.weight.shape[0]
        if d % self.h != 0:
            raise ShapeError(f"width {d} not divisible by {self.h} heads")


@dataclass
class FFNParams:
    """Three affine layers, all of width d."""
    layers: list[LinearParams] = field(default_factory=list)

    def __post_init__(self):
        if len(self.layers) != 3:
            raise ShapeError(f"feed-forward network has 3 layers, got {len(self.layers)}")
        widths = {p.weight.shape for p in self.layers}
        if len(widths) != 1 or any(s[0] != s[1] for s in widths):
            raise ShapeError(f"feed-forward layers must share a square width, got {widths}")


def named_tensors(node, prefix: str = ""):
    """(dotted name, tensor) for every Tensor under node, walking dataclass
    fields in declaration order and list items by index; other values (head
    counts, widths) are skipped. This order is the parameter order of the
    Adam arena and of checkpoints."""
    if isinstance(node, Tensor):
        yield prefix, node
        return
    if isinstance(node, list):
        children = ((str(i), item) for i, item in enumerate(node))
    elif is_dataclass(node):
        children = ((f.name, getattr(node, f.name)) for f in fields(node))
    else:
        return
    for key, child in children:
        yield from named_tensors(child, f"{prefix}.{key}" if prefix else key)


def rebuild(node, leaf):
    """A new node along named_tensors' walk, each Tensor t under it leaf(t)."""
    if isinstance(node, Tensor):
        return leaf(node)
    if isinstance(node, list):
        return [rebuild(item, leaf) for item in node]
    if is_dataclass(node):
        return type(node)(**{f.name: rebuild(getattr(node, f.name), leaf)
                             for f in fields(node)})
    return node


# fill_uniform's parts are handed out one at a time, so a thread that gets
# no CPU for a while takes fewer; at paper size 2-16 parts timed alike, 32
# or more slower
SPLIT_PARTS = 16
# bit generators whose advance(k) skips exactly the k 64-bit outputs that k
# float64 uniform draws take; Philox.advance counts 4-output counter blocks
_ADVANCE_PER_DRAW = (np.random.PCG64, np.random.PCG64DXSM)


def _xavier_bound(fan_in: int, fan_out: int) -> float:
    """The bound a of a (fan_in, fan_out) Xavier-uniform draw from [-a, a)."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    return math.sqrt(6.0 / (fan_in + fan_out))


def fill_uniform(rng: np.random.Generator, jobs) -> None:
    """view[...] = rng.uniform(-a, a, size=view.shape) for each (view, a) of
    jobs, in order: the values and rng's final state are those of that loop.

    If the views' bytes are pooled (workers.POOL_BYTES) and the bit
    generator is a PCG64 or PCG64DXSM, the jobs are cut at job boundaries
    into parts that workers.over_chunks fills on the pool. A uniform draw
    takes one 64-bit output, so a part's first draw is the one at its
    offset: each part draws from a copy of rng's bit generator advanced by
    that offset, and rng's is advanced by the total. advance() clears the
    buffered 32-bit half of a PCG64, so that is put back. Otherwise the
    loop runs on the caller.
    """
    bg = rng.bit_generator
    total = sum(view.size for view, _ in jobs)
    nbytes = sum(view.nbytes for view, _ in jobs)
    if not W.pooled(nbytes) or type(bg) not in _ADVANCE_PER_DRAW:
        for view, a in jobs:
            view[...] = rng.uniform(-a, a, size=view.shape)
        return
    parts, offset = [], 0  # (offset, jobs) per part
    for job in jobs:
        if not parts or offset >= len(parts) * total / SPLIT_PARTS:
            parts.append((offset, []))
        parts[-1][1].append(job)
        offset += job[0].size
    state = bg.state

    def fill(chunks):
        for k in chunks:
            start, part = parts[k]
            part_bg = type(bg)()
            part_bg.state = state
            g = np.random.Generator(part_bg.advance(start))
            for view, a in part:
                view[...] = g.uniform(-a, a, size=view.shape)

    W.over_chunks(fill, len(parts), nbytes)
    after = bg.advance(total).state
    bg.state = {**after, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}


def init_params(fan_in: int, fan_out: int, jobs: list,
                dtype=T.DEFAULT_DTYPE) -> LinearParams:
    """A zero bias and an empty weight, whose Xavier-uniform draw is
    appended to jobs for fill_uniform."""
    a = _xavier_bound(fan_in, fan_out)
    w = np.empty((fan_in, fan_out), dtype=dtype)
    jobs.append((w, a))
    return LinearParams(weight=Tensor(w, requires_grad=True),
                        bias=Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True))


def init_mha(d: int, h: int, jobs: list, scale_dim: int, dtype=T.DEFAULT_DTYPE) -> MHAParams:
    """Zero biases and empty weights, with the per-head Xavier draws (q, k,
    v of head 0, then of head 1, ...), each d -> d/h into head i's columns
    of the fused projections, then the output projection's, appended to
    jobs in that order."""
    dh = d // h
    a = _xavier_bound(d, dh)
    weights = [np.empty((d, d), dtype=dtype) for _ in range(3)]
    jobs.extend((w[:, i * dh:(i + 1) * dh], a) for i in range(h) for w in weights)
    q, k, v = (LinearParams(weight=Tensor(w, requires_grad=True),
                            bias=Tensor(np.zeros(d, dtype=dtype), requires_grad=True))
               for w in weights)
    return MHAParams(q=q, k=k, v=v, out=init_params(d, d, jobs, dtype), h=h,
                     scale_dim=scale_dim)


def init_ffn(d: int, jobs: list, dtype=T.DEFAULT_DTYPE) -> FFNParams:
    """Three d -> d layers as init_params makes them, their draws appended
    to jobs in layer order."""
    return FFNParams(layers=[init_params(d, d, jobs, dtype) for _ in range(3)])


def linear(p: LinearParams, x: Tensor) -> Tensor:
    return T.matmul(x, p.weight, p.bias)


def attention(q: Tensor, k: Tensor, v: Tensor, scale_dim: int) -> Tensor:
    """softmax(q k^T / sqrt(scale_dim)) v over the last two axes, softmax over
    key positions; any leading axes (batch, head) must match."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention: query width {q.shape} vs key width {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: key count {k.shape} vs value count {v.shape}")
    nd = k.data.ndim
    return _attend(q, T.transpose(k, tuple(range(nd - 2)) + (nd - 1, nd - 2)), v, scale_dim)


def _attend(q: Tensor, k_t: Tensor, v: Tensor, scale_dim: int) -> Tensor:
    """attention() with the keys already transposed to (..., dk, n)."""
    weights = T.softmax_rows(T.matmul(q, k_t), scale=1.0 / math.sqrt(scale_dim))
    return T.matmul(weights, v)


def multi_head_attention(p: MHAParams, q: Tensor, k: Tensor, v: Tensor, *,
                         batch: int = 1) -> Tensor:
    """Project, attend per sample and head, merge heads, project back to d.

    q is (batch*m, d) and k, v are (batch*n, d), sample-major. A pure
    function of its inputs: the caller applies dropout to the result.
    """
    for x in (q, k, v):
        if x.data.ndim != 2 or x.shape[0] % batch != 0:
            raise ShapeError(f"attention input {x.shape} does not hold {batch} samples")
    h = p.h

    def split(x: Tensor, axes) -> Tensor:  # (batch*n, d) -> (batch, n, h, d/h), permuted
        rows, d = x.shape
        return T.transpose(T.reshape(x, (batch, rows // batch, h, d // h)), axes)

    # keys go straight to (batch, h, d/h, n), queries and values to (batch, h, n, d/h)
    heads = _attend(split(linear(p.q, q), (0, 2, 1, 3)), split(linear(p.k, k), (0, 2, 3, 1)),
                    split(linear(p.v, v), (0, 2, 1, 3)), p.scale_dim)
    merged = T.reshape(T.transpose(heads, (0, 2, 1, 3)), (q.shape[0], p.out.weight.shape[0]))
    return linear(p.out, merged)


def feed_forward(p: FFNParams, x: Tensor, *, dropout_p: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """linear -> relu -> linear -> relu -> linear; no activation after the last
    layer. Dropout with probability dropout_p applies to the hidden
    activations, in the same tape entry as their relu."""
    h = T.relu(linear(p.layers[0], x), dropout_p, rng)
    h = T.relu(linear(p.layers[1], h), dropout_p, rng)
    return linear(p.layers[2], h)

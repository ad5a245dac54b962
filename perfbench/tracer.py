"""Per-layer tracing of lifthead from outside the package.

A Tracer replaces module attributes of lifthead with timing wrappers while it
is active and puts the originals back when it exits; nothing under src/ is
edited. It records:

- per primitive kind (``tensor.matmul``, ``tensor.add``, ...): forward time,
  tape entries, and the time spent in each entry's backward function
  (every backward function handed to ``Tape.record`` is wrapped);
- per scope: forward time, tape entries and backward time of the entries
  recorded inside it. Scopes are the block stages (``mha_2d``, ``ffn_2d``,
  ``mha_3d``, ``mha_cross``, ``ffn_3d``), the residual/layer-norm tail of
  each block stage (``block_norm``), the source embedding (``embed``), the
  template rows (``templates``), the output projections (``project``), the
  loss (``loss``) and everything else (``other``);
- per wrapped public function (``model.forward``, ``training.adam_step``,
  ``checkpoint.save_checkpoint``, ...): calls and total time, plus the bytes
  written or read for checkpoints, and the size of every patch subset drawn;
- matmul FLOPs (2*m*k*n per forward product) per scope.

Times are perf_counter seconds, summed in memory and read once at the end.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import lifthead.blocks as B
import lifthead.checkpoint as C
import lifthead.model as M
import lifthead.synthetic as S
import lifthead.tensor as T
import lifthead.training as TR

# every primitive the model, the loss and train() can put on the tape
KINDS = ("matmul", "transpose", "add", "sub", "mul", "scale", "relu", "abs_",
         "sum_", "mean", "softmax_rows", "layer_norm", "dropout",
         "concat_last_dim", "slice_rows", "gather_rows", "reshape",
         "normalize_rows")
STAGES = ("mha_2d", "ffn_2d", "mha_3d", "mha_cross", "ffn_3d")
SCOPES = ("embed", "templates") + STAGES + ("block_norm", "project", "loss", "other")

# (enclosing block function, block op) -> stage name
_STAGE_OF = {
    ("encode_2d_block", "mha"): "mha_2d",
    ("encode_2d_block", "ffn"): "ffn_2d",
    ("encode_templates_block", "mha"): "mha_3d",
    ("decode_block", "mha"): "mha_cross",
    ("decode_block", "ffn"): "ffn_3d",
}

_BLOCK_FNS = {fn for fn, _ in _STAGE_OF}

# public functions timed as a whole: (module, attribute, span name)
_SPANS = (
    (M, "forward", "model.forward"),
    (TR, "backward", "training.backward"),
    (TR, "adam_step", "training.adam_step"),
    (TR, "average_checkpoints", "training.average_checkpoints"),
    (S, "generate", "synthetic.generate"),
)


class Tracer:
    """Context manager that traces every lifthead call made while active."""

    def __init__(self):
        self.kind_fwd_s = defaultdict(float)
        self.kind_entries = Counter()
        self.kind_bwd_s = defaultdict(float)
        self.scope_fwd_s = defaultdict(float)
        self.scope_entries = Counter()
        self.scope_bwd_s = defaultdict(float)
        self.scope_matmul_flops = Counter()
        self.span_calls = Counter()
        self.span_s = defaultdict(float)
        self.span_bytes = Counter()
        self.patch_counts: list[int] = []
        self._kind = None
        self._scopes = ["other"]
        self._saved = []

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        for kind in KINDS:
            self._patch(T, kind, self._primitive(kind, getattr(T, kind)))
        self._patch(T.Tape, "record", self._record(T.Tape.record))
        for fn in sorted(_BLOCK_FNS):
            self._patch(M, fn, self._scoped(fn, getattr(M, fn)))
        self._patch(B, "multi_head_attention",
                    self._stage("mha", B.multi_head_attention))
        self._patch(B, "feed_forward", self._stage("ffn", B.feed_forward))
        self._patch(M, "embed_source", self._scoped("embed", M.embed_source))
        self._patch(M, "assemble_templates",
                    self._scoped("templates", M.assemble_templates))
        self._patch(M, "project_outputs", self._scoped("project", M.project_outputs))
        self._patch(TR, "loss", self._scoped("loss", TR.loss))
        for owner, attr, span in _SPANS:
            self._patch(owner, attr, self._span(span, getattr(owner, attr)))
        self._patch(TR, "sample_patch_subset",
                    self._patch_subset(TR.sample_patch_subset))
        self._patch(S.SyntheticGen, "mixing_map",
                    self._span("synthetic.mixing_map", S.SyntheticGen.mixing_map))
        self._patch(C, "save_checkpoint", self._checkpoint_io(
            "checkpoint.save_checkpoint", C.save_checkpoint, path_arg=2))
        self._patch(C, "load_checkpoint", self._checkpoint_io(
            "checkpoint.load_checkpoint", C.load_checkpoint, path_arg=0))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------

    def _primitive(self, kind, fn):
        def wrapper(*args, **kwargs):
            if kind == "matmul":
                a, b = args[0], args[1]
                self.scope_matmul_flops[self._scope()] += (
                    2 * a.shape[0] * a.shape[1] * b.shape[1])
            self._kind = kind
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.kind_fwd_s[kind] += time.perf_counter() - t0
                self._kind = None
        return wrapper

    def _record(self, record):
        def wrapper(tape, out, inputs, backward_fn):
            kind, scope = self._kind, self._scope()
            if kind is None:
                raise RuntimeError("tape entry recorded outside a traced primitive")
            self.kind_entries[kind] += 1
            self.scope_entries[scope] += 1

            def timed_backward(g):
                t0 = time.perf_counter()
                grads = backward_fn(g)
                dt = time.perf_counter() - t0
                self.kind_bwd_s[kind] += dt
                self.scope_bwd_s[scope] += dt
                return grads

            return record(tape, out, inputs, timed_backward)
        return wrapper

    def _scoped(self, scope, fn):
        def wrapper(*args, **kwargs):
            self._scopes.append(scope)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.scope_fwd_s[scope] += time.perf_counter() - t0
                self._scopes.pop()
        return wrapper

    def _stage(self, op, fn):
        scoped = {stage: self._scoped(stage, fn)
                  for (_, o), stage in _STAGE_OF.items() if o == op}

        def wrapper(*args, **kwargs):
            return scoped[_STAGE_OF[(self._scopes[-1], op)]](*args, **kwargs)
        return wrapper

    def _scope(self) -> str:
        """Scope that owns work done now: inside a block function but outside
        its attention and feed-forward calls is the residual/norm tail."""
        top = self._scopes[-1]
        return "block_norm" if top in _BLOCK_FNS else top

    def _span(self, span, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_s[span] += time.perf_counter() - t0
                self.span_calls[span] += 1
        return wrapper

    def _patch_subset(self, fn):
        def wrapper(*args, **kwargs):
            subset = fn(*args, **kwargs)
            self.patch_counts.append(len(subset))
            return subset
        return wrapper

    def _checkpoint_io(self, span, fn, path_arg):
        timed = self._span(span, fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.span_bytes[span] += os.path.getsize(args[path_arg])
            return out
        return wrapper

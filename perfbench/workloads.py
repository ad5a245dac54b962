"""Workloads of the lifthead benchmark and the metrics they report.

Every workload is one user driving the public API of lifthead in one process,
one request at a time (a closed loop):

- set up: generate the synthetic data, ``init_head``, and for a serving
  user also ``load_checkpoint`` of the trained model;
- train: a ``training.train()`` call of a fixed size (samples, epochs,
  batch) that writes its per-epoch checkpoints and ``averaged.ckpt`` to a
  temporary directory, which is then read back, checked and served;
- serve: single-sample eval-mode ``model.forward`` requests;
- evaluate: ``training.evaluate()`` over the held-out split.

After a first set-up, rounds of (set-ups, train, serve, evaluate) repeat
until ``--seconds`` have passed, so that every metric samples the whole run.
A serving user makes one untimed train() call before the rounds, to have a
checkpoint to load and to warm up (the first call of a process is the
slowest); its set-ups load the newest checkpoint and its requests are served
by the loaded model.
The workloads differ in profile, in the size of a ``train()`` call and in the
work per round. ``--seed`` is the data seed (the CLI's ``data_seed``): it draws the training set and, offset by
``cli.HELDOUT_SEED_OFFSET``, the held-out split. The model seed (the CLI's
``seed``: initial parameters, shuffle order, patch subsets, dropout masks)
stays at its default, so every data seed does the same amount of work: a
``paper`` step costs up to twice as much at 64 kept patches as at 16.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import lifthead.checkpoint as C
import lifthead.efficiency as E
import lifthead.model as M
import lifthead.synthetic as S
import lifthead.training as TR
from lifthead import cli

from tracer import KINDS, SCOPES, STAGES, Tracer

TWIST_NORM_TOL = 1e-5
# Host-speed correction. The machine the benchmark was built on runs this
# process either at full speed or up to about 1.7x slower, switching every
# few seconds to minutes with load from outside it, and the share of slow time
# differs from run to run: over ten runs of tiny_train the mean train() rates
# spread by 0.24 of their median, and any fixed percentile of the per-call
# rates flips between the two speeds. So every timed operation is bracketed
# by a short reference: fixed numpy and Python work shaped like the
# workload's own, which uses no lifthead code (see Reference), timed as the
# fastest of REF_REPEATS repeats: right after a paper train() call has
# written its 460 MB of checkpoints, single repeats run up to 20 times
# slower while the host flushes them, which the median of three repeats
# did not always filter out, and the host's slow phases last seconds, so
# every repeat shows them. Its time is
# reported as if the host ran at the speed at which the reference takes its
# nominal time: wall time times the nominal time over the mean of the
# reference times before and after it. A slower program still takes longer;
# a slower host does not. The reference must be shaped like the workload: an
# interpreter-bound reference slows down more than the paper profile's BLAS
# work and widened the spread of paper forward times (0.11 to 0.14 over 455
# groups of requests), where a paper-shaped block narrowed it to 0.07. The
# report keeps the wall-clock values too.
REF_REPEATS = 5
# requests are timed one by one but bracketed in groups of about this long
REQUEST_GROUP_S = 0.2
TIMED_METRICS = ("setup_s", "train_samples_per_s", "eval_samples_per_s",
                 "infer_ms_p50")
# The 90th percentile request latency is in the report, not a metric: the
# tail of the 1.2 ms tiny requests grows and shrinks with the host's load
# (p90 over p50 ranged from 1.11 to 1.39 between 7 s stretches of one
# process), which no reference removes, and over five seeds it spread by
# 0.15 of its median.
REPORTED_PERCENTILE = 90
# primitive kinds timed on their own; the rest are summed as "other"
TIMED_KINDS = ("matmul", "add", "transpose", "scale", "softmax_rows",
               "concat_last_dim", "relu", "layer_norm", "gather_rows")


# ---------------------------------------------------------------------------
# host-speed correction
# ---------------------------------------------------------------------------

class Reference:
    """Fixed work shaped like one profile's, timed to gauge the host's speed.

    ``nominal_s`` is a fixed time, near the fastest the work ran on the
    2-vCPU Intel Xeon VM the benchmark was built on: timings are reported as
    if the host ran at that speed. It only scales the results, and changing
    it makes them incomparable with earlier ones."""

    nominal_s: float

    def work(self) -> None:
        raise NotImplementedError

    def time_s(self) -> float:
        """How long the work takes right now: the fastest of REF_REPEATS."""
        times = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - t0)
        return min(times)


class InterpreterReference(Reference):
    """Python loops and numpy calls on 64 floats: the tiny profile's mix."""

    nominal_s = 1.1e-3

    def work(self) -> None:
        s = 0
        for i in range(15000):
            s += i * i
        a = np.ones(64, dtype=np.float32)
        for _ in range(150):
            a = a * 0.5 + 1.0


class PaperBlockReference(Reference):
    """One transformer block in plain numpy at paper shapes (64 tokens,
    d=512, h=8, FFN 2048): BLAS matmuls, softmax and layer norm."""

    nominal_s = 2.7e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 512), dtype=np.float32)
        self.w_qkv = rng.standard_normal((512, 1536), dtype=np.float32) * 0.04
        self.w_o = rng.standard_normal((512, 512), dtype=np.float32) * 0.04
        self.w_1 = rng.standard_normal((512, 2048), dtype=np.float32) * 0.04
        self.w_2 = rng.standard_normal((2048, 512), dtype=np.float32) * 0.02

    def work(self) -> None:
        qkv = self.x @ self.w_qkv
        heads = []
        for i in range(8):
            q, k, v = (qkv[:, j * 512 + i * 64: j * 512 + (i + 1) * 64] for j in range(3))
            a = q @ k.T / 8.0
            a = np.exp(a - a.max(axis=1, keepdims=True))
            heads.append(a / a.sum(axis=1, keepdims=True) @ v)
        y = np.concatenate(heads, axis=1) @ self.w_o + self.x
        y = (y - y.mean(axis=1, keepdims=True)) / (y.std(axis=1, keepdims=True) + 1e-5)
        np.maximum(y @ self.w_1, 0.0) @ self.w_2


class Timings:
    """Wall times of one kind of operation, raw and corrected for the host's
    speed; with no reference, the two are the same."""

    def __init__(self, ref: Optional[Reference]):
        self.ref = ref
        self.raw: list[float] = []
        self.adjusted: list[float] = []

    def reference(self) -> float:
        return self.ref.time_s() if self.ref else 1.0

    def add(self, wall_s: float, ref_before: float, ref_after: float) -> None:
        nominal = self.ref.nominal_s if self.ref else 1.0
        self.raw.append(wall_s)
        self.adjusted.append(wall_s * 2 * nominal / (ref_before + ref_after))

    def time(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed between two reference loops."""
        before = self.reference()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.add(wall, before, self.reference())
        return out

    def __len__(self) -> int:
        return len(self.raw)


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str              # key of cli.PROFILES
    n_train: int              # samples per train() call
    epochs: int               # epochs per train() call
    n_heldout: int            # held-out samples per evaluate() call
    setups: int               # timed set-ups per round
    requests: int             # single-sample requests per round
    evals: int                # evaluate() calls per round
    serving: bool             # set-ups load the checkpoint; the loaded model serves
    reference: type           # Reference subclass shaped like the profile


# why each workload was chosen is stated in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("tiny_train", "tiny", n_train=64, epochs=2, n_heldout=64,
             setups=4, requests=60, evals=4, serving=False,
             reference=InterpreterReference),
    Workload("paper", "paper", n_train=16, epochs=1, n_heldout=16,
             setups=1, requests=12, evals=1, serving=True,
             reference=PaperBlockReference),
)}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_pose(out: M.PoseOutput, hc: M.HeadConfig) -> bool:
    """Finite outputs of the right shapes, with unit-norm twist rows."""
    parts = (out.keypoints, out.twists, out.beta)
    if [t.shape for t in parts] != [(hc.n_joints, 3), (hc.n_twists, 2), (hc.beta_dim,)]:
        return False
    return (all(np.isfinite(t.data).all() for t in parts)
            and np.allclose(np.linalg.norm(out.twists.data, axis=1), 1.0,
                            rtol=0.0, atol=TWIST_NORM_TOL))


def same_arrays(stored: dict[str, np.ndarray], params: M.HeadParams) -> bool:
    """Bit-equal, by name, for every parameter."""
    return all(name in stored and stored[name].dtype == t.data.dtype
               and np.array_equal(stored[name], t.data)
               for name, t in params.named_parameters())


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    train_set: Optional[list]
    heldout: list
    params: M.HeadParams


class Run:
    """One workload at one seed; collects timings, counts and failures."""

    def __init__(self, w: Workload, seed: int, seconds: float, workdir: str):
        self.w, self.seed, self.seconds, self.workdir = w, seed, seconds, workdir
        # cli defaults, then the workload's profile, then its call size
        cfg = {f.name: f.default for f in cli.FIELDS}
        cfg.update(cli.PROFILES[w.profile], epochs=w.epochs)
        self.hc = cli.head_config(cfg)
        self.tc = cli.train_config(cfg)
        self.gen = S.SyntheticGen(seed=seed, n_patches=self.hc.n_patches,
                                  c_in=self.hc.c_in, noise_sigma=cfg["noise_sigma"])
        self.attempted = 0
        self.failed = 0
        ref = w.reference()
        self.setups = Timings(ref)
        self.calls: list[dict] = []       # one per untraced train() call
        self.trains = Timings(ref)        # the same calls' wall times
        self.requests = Timings(ref)
        self.evals = Timings(ref)         # one per evaluate() call
        self.eval_metrics: Optional[dict] = None
        self.counts: dict[str, int] = {}
        self.checkpoint: Optional[str] = None

    def count(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        self.failed += 0 if ok else n

    def verify(self, params: M.HeadParams, expected: M.HeadParams) -> None:
        """One checkpoint read: loaded values must equal expected bit for bit."""
        self.count(same_arrays({n: t.data for n, t in expected.named_parameters()},
                               params))

    # -- phases -------------------------------------------------------------

    def setup(self, checkpoint: Optional[str]) -> Setup:
        train_set = None if checkpoint else S.generate(self.w.n_train, self.gen)
        held_gen = dataclasses.replace(self.gen, seed=self.seed + cli.HELDOUT_SEED_OFFSET)
        heldout = S.generate(self.w.n_heldout, held_gen)
        params = M.init_head(self.hc, np.random.default_rng(self.tc.seed))
        if checkpoint:
            C.load_checkpoint(checkpoint, params)
        return Setup(train_set, heldout, params)

    def timed_setups(self, n: int, trained: M.HeadParams) -> None:
        """n more set-ups, timed and then dropped; a serving set-up's
        parameters must equal the trained ones."""
        for _ in range(n):
            st = self.setups.time(self.setup, self.checkpoint)
            if self.checkpoint:
                self.verify(st.params, trained)

    def train_call(self, st: Setup, init: dict[str, np.ndarray], first: bool,
                   timings: Optional[Timings] = None) -> dict:
        """One train() call from the initial parameters, timed into timings
        (self.trains by default), then its checks and the load of
        averaged.ckpt into st.params, the model that is served."""
        for name, t in st.params.named_parameters():
            t.data = init[name].copy()
        steps = self.tc.epochs * math.ceil(len(st.train_set) / self.tc.batch_size)
        with tempfile.TemporaryDirectory(dir=self.workdir) as d:
            timings = self.trains if timings is None else timings
            result = timings.time(TR.train, self.hc, st.params, st.train_set, self.tc,
                                  checkpoint_dir=d)
            wall = timings.raw[-1]
            losses = [m.loss for m in result.metrics]
            self.count(len(losses) == steps and all(map(math.isfinite, losses)), steps)
            epoch_ckpt = os.path.join(d, f"epoch_{self.tc.epochs - 1:04d}.ckpt")
            averaged = os.path.join(d, "averaged.ckpt")
            self.counts.update(checkpoint_bytes_epoch=os.path.getsize(epoch_ckpt),
                               checkpoint_bytes_averaged=os.path.getsize(averaged))
            if first:
                # the per-epoch file holds the raw parameters and Adam moments
                stored = C.read_tensors(epoch_ckpt)
                self.count(same_arrays(stored, result.last_params)
                           and int(stored["adam.step"]) == steps)
                del stored
            C.load_checkpoint(averaged, st.params)
            self.verify(st.params, result.params)
            if self.w.serving:
                self.checkpoint = os.path.join(self.workdir, "averaged.ckpt")
                os.replace(averaged, self.checkpoint)
        per_epoch = len(losses) // self.tc.epochs
        return {"wall_s": wall, "samples": len(st.train_set) * self.tc.epochs,
                "step_ms": [m.wall_ms for m in result.metrics],
                "final_loss": statistics.fmean(losses[-per_epoch:])}

    def serve(self, st: Setup, n: int, timings: Optional[Timings] = None) -> None:
        """n single-sample requests, cycling through the held-out split, each
        timed into timings (self.requests by default); a reference loop runs
        between groups of requests, not between every two."""
        timings = self.requests if timings is None else timings
        group: list[float] = []
        ref_before = timings.reference()
        for i in range(n):
            features, _ = st.heldout[i % len(st.heldout)]
            t0 = time.perf_counter()
            try:
                out = M.forward(self.hc, st.params, features, training=False)
            except M.NormalizationDegenerateError:
                self.count(False)
                continue
            group.append(time.perf_counter() - t0)
            self.count(check_pose(out, self.hc))
            if sum(group) >= REQUEST_GROUP_S or i == n - 1:
                ref_after = timings.reference()
                for wall in group:
                    timings.add(wall, ref_before, ref_after)
                group, ref_before = [], ref_after

    def evaluate(self, st: Setup, n: int) -> None:
        for _ in range(n):
            metrics = self.evals.time(TR.evaluate, self.hc, st.params, st.heldout)
            if self.eval_metrics is None:
                self.eval_metrics = metrics
            ok = all(map(math.isfinite, metrics.values())) and metrics == self.eval_metrics
            self.count(ok, len(st.heldout))

    # -- rounds -------------------------------------------------------------

    def run(self, trace: bool) -> dict:
        """The first set-up, then rounds until the deadline; with trace, then
        one traced set-up, train() call and round of requests, whose tracers
        are returned."""
        w = self.w
        deadline = time.perf_counter() + self.seconds
        traces: dict = {}

        # train_st trains; st serves (the same set-up unless serving)
        train_st = self.setup(None)
        params = train_st.params
        self.counts["param_tensors"] = len(list(params.named_parameters()))
        init = {n: t.data.copy() for n, t in params.named_parameters()}
        st = train_st
        warmup = []
        if w.serving:
            warmup.append(self.train_call(train_st, init, first=True, timings=Timings(None)))
            st = self.setup(self.checkpoint)
            self.verify(st.params, params)
        while True:
            t0 = time.perf_counter()
            self.timed_setups(w.setups, trained=params)
            self.calls.append(self.train_call(train_st, init,
                                              first=not (self.calls or warmup)))
            self.serve(st, w.requests)
            self.evaluate(st, w.evals)
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
        if trace:
            with Tracer() as traces["train"]:
                traces["train_call"] = self.train_call(train_st, init, first=True,
                                                       timings=Timings(None))
            with Tracer() as traces["setup"]:
                self.setup(self.checkpoint)
            with Tracer() as traces["serve"]:
                self.serve(st, w.requests, timings=Timings(None))
        # every call starts from the same state, so the losses repeat exactly
        for call in self.calls[1:] + warmup + ([traces["train_call"]] if trace else []):
            self.count(call["final_loss"] == self.calls[0]["final_loss"])
        return traces

    # -- metrics ------------------------------------------------------------

    def latency_ms(self, q: float, raw: bool = False) -> float:
        return float(np.percentile(self.requests.raw if raw else self.requests.adjusted,
                                   q)) * 1e3

    def end_to_end(self, raw: bool = False) -> dict[str, tuple[float, str]]:
        """Timings corrected for the host's speed, or with raw, in wall-clock
        time."""
        def times(t: Timings) -> list[float]:
            return t.raw if raw else t.adjusted

        samples = self.calls[0]["samples"]
        return {
            "setup_s": (statistics.median(times(self.setups)), "s"),
            "train_samples_per_s": (samples / statistics.median(times(self.trains)),
                                    "samples/s"),
            "eval_samples_per_s": (self.w.n_heldout / statistics.median(times(self.evals)),
                                   "samples/s"),
            "infer_ms_p50": (self.latency_ms(50, raw), "ms"),
            "train_final_loss": (self.calls[0]["final_loss"], "loss"),
            "eval_keypoint_mse": (self.eval_metrics["keypoint_mse"], "mse"),
            "eval_twist_deg": (self.eval_metrics["twist_angular_error_deg"], "deg"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def all_counts(self) -> dict[str, int]:
        """Deterministic facts of the workload; they repeat exactly."""
        return {**self.counts,
                "head_params": E.transformer_head_params(self.hc),
                "head_flops": E.transformer_head_flops(self.hc),
                "train_steps_per_call": len(self.calls[0]["step_ms"])}

    def per_layer(self, traces: dict, counts: dict) -> dict[str, tuple[float, str]]:
        tr, call = traces["train"], traces["train_call"]
        steps = len(call["step_ms"])
        entries = sum(tr.kind_entries.values())
        if entries % steps:
            raise RuntimeError(f"{entries} tape entries over {steps} steps")
        step_ms = [ms for c in self.calls for ms in c["step_ms"]]
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        def per_step_ms(seconds):
            return seconds * 1e3 / steps

        put("tensor.tape_entries_per_step", entries // steps, "count")
        for k in KINDS:
            put(f"tensor.entries.{k}", tr.kind_entries[k] // steps, "count")
        other = [k for k in KINDS if k not in TIMED_KINDS]
        for k in TIMED_KINDS:
            put(f"tensor.fwd_ms.{k}", per_step_ms(tr.kind_fwd_s[k]), "ms")
            put(f"tensor.bwd_ms.{k}", per_step_ms(tr.kind_bwd_s[k]), "ms")
        put("tensor.fwd_ms.other", per_step_ms(sum(tr.kind_fwd_s[k] for k in other)), "ms")
        put("tensor.bwd_ms.other", per_step_ms(sum(tr.kind_bwd_s[k] for k in other)), "ms")
        backward_s = tr.span_s["training.backward"]
        put("tensor.bwd_walk_ms", per_step_ms(backward_s - sum(tr.kind_bwd_s.values())), "ms")
        put("tensor.us_per_entry", statistics.median(step_ms) * 1e3 / (entries // steps), "us")
        matmul_flops = 3 * sum(tr.scope_matmul_flops.values())  # forward + 2 backward
        put("tensor.matmul_gflops",
            matmul_flops / (tr.kind_fwd_s["matmul"] + tr.kind_bwd_s["matmul"]) / 1e9, "GFLOP/s")

        for s in STAGES:
            busy = tr.scope_fwd_s[s] + tr.scope_bwd_s[s]
            put(f"blocks.{s}.fwd_ms", per_step_ms(tr.scope_fwd_s[s]), "ms")
            put(f"blocks.{s}.bwd_ms", per_step_ms(tr.scope_bwd_s[s]), "ms")
            put(f"blocks.{s}.entries", tr.scope_entries[s] // steps, "count")
            put(f"blocks.{s}.gflops", 3 * tr.scope_matmul_flops[s] / busy / 1e9, "GFLOP/s")

        for s, name in (("embed", "embed"), ("project", "project")):
            put(f"model.{name}.fwd_ms", per_step_ms(tr.scope_fwd_s[s]), "ms")
            put(f"model.{name}.bwd_ms", per_step_ms(tr.scope_bwd_s[s]), "ms")
        sv = traces["serve"]
        put("model.forward_ms", sv.span_s["model.forward"] * 1e3 / sv.span_calls["model.forward"], "ms")
        put("model.head_gflops",
            counts["head_flops"] / statistics.median(self.requests.raw) / 1e9, "GFLOP/s")
        put("model.param_tensors", counts["param_tensors"], "count")

        put("training.forward_loss_ms",
            per_step_ms(tr.span_s["model.forward"] + tr.scope_fwd_s["loss"]), "ms")
        put("training.backward_ms", per_step_ms(backward_s), "ms")
        put("training.adam_ms", per_step_ms(tr.span_s["training.adam_step"]), "ms")
        put("training.step_ms_p50", np.percentile(step_ms, 50), "ms")
        put("training.step_ms_p90", np.percentile(step_ms, 90), "ms")
        put("training.epoch_overhead_ms", statistics.median(
            (c["wall_s"] * 1e3 - sum(c["step_ms"])) / self.tc.epochs for c in self.calls), "ms")
        put("training.average_ms", tr.span_s["training.average_checkpoints"] * 1e3, "ms")

        # per train() call: its saves, and the load of averaged.ckpt
        for op, span in (("save", "checkpoint.save_checkpoint"),
                         ("load", "checkpoint.load_checkpoint")):
            put(f"checkpoint.{op}_ms", tr.span_s[span] * 1e3, "ms")
            put(f"checkpoint.{op}_bytes", tr.span_bytes[span], "B")
            put(f"checkpoint.{op}_MBps", tr.span_bytes[span] / 1e6 / tr.span_s[span], "MB/s")

        su = traces["setup"]
        put("synthetic.mixing_map_ms", su.span_s["synthetic.mixing_map"] * 1e3
            / su.span_calls["synthetic.mixing_map"], "ms")
        generated = self.w.n_heldout + (0 if self.w.serving else self.w.n_train)
        put("synthetic.generate_ms_per_sample", su.span_s["synthetic.generate"] * 1e3 / generated, "ms")
        put("efficiency.head_flops", counts["head_flops"], "count")
        put("efficiency.head_params", counts["head_params"], "count")
        untraced = statistics.median(c["wall_s"] for c in self.calls)
        put("trace.overhead_frac", call["wall_s"] / untraced - 1.0, "ratio")
        return out

    def trace_counts(self, traces: dict) -> dict[str, dict[str, int]]:
        tr = traces["train"]
        steps = len(traces["train_call"]["step_ms"])
        return {
            "entries_by_kind": {k: tr.kind_entries[k] // steps for k in KINDS},
            "entries_by_scope": {s: tr.scope_entries[s] // steps for s in SCOPES},
            "patch_counts": tr.patch_counts,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> tuple[dict, dict]:
    """Run one workload; returns (report, result) as printed by run.py."""
    w = WORKLOADS[name]
    run = Run(w, seed, seconds, workdir)
    traces = run.run(trace)
    e2e = run.end_to_end()
    counts = run.all_counts()
    metrics = e2e
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "counts": counts,
              "samples": {"setup_repeats": len(run.setups),
                          "train_calls": len(run.trains),
                          "train_steps": sum(len(c["step_ms"]) for c in run.calls),
                          "requests": len(run.requests),
                          "eval_calls": len(run.evals)},
              # the same metrics in wall-clock time, without host-speed correction
              "wall_clock": {k: v for k, (v, _) in run.end_to_end(raw=True).items()
                             if k in TIMED_METRICS},
              f"infer_ms_p{REPORTED_PERCENTILE}": {
                  "corrected": run.latency_ms(REPORTED_PERCENTILE),
                  "wall_clock": run.latency_ms(REPORTED_PERCENTILE, raw=True)}}
    if trace:
        metrics = run.per_layer(traces, counts)
        report["counts"].update(run.trace_counts(traces))
        report["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report, result

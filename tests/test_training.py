"""Schedule, Adam, augmentation, loss, averaging, and train-loop tests."""

import copy
import hashlib
import math
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lifthead.model as M
import lifthead.tensor as T
import lifthead.training as TR
import lifthead.workers as W
from lifthead.model import HeadConfig, pose_output_from_arrays
from lifthead.synthetic import SyntheticGen, generate
from lifthead.tensor import Tape, Tensor, backward
from lifthead.training import (AdamState, StepMetrics, TrainConfig, TrainingAborted,
                               adam_step, average_checkpoints, loss, lr_at,
                               metrics_to_text, sample_patch_subset, train)


def tiny_cfg(**kw):
    base = dict(L=2, h=2, d=16, n_patches=16, c_in=32, dropout=0.0)
    base.update(kw)
    return HeadConfig(**base)


class TestSchedule:
    def test_peak_value_exact(self):
        cfg = TrainConfig()
        assert lr_at(4000, cfg) == 0.0005

    def test_warmup_and_decay_points_exact(self):
        cfg = TrainConfig()
        assert lr_at(1000, cfg) == 0.000125    # 0.0005 * 1000/4000
        assert lr_at(16000, cfg) == 0.00025    # 0.0005 * sqrt(4000/16000)

    def test_continuous_at_peak(self):
        cfg = TrainConfig()
        w = cfg.warmup_steps
        ramp = cfg.max_lr * (w / w)
        decay = cfg.max_lr * math.sqrt(w / w)
        assert abs(ramp - decay) < 1e-12
        assert abs(lr_at(w, cfg) - cfg.max_lr) < 1e-12

    def test_monotone_around_peak(self):
        cfg = TrainConfig(warmup_steps=100)
        ramp = [lr_at(s, cfg) for s in range(1, 101)]
        decay = [lr_at(s, cfg) for s in range(100, 1000, 7)]
        assert all(a < b for a, b in zip(ramp, ramp[1:]))
        assert all(a > b for a, b in zip(decay, decay[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError, match="step"):
            lr_at(0, TrainConfig())

    def test_smallest_warmup_and_max_lr(self):
        assert lr_at(1, TrainConfig(warmup_steps=1, max_lr=1e-300)) == 1e-300
        with pytest.raises(ValueError, match="max_lr must be positive"):
            TrainConfig(max_lr=0.0)

    @pytest.mark.parametrize("field", ["max_lr", "w_kpt", "w_twist", "w_beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @given(step=st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_max(self, step):
        cfg = TrainConfig(warmup_steps=4000, max_lr=5e-4)
        assert 0 < lr_at(step, cfg) <= cfg.max_lr


def named_scalar(value, grad=None):
    t = Tensor(np.array([value], dtype=np.float64), requires_grad=True)
    if grad is not None:
        t.grad = np.array([grad], dtype=np.float64)
    return t


def fresh_state(named):
    return AdamState.init(named)


class TestAdam:
    def test_zero_gradient_is_noop_but_counts(self):
        x = named_scalar(1.25, grad=0.0)
        state = fresh_state([("x", x)])
        adam_step(state, lr=0.01)
        assert x.data[0] == 1.25
        assert state.step == 1
        assert x.grad is None

    def test_first_update_is_signed_lr(self):
        for g in (3.7, -0.002):
            x = named_scalar(0.0, grad=g)
            state = fresh_state([("x", x)])
            adam_step(state, lr=0.01)
            assert abs(x.data[0] - (-0.01 * np.sign(g))) < 1e-6

    def test_quadratic_bowl_converges(self):
        x = named_scalar(1.0)
        state = fresh_state([("x", x)])
        for _ in range(500):
            x.grad = 2.0 * x.data
            adam_step(state, lr=1e-2)
        assert abs(x.data[0]) < 1e-2

    def test_missing_gradient_names_parameter(self):
        x = named_scalar(0.0, grad=1.0)
        y = named_scalar(0.0)
        state = fresh_state([("x", x), ("deep.y", y)])
        with pytest.raises(ValueError, match="deep.y"):
            adam_step(state, lr=0.01)

    def test_only_parameters_with_signal_move(self):
        x = named_scalar(1.0, grad=0.5)
        y = named_scalar(2.0, grad=0.0)
        state = fresh_state([("x", x), ("y", y)])
        adam_step(state, lr=0.01)
        assert x.data[0] != 1.0
        assert y.data[0] == 2.0

    def test_state_init_mirrors_shapes(self):
        params = M.init_head(tiny_cfg(), np.random.default_rng(0))
        named = list(params.named_parameters())
        state = AdamState.init(named)
        assert [(n, id(t)) for n, t in state.named] == [(n, id(t)) for n, t in named]
        for (_, t), view in zip(named, state.views):
            assert t.data is view
        assert state.m_flat.shape == state.v_flat.shape == (params.parameter_count(),)
        assert not state.m_flat.any() and not state.v_flat.any()


def per_tensor_adam(data, grads, m, v, step, lr):
    """The per-tensor Adam loop the flat arena replaced, kept as the
    reference: the flat update must match it bit for bit."""
    b1c = 1.0 - TR.ADAM_BETA1 ** step
    b2c = 1.0 - TR.ADAM_BETA2 ** step
    for name, g in grads.items():
        m[name] = TR.ADAM_BETA1 * m[name] + (1.0 - TR.ADAM_BETA1) * g
        v[name] = TR.ADAM_BETA2 * v[name] + (1.0 - TR.ADAM_BETA2) * (g * g)
        m_hat = m[name] / b1c
        v_hat = v[name] / b2c
        data[name] = data[name] - lr * m_hat / (np.sqrt(v_hat) + TR.ADAM_EPS)


def random_grads(params, rng):
    return {name: (rng.standard_normal(t.shape) * 10.0 ** rng.integers(-6, 2)
                   ).astype(t.dtype) for name, t in params.named_parameters()}


def set_grads(params, grads):
    for name, t in params.named_parameters():
        t.grad = grads[name].copy()


def flatten(params):
    return np.concatenate([t.data.reshape(-1) for _, t in params.named_parameters()])


def flat_snapshot(state):
    return state.arena.copy(), state.m_flat.copy(), state.v_flat.copy()


def with_workers_and_dtypes(name, values):
    """Each value with 1, 2 and 3 workers in float32 and float64; the
    one-worker float32 case keeps the value's own test id."""
    return pytest.mark.parametrize(f"{name}, workers, dtype", [
        pytest.param(value, workers, dtype,
                     id=str(value) if (workers, dtype) == (1, np.float32)
                     else f"{value}-{workers}w-{np.dtype(dtype)}")
        for value in values for workers in (1, 2, 3)
        for dtype in (np.float32, np.float64)])


class TestFlatAdam:
    # 777 splits parameters across chunks, which workers may take apart;
    # 16 puts most chunks inside one parameter; 3 workers are more than
    # most hosts' cores. The pool gate is patched down so that a tiny
    # arena is split across them.
    @with_workers_and_dtypes("chunk", [TR.ADAM_CHUNK, 777, 16])
    def test_bit_identical_to_per_tensor_loop(self, monkeypatch, chunk, workers, dtype):
        monkeypatch.setattr(TR, "ADAM_CHUNK", chunk)
        monkeypatch.setattr(W, "CPUS", workers)
        monkeypatch.setattr(W, "POOL_BYTES", 0)
        params = M.init_head(tiny_cfg(), np.random.default_rng(0), dtype=dtype)
        data = {n: t.data.copy() for n, t in params.named_parameters()}
        m = {n: np.zeros_like(a) for n, a in data.items()}
        v = {n: np.zeros_like(a) for n, a in data.items()}
        state = AdamState.init(params.named_parameters())
        rng = np.random.default_rng(1)
        for step in range(1, 6):
            grads = random_grads(params, rng)
            set_grads(params, grads)
            lr = lr_at(step, TrainConfig(warmup_steps=3, max_lr=1e-2))
            adam_step(state, lr)
            per_tensor_adam(data, grads, m, v, step, lr)
        assert state.step == 5
        for name, t in params.named_parameters():
            assert t.data.dtype == dtype
            np.testing.assert_array_equal(t.data, data[name])
            assert t.grad is None
        np.testing.assert_array_equal(state.m_flat, np.concatenate(
            [a.reshape(-1) for a in m.values()]))
        np.testing.assert_array_equal(state.v_flat, np.concatenate(
            [a.reshape(-1) for a in v.values()]))

    @with_workers_and_dtypes("bad", [np.nan, np.inf])
    def test_non_finite_gradient_touches_nothing(self, monkeypatch, bad, workers, dtype):
        monkeypatch.setattr(TR, "ADAM_CHUNK", 1000)
        monkeypatch.setattr(W, "CPUS", workers)
        monkeypatch.setattr(W, "POOL_BYTES", 0)
        params = M.init_head(tiny_cfg(), np.random.default_rng(0), dtype=dtype)
        state = AdamState.init(params.named_parameters())
        rng = np.random.default_rng(2)
        set_grads(params, random_grads(params, rng))
        adam_step(state, 1e-3)
        set_grads(params, random_grads(params, rng))
        # in the last chunk handed out
        target, t = list(params.named_parameters())[-1]
        t.grad[-1] = bad
        before = flat_snapshot(state)
        with pytest.raises(TrainingAborted, match=f"step 2: parameter {target}") as exc:
            adam_step(state, 1e-3)
        assert exc.value.parameter == target and exc.value.step == 2
        assert state.step == 1
        for was, now in zip(before, flat_snapshot(state)):
            np.testing.assert_array_equal(was, now)
        assert all(t.grad is not None for _, t in params.named_parameters())

    def test_first_non_finite_parameter_is_named(self, monkeypatch):
        monkeypatch.setattr(TR, "ADAM_CHUNK", 1000)
        monkeypatch.setattr(W, "CPUS", 3)
        monkeypatch.setattr(W, "POOL_BYTES", 0)
        params = M.init_head(tiny_cfg(), np.random.default_rng(0))
        state = AdamState.init(params.named_parameters())
        set_grads(params, random_grads(params, np.random.default_rng(2)))
        named = dict(params.named_parameters())
        target = "blocks.1.ffn_3d.layers.2.weight"
        named[target].grad[3, 4] = np.nan
        named["proj_beta.bias"].grad[0] = np.inf
        with pytest.raises(TrainingAborted, match=f"parameter {target}"):
            adam_step(state, 1e-3)

    def test_arena_under_the_pool_gate_runs_on_the_caller(self, monkeypatch):
        # 1 MiB is 4 chunks: with two CPUs the update starts no pool, and
        # its bytes are those of a one-CPU update
        snapshots = []
        for cpus in (1, 2):
            monkeypatch.setattr(W, "CPUS", cpus)
            monkeypatch.setattr(W, "_pool", None)
            rng = np.random.default_rng(0)
            t = Tensor(rng.standard_normal(1 << 18).astype(np.float32), requires_grad=True)
            state = AdamState.init([("w", t)])
            assert len(state.chunks) == 4 and state.arena.nbytes < W.POOL_BYTES
            for _ in range(3):
                t.grad = rng.standard_normal(t.shape).astype(np.float32)
                adam_step(state, 1e-3)
            assert W._pool is None
            snapshots.append(flat_snapshot(state))
        for one, two in zip(*snapshots):
            assert one.tobytes() == two.tobytes()

    def test_rebound_parameter_is_named(self):
        params = M.init_head(tiny_cfg(), np.random.default_rng(0))
        state = AdamState.init(params.named_parameters())
        for _, t in params.named_parameters():
            t.grad = np.zeros_like(t.data)
        params.proj_beta.bias.data = params.proj_beta.bias.data.copy()
        with pytest.raises(ValueError, match="proj_beta.bias"):
            adam_step(state, 1e-3)

    def test_train_leaves_parameters_in_one_buffer(self):
        _, params, result = small_run(epochs=2)
        for p in (params, result.params):
            views = [t.data for _, t in p.named_parameters()]
            base = views[0].base
            assert base.ndim == 1 and base.size == p.parameter_count()
            assert all(a.base is base for a in views)

    def test_repeated_train_calls_from_reassigned_data_agree(self):
        head_cfg = tiny_cfg(dropout=0.1)
        params = M.init_head(head_cfg, np.random.default_rng(99))
        init = {n: t.data.copy() for n, t in params.named_parameters()}
        data = generate(8, SyntheticGen(seed=1, n_patches=16, c_in=32, noise_sigma=0.0))
        cfg = TrainConfig(epochs=3, batch_size=4, warmup_steps=10, max_lr=1e-3,
                          avg_last_epochs=2)
        runs = []
        for _ in range(2):
            for name, t in params.named_parameters():
                t.data = init[name].copy()
            result = train(head_cfg, params, data, cfg)
            runs.append(([m.loss for m in result.metrics],
                         [t.data.copy() for _, t in result.params.named_parameters()],
                         [t.data.copy() for _, t in result.last_params.named_parameters()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1] + runs[0][2], runs[1][1] + runs[1][2]):
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_load_keeps_the_arena(self, tmp_path):
        import lifthead.checkpoint as C
        params = M.init_head(tiny_cfg(), np.random.default_rng(0))
        state = AdamState.init(params.named_parameters())
        rng = np.random.default_rng(3)
        set_grads(params, random_grads(params, rng))
        adam_step(state, 1e-3)
        C.save_checkpoint(params, state, tmp_path / "s.ckpt")

        other = M.init_head(tiny_cfg(), np.random.default_rng(5))
        other_state = AdamState.init(other.named_parameters())
        C.load_checkpoint(tmp_path / "s.ckpt", other, other_state)
        np.testing.assert_array_equal(other_state.arena, state.arena)
        np.testing.assert_array_equal(other_state.m_flat, state.m_flat)
        np.testing.assert_array_equal(other_state.v_flat, state.v_flat)
        # both continue with the same step
        grads = random_grads(params, rng)
        set_grads(params, grads)
        set_grads(other, grads)
        adam_step(state, 1e-3)
        adam_step(other_state, 1e-3)
        np.testing.assert_array_equal(other_state.arena, state.arena)


class TestAugmentation:
    def test_full_floor_keeps_everything(self):
        cfg = TrainConfig(min_keep_patches=16)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_patch_subset(16, cfg, rng) == list(range(16))

    def test_indices_unique_sorted_in_range(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            idx = sample_patch_subset(64, cfg, rng)
            assert idx == sorted(set(idx))
            assert 16 <= len(idx) <= 64
            assert 0 <= idx[0] and idx[-1] < 64

    def test_count_spans_configured_range(self):
        cfg = TrainConfig(min_keep_patches=3)
        rng = np.random.default_rng(2)
        sizes = {len(sample_patch_subset(8, cfg, rng)) for _ in range(2000)}
        assert sizes == {3, 4, 5, 6, 7, 8}

    def test_default_floor_is_quarter(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(3)
        sizes = [len(sample_patch_subset(64, cfg, rng)) for _ in range(3000)]
        assert min(sizes) == 16 and max(sizes) == 64

    def test_marginal_frequency_light(self):
        # the full 1e5-draw 3-sigma version runs in the acceptance suite
        cfg = TrainConfig()
        rng = np.random.default_rng(4)
        n, trials = 64, 20_000
        hits = np.zeros(n)
        for _ in range(trials):
            hits[sample_patch_subset(n, cfg, rng)] += 1
        p = (16 + n) / 2 / n
        sigma = math.sqrt(p * (1 - p) / trials)
        assert np.abs(hits / trials - p).max() < 4 * sigma

    def test_floor_of_one_is_allowed(self):
        assert TR.min_keep_patches(64, TrainConfig(min_keep_patches=1)) == 1

    @pytest.mark.parametrize("bad", [0, -1, 65])
    def test_invalid_floor_rejected(self, bad):
        cfg = TrainConfig(min_keep_patches=bad)
        with pytest.raises(ValueError, match="min_keep_patches"):
            sample_patch_subset(64, cfg, np.random.default_rng(0))


def random_pose(seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    twists = rng.standard_normal((23, 2))
    twists /= np.linalg.norm(twists, axis=1, keepdims=True)
    return pose_output_from_arrays(rng.standard_normal((24, 3)), twists,
                                   rng.standard_normal(10), dtype=dtype)


class TestLoss:
    def test_identical_pose_gives_zero(self):
        p = random_pose(0)
        assert loss(p, p).item() == 0.0

    def test_keypoint_delta_formula(self):
        target = random_pose(1)
        pred = random_pose(1)
        pred.keypoints.data = pred.keypoints.data.copy()
        pred.keypoints.data[3, 1] += 0.25
        assert abs(loss(pred, target, w_kpt=2.0).item() - 2.0 * 0.25 / 72) < 1e-12

    def test_twist_delta_formula(self):
        target = random_pose(2)
        pred = random_pose(2)
        pred.twists.data = pred.twists.data.copy()
        pred.twists.data[5, 0] += 0.125
        assert abs(loss(pred, target).item() - 0.125 / 46) < 1e-12

    def test_beta_delta_is_squared(self):
        target = random_pose(3)
        pred = random_pose(3)
        pred.beta.data = pred.beta.data.copy()
        pred.beta.data[7] += 0.5
        assert abs(loss(pred, target, w_beta=3.0).item() - 3.0 * 0.25 / 10) < 1e-12

    def test_nonnegative(self):
        for s in range(5):
            val = loss(random_pose(s), random_pose(s + 100)).item()
            assert val >= 0

    def test_shape_mismatch_raises(self):
        good = random_pose(4)
        bad = copy.deepcopy(good)
        bad.keypoints.data = bad.keypoints.data[:20]
        with pytest.raises(T.ShapeError):
            loss(bad, good)

    def test_gradient_matches_l1_subgradient(self):
        target = random_pose(5)
        pred = random_pose(6)
        for t in (pred.keypoints, pred.twists, pred.beta):
            t.requires_grad = True
        with Tape() as tape:
            backward(loss(pred, target, w_kpt=2.0), tape)
        want = 2.0 * np.sign(pred.keypoints.data - target.keypoints.data) / 72
        np.testing.assert_allclose(pred.keypoints.grad, want, atol=1e-12)
        want_beta = 2.0 * (pred.beta.data - target.beta.data) / 10
        np.testing.assert_allclose(pred.beta.grad, want_beta, atol=1e-12)


class TestAveraging:
    def _heads(self, n, seed0=0, dtype=np.float64):
        return [M.init_head(tiny_cfg(), np.random.default_rng(seed0 + i), dtype=dtype)
                for i in range(n)]

    def test_identical_sets_average_to_themselves_bitwise(self):
        base = M.init_head(tiny_cfg(), np.random.default_rng(7))
        copies = [copy.deepcopy(base) for _ in range(10)]
        avg = average_checkpoints(copies)
        for (_, a), (_, b) in zip(avg.named_parameters(), base.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_zero_and_two_average_to_one(self):
        a, b = self._heads(2)
        for _, t in a.named_parameters():
            t.data = np.zeros_like(t.data)
        for _, t in b.named_parameters():
            t.data = np.full_like(t.data, 2.0)
        avg = average_checkpoints([a, b])
        for _, t in avg.named_parameters():
            np.testing.assert_array_equal(t.data, np.ones_like(t.data))

    def test_matches_direct_summation(self):
        heads = self._heads(10)
        avg = average_checkpoints(heads)
        stacks = {name: [] for name, _ in heads[0].named_parameters()}
        for h in heads:
            for name, t in h.named_parameters():
                stacks[name].append(t.data)
        for name, t in avg.named_parameters():
            want = np.sum(stacks[name], axis=0) / 10
            np.testing.assert_allclose(t.data, want, rtol=0, atol=1e-7)

    def test_order_invariant(self):
        heads = self._heads(5)
        a = average_checkpoints(heads)
        b = average_checkpoints(heads[::-1])
        for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(ta.data, tb.data, rtol=0, atol=1e-12)

    def test_sets_and_running_mean_match_the_per_tensor_formula(self):
        heads = [M.init_head(tiny_cfg(), np.random.default_rng(s)) for s in range(4)]
        flats = [flatten(h) for h in heads]
        from_sets = average_checkpoints(heads)
        # train()'s path: a copy of the first arena, then the others fed in
        window = TR._RunningMean(heads[0], flats[0].copy())
        for flat in flats[1:]:
            window.add(flat)
        from_window = average_checkpoints(window)
        for (name, a), (_, b) in zip(from_sets.named_parameters(),
                                     from_window.named_parameters()):
            # the per-tensor formula the flat average replaced
            base = dict(heads[0].named_parameters())[name].data
            delta = np.zeros_like(base)
            for h in heads[1:]:
                delta = delta + (dict(h.named_parameters())[name].data - base)
            np.testing.assert_array_equal(a.data, base + delta / len(heads))
            np.testing.assert_array_equal(b.data, a.data)
            assert not any(np.shares_memory(a.data, t.data) for h in heads
                           for n, t in h.named_parameters() if n == name), name
        assert all(np.shares_memory(t.data, window.delta)
                   for _, t in from_window.named_parameters())

    def test_single_set_keeps_negative_zero_and_shares_no_memory(self):
        head = M.init_head(tiny_cfg(), np.random.default_rng(3))
        _, first = next(iter(head.named_parameters()))
        first.data.reshape(-1)[:2] = -0.0
        flat = flatten(head)
        formula = flat + np.zeros_like(flat) / 1  # first + mean of no deviations
        assert np.signbit(flat[0]) and not np.signbit(formula[0])
        from_set = average_checkpoints([head])
        got = flatten(from_set)
        np.testing.assert_array_equal(got, formula)
        assert np.signbit(got[:2]).all()
        for (_, a), (_, b) in zip(from_set.named_parameters(), head.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
            assert not np.shares_memory(a.data, b.data)
        # a window of one epoch: the result views the copy train() took
        window = TR._RunningMean(head, flat)
        from_window = average_checkpoints(window)
        np.testing.assert_array_equal(flatten(from_window), got)
        assert all(np.shares_memory(t.data, flat)
                   for _, t in from_window.named_parameters())

    def test_one_epoch_window_shares_no_memory_with_last_params(self):
        head_cfg = tiny_cfg()
        params = M.init_head(head_cfg, np.random.default_rng(99))
        data = generate(4, SyntheticGen(seed=1, n_patches=16, c_in=32))
        result = train(head_cfg, params, data,
                       TrainConfig(epochs=2, batch_size=4, warmup_steps=10,
                                   avg_last_epochs=1))
        last = dict(result.last_params.named_parameters())
        for name, t in result.params.named_parameters():
            np.testing.assert_array_equal(t.data, last[name].data)
            assert not np.shares_memory(t.data, last[name].data), name

    def test_one_epoch_window_is_made_after_the_moments_are_freed(self, tmp_path,
                                                                   monkeypatch):
        # last epoch: checkpoint (with the moments), drop Adam, then the window
        moments, seen = [], []
        real_init = TR.AdamState.init

        def init(params):
            state = real_init(params)
            moments.extend(weakref.ref(a) for a in (state.m_flat, state.v_flat))
            return state

        class WatchedMean(TR._RunningMean):
            def __init__(self, like, first):
                seen.append(([ref() is None for ref in moments],
                             sorted(p.name for p in tmp_path.iterdir())))
                super().__init__(like, first)

        monkeypatch.setattr(TR.AdamState, "init", init)
        monkeypatch.setattr(TR, "_RunningMean", WatchedMean)
        head_cfg = tiny_cfg()
        params = M.init_head(head_cfg, np.random.default_rng(99))
        data = generate(4, SyntheticGen(seed=1, n_patches=16, c_in=32))
        train(head_cfg, params, data, TrainConfig(epochs=1, batch_size=4, warmup_steps=10),
              checkpoint_dir=str(tmp_path))
        assert seen == [([True, True], ["epoch_0000.ckpt"])]

    def test_result_is_new_tensors_with_flags_and_no_gradients(self):
        heads = self._heads(2)
        for _, t in heads[0].named_parameters():
            t.grad = np.ones_like(t.data)
        frozen_name, frozen = next(iter(heads[0].named_parameters()))
        frozen.requires_grad = False
        avg = average_checkpoints(heads)
        assert avg.blocks[0].mha_2d.h == heads[0].blocks[0].mha_2d.h
        for (name, a), (_, src) in zip(avg.named_parameters(), heads[0].named_parameters()):
            assert a is not src and a.grad is None, name
            assert a.requires_grad == (name != frozen_name), name

    def test_structure_mismatch_rejected(self):
        a = M.init_head(tiny_cfg(), np.random.default_rng(0))
        b = M.init_head(tiny_cfg(L=3), np.random.default_rng(0))
        with pytest.raises(ValueError, match="structure"):
            average_checkpoints([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            average_checkpoints([])


def snapshot_window_average(snapshots):
    """Reference for train()'s running mean: the trailing-window average made
    from a kept copy of every epoch's arena, first + sum(other - first) / n
    by chunks at the end."""
    base = snapshots[0]
    if len(snapshots) == 1:
        return base
    avg = np.empty_like(base)
    for lo in range(0, base.size, TR.ADAM_CHUNK):
        chunk = slice(lo, lo + TR.ADAM_CHUNK)
        delta = np.zeros_like(base[chunk])
        for other in snapshots[1:]:
            delta += other[chunk] - base[chunk]
        np.add(base[chunk], delta / len(snapshots), out=avg[chunk])
    return avg


class TestTrailingWindow:
    """train() feeds each epoch of the window to a running mean as it ends."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("epochs", [1, 3, 12])
    @pytest.mark.parametrize("avg_last", [1, 3, 10])
    def test_bit_identical_to_averaging_kept_snapshots(self, tmp_path, monkeypatch,
                                                       dtype, epochs, avg_last):
        import lifthead.checkpoint as C
        snapshots = []
        save = C.save_checkpoint

        def keep_snapshot(params, state, path):
            if state is not None:
                snapshots.append(state.arena.copy())
            return save(params, state, path)

        monkeypatch.setattr(C, "save_checkpoint", keep_snapshot)
        head_cfg = tiny_cfg(dropout=0.2)
        params = M.init_head(head_cfg, np.random.default_rng(99), dtype=dtype)
        data = generate(6, SyntheticGen(seed=1, n_patches=16, c_in=32))
        result = train(head_cfg, params, data,
                       TrainConfig(epochs=epochs, batch_size=4, warmup_steps=10,
                                   max_lr=1e-3, avg_last_epochs=avg_last),
                       checkpoint_dir=str(tmp_path))
        assert len(snapshots) == epochs
        want = snapshot_window_average(snapshots[-avg_last:])
        got = flatten(result.params)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert flatten(result.last_params).tobytes() == snapshots[-1].tobytes()
        reference = copy.deepcopy(result.params)
        tensors = [t for _, t in reference.named_parameters()]
        for t, view in zip(tensors, TR._views(want, tensors)):
            t.data = view
        save(reference, None, tmp_path / "reference.ckpt")
        assert ((tmp_path / "averaged.ckpt").read_bytes()
                == (tmp_path / "reference.ckpt").read_bytes())

    def test_memory_does_not_grow_with_the_window(self):
        # the window holds one arena copy and one deviation sum, however many
        # epochs it spans; keeping every epoch's copy would add one per epoch
        import tracemalloc
        from lifthead.cli import PROFILES
        tiny = PROFILES["tiny"]
        head_cfg = HeadConfig(**{k: v for k, v in tiny.items()
                                 if k in HeadConfig.__dataclass_fields__})
        data = generate(tiny["batch_size"], SyntheticGen(
            seed=1, n_patches=head_cfg.n_patches, c_in=head_cfg.c_in))

        def peak(epochs):
            params = M.init_head(head_cfg, np.random.default_rng(0))
            cfg = TrainConfig(epochs=epochs, batch_size=tiny["batch_size"],
                              avg_last_epochs=10)
            tracemalloc.start()
            try:
                train(head_cfg, params, data, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # one-time allocations outside the measurement
        arena = 4 * M.init_head(head_cfg, np.random.default_rng(0)).parameter_count()
        two, twelve = peak(2), peak(12)
        assert twelve - two < 2 * arena, (two, twelve, arena)


def small_run(tmp_path=None, seed=0, epochs=3, n=8, **cfg_kw):
    head_cfg = tiny_cfg()
    params = M.init_head(head_cfg, np.random.default_rng(99), dtype=np.float32)
    data = generate(n, SyntheticGen(seed=1, n_patches=16, c_in=32, noise_sigma=0.0))
    cfg = TrainConfig(epochs=epochs, batch_size=4, seed=seed, warmup_steps=10,
                      max_lr=1e-3, avg_last_epochs=2, **cfg_kw)
    kw = {}
    if tmp_path is not None:
        kw = dict(checkpoint_dir=str(tmp_path), metrics_path=str(tmp_path / "log.tsv"))
    return head_cfg, params, train(head_cfg, params, data, cfg, **kw)


class TestTrainLoop:
    def test_zero_epochs_is_identity(self):
        head_cfg = tiny_cfg()
        params = M.init_head(head_cfg, np.random.default_rng(0))
        before = {n: t.data.copy() for n, t in params.named_parameters()}
        data = generate(4, SyntheticGen(seed=0, n_patches=16, c_in=32))
        result = train(head_cfg, params, data, TrainConfig(epochs=0, batch_size=2))
        assert result.metrics == []
        for name, t in result.params.named_parameters():
            np.testing.assert_array_equal(t.data, before[name])

    def test_step_accounting_and_schedule(self):
        _, _, result = small_run(epochs=2, n=8)
        # 8 samples / batch 4 = 2 steps per epoch
        assert [m.step for m in result.metrics] == [1, 2, 3, 4]
        assert [m.epoch for m in result.metrics] == [0, 0, 1, 1]
        cfg = TrainConfig(warmup_steps=10, max_lr=1e-3)
        for m in result.metrics:
            assert m.lr == lr_at(m.step, cfg)
            assert m.wall_ms >= 0

    def test_loss_decreases_on_easy_task(self):
        _, _, result = small_run(epochs=12, n=8)
        first = result.metrics[0].loss
        last_epoch = [m.loss for m in result.metrics if m.epoch == 11]
        assert np.mean(last_epoch) < first

    def test_deterministic_replay(self):
        _, p1, r1 = small_run(seed=5)
        _, p2, r2 = small_run(seed=5)
        assert [(m.step, m.epoch, m.lr, m.loss) for m in r1.metrics] == \
               [(m.step, m.epoch, m.lr, m.loss) for m in r2.metrics]
        for (_, a), (_, b) in zip(r1.params.named_parameters(),
                                  r2.params.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_seed_changes_trajectory(self):
        _, _, r1 = small_run(seed=5)
        _, _, r2 = small_run(seed=6)
        assert [m.loss for m in r1.metrics] != [m.loss for m in r2.metrics]

    def test_checkpoints_and_metrics_written(self, tmp_path):
        import lifthead.checkpoint as C
        head_cfg, _, result = small_run(tmp_path=tmp_path, epochs=3)
        for epoch in range(3):
            assert (tmp_path / f"epoch_{epoch:04d}.ckpt").exists()
        assert (tmp_path / "averaged.ckpt").exists()

        # averaged.ckpt must equal the mean of the last avg_last_epochs=2
        last = []
        for epoch in (1, 2):
            p = M.init_head(head_cfg, np.random.default_rng(0), dtype=np.float32)
            C.load_checkpoint(tmp_path / f"epoch_{epoch:04d}.ckpt", p)
            last.append(p)
        want = average_checkpoints(last)
        got = M.init_head(head_cfg, np.random.default_rng(0), dtype=np.float32)
        C.load_checkpoint(tmp_path / "averaged.ckpt", got)
        for (_, a), (_, b) in zip(got.named_parameters(), want.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-7)

        lines = (tmp_path / "log.tsv").read_text().splitlines()
        assert len(lines) == len(result.metrics)
        assert all(len(line.split("\t")) == 5 for line in lines)

    def test_tiny_profile_starts_no_thread(self, tmp_path, monkeypatch):
        # an Adam arena, Xavier draws and checkpoints under POOL_BYTES:
        # with two CPUs everything runs on the caller, and the worker pool
        # is never created
        from lifthead.cli import PROFILES
        monkeypatch.setattr(W, "CPUS", 2)
        monkeypatch.setattr(W, "_pool", None)
        threads = threading.active_count()
        tiny = PROFILES["tiny"]
        head_cfg = HeadConfig(**{k: v for k, v in tiny.items()
                                 if k in HeadConfig.__dataclass_fields__})
        params = M.init_head(head_cfg, np.random.default_rng(0))
        assert params.parameter_count() * np.dtype(T.DEFAULT_DTYPE).itemsize < W.POOL_BYTES
        data = generate(tiny["n_samples"], SyntheticGen(
            seed=1, n_patches=head_cfg.n_patches, c_in=head_cfg.c_in))
        train(head_cfg, params, data, TrainConfig(epochs=2, batch_size=16),
              checkpoint_dir=str(tmp_path))
        assert max(p.stat().st_size for p in tmp_path.iterdir()) < W.POOL_BYTES
        assert W._pool is None
        assert threading.active_count() == threads

    def test_non_finite_loss_aborts_with_diagnostics(self):
        head_cfg = tiny_cfg()
        params = M.init_head(head_cfg, np.random.default_rng(0), dtype=np.float32)
        data = generate(4, SyntheticGen(seed=0, n_patches=16, c_in=32))
        data[0][1].keypoints.data = np.full_like(data[0][1].keypoints.data, np.inf)
        cfg = TrainConfig(epochs=1, batch_size=4, warmup_steps=10)
        with pytest.raises(TrainingAborted, match="step 1") as exc:
            train(head_cfg, params, data, cfg)
        assert exc.value.step == 1
        assert not math.isfinite(exc.value.loss_value)
        assert exc.value.lr == lr_at(1, cfg)

    def test_empty_dataset_rejected(self):
        head_cfg = tiny_cfg()
        params = M.init_head(head_cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-empty"):
            train(head_cfg, params, [], TrainConfig(epochs=1))


class TestBatchedStep:
    def test_tape_entries_independent_of_batch_and_heads(self, monkeypatch):
        counts = []
        real_backward = TR.backward

        def counting_backward(total, tape):
            counts[-1].append(len(tape.entries))
            real_backward(total, tape)

        monkeypatch.setattr(TR, "backward", counting_backward)
        for batch in (1, 4, 16):
            for h in (1, 2, 4):
                counts.append([])
                head_cfg = tiny_cfg(h=h, dropout=0.1)
                params = M.init_head(head_cfg, np.random.default_rng(0))
                data = generate(batch, SyntheticGen(seed=1, n_patches=16, c_in=32))
                train(head_cfg, params, data,
                      TrainConfig(epochs=2, batch_size=batch, warmup_steps=10,
                                  min_keep_patches=4))
        assert [len(c) for c in counts] == [2] * 9
        assert len({n for c in counts for n in c}) == 1, counts

    def test_batch_gradient_is_mean_of_sample_gradients(self):
        head_cfg = tiny_cfg(n_patches=6, c_in=24, d=8)
        params = M.init_head(head_cfg, np.random.default_rng(4), dtype=np.float64)
        jitter = np.random.default_rng(5)
        for _, t in params.named_parameters():
            t.data = t.data + jitter.uniform(-0.05, 0.05, size=t.shape)
        gen = SyntheticGen(seed=2, n_patches=6, c_in=24)
        samples = [(Tensor(f.data, dtype=np.float64),
                    pose_output_from_arrays(t.keypoints.data, t.twists.data, t.beta.data,
                                            dtype=np.float64))
                   for f, t in generate(3, gen)]
        subset = [0, 2, 3, 5]

        def grads(batch):
            features, targets = TR.stack_samples(batch)
            with Tape() as tape:
                out = M.forward(head_cfg, params, features, patch_indices=subset)
                backward(loss(out, targets, w_kpt=2.0, w_twist=0.5), tape)
            g = {n: t.grad for n, t in params.named_parameters()}
            for _, t in params.named_parameters():
                t.zero_grad()
            return g

        batched = grads(samples)
        singles = [grads([s]) for s in samples]
        for name, g in batched.items():
            np.testing.assert_allclose(g, np.mean([s[name] for s in singles], axis=0),
                                       rtol=0, atol=1e-10, err_msg=name)


# bytes of the distinct array buffers held by the closures of one tiny-profile
# training tape (TestTapeLiveness.step_tape), by dropout probability; when
# closures held their input tensors, those tensors' arrays brought the
# dropout 0 tape to 9,335,048, and while dropout kept a float factor and the
# feed-forward relus their outputs, the dropout 0.1 tape held 5,265,456, and
# while those relus kept a bool y > 0 mask besides their kept mask, 4,134,960
PINNED_TAPE_BYTES = {0.0: 3_758_128, 0.1: 4_003_888}


class TestTapeLiveness:
    """A training tape keeps alive only what backward reads: node ids, leaf
    tensors, and the arrays each backward_fn captures."""

    @staticmethod
    def step_tape(dropout=0.0):
        """The entries of the tape of one training step at the tiny profile's
        shapes (batch 16, every patch kept), snapshot before backward (which
        empties the tape) and kept alive through it."""
        head_cfg = tiny_cfg(d=32, dropout=dropout)
        params = M.init_head(head_cfg, np.random.default_rng(0))
        features, targets = TR.stack_samples(
            generate(16, SyntheticGen(seed=1, n_patches=16, c_in=32)))
        with Tape() as tape:
            out = M.forward(head_cfg, params, features, training=True,
                            rng=np.random.default_rng(2))
            total = loss(out, targets)
            entries = list(tape.entries)
            backward(total, tape)
        return entries

    @staticmethod
    def held(entry):
        """Everything an entry keeps: its inputs and its closure's cells,
        with tuples and lists opened one level."""
        items = list(entry.inputs)
        for cell in entry.backward_fn.__closure__ or ():
            value = cell.cell_contents
            items.extend(value if isinstance(value, (tuple, list)) else [value])
        return items

    def test_entries_hold_no_intermediate_tensor(self):
        entries = self.step_tape(dropout=0.1)
        for entry in entries:
            for item in self.held(entry):
                if isinstance(item, Tensor):
                    assert item.requires_grad and item._tape is None, entry.backward_fn
        refs = [r for e in entries for r in e.inputs]
        assert any(type(r) is int for r in refs) and any(r is None for r in refs)

    def test_tiny_tape_array_bytes_are_pinned(self):
        # a deterministic proxy for the tape's memory: bytes of the distinct
        # buffers that backward_fn closures hold (the parameters included)
        for dropout, pinned in PINNED_TAPE_BYTES.items():
            bases = {}
            for entry in self.step_tape(dropout):
                for item in self.held(entry):
                    if isinstance(item, np.ndarray):
                        while isinstance(item.base, np.ndarray):
                            item = item.base
                        bases[id(item)] = item.nbytes
            assert sum(bases.values()) == pinned, dropout

    def test_dropout_keeps_bool_masks_only(self):
        """With dropout on, every dropout entry, and every relu entry (all
        of which carry dropout), holds its mask as a bool array. The one
        float array a relu holds is its output, which the next entry (the
        following linear's matmul) holds too, so it costs nothing extra."""
        kinds = Counter()
        entries = self.step_tape(dropout=0.1)
        for i, entry in enumerate(entries):
            kind = entry.backward_fn.__qualname__.split(".")[0]
            if kind in ("dropout", "relu"):
                kinds[kind] += 1
                arrays = [a for a in self.held(entry) if isinstance(a, np.ndarray)]
                floats = [a for a in arrays if a.dtype != np.bool_]
                assert len(arrays) - len(floats) == 1, kind
                assert len(floats) == (kind == "relu"), kind
                assert all(any(a is b for b in self.held(entries[i + 1])) for a in floats)
        # per block: 3 attention dropouts and 4 feed-forward relus
        assert kinds == {"dropout": 6, "relu": 8}

    def test_train_holds_no_tape_across_adam_step(self, monkeypatch):
        tapes, live = [], []

        class WatchedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        real_adam_step = TR.adam_step

        def adam_step(*args, **kwargs):
            live.append(sum(ref() is not None for ref in tapes))
            return real_adam_step(*args, **kwargs)

        monkeypatch.setattr(TR, "Tape", WatchedTape)
        monkeypatch.setattr(TR, "adam_step", adam_step)
        small_run(epochs=2, n=8)
        assert len(tapes) == 4 and live == [0, 0, 0, 0]


class TestFirstGradientKept:
    """accumulate_grad keeps a parameter's first gradient as the backward
    returned it, so no backward may write into an array once it is handed
    out: not into the adjoint it is given, nor into a gradient it returned."""

    @staticmethod
    def tiny_step(dropout, probe=None):
        """One tiny-profile train() step, with probe(mp) applied first if
        given; the parameters' gradients as Adam receives them, and the
        digest of the parameters after the step."""
        from lifthead import cli
        cfg = {f.name: f.default for f in cli.FIELDS}
        cfg.update(cli.PROFILES["tiny"], epochs=1, dropout=dropout)
        head_cfg, train_cfg, gen = cli.build(cfg)
        params = M.init_head(head_cfg, np.random.default_rng(train_cfg.seed))
        grads, real_adam_step = [], TR.adam_step

        def adam_step(state, lr):
            grads.extend((name, t.grad) for name, t in state.named)
            return real_adam_step(state, lr)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TR, "adam_step", adam_step)
            if probe is not None:
                probe(mp)
            result = train(head_cfg, params, generate(train_cfg.batch_size, gen), train_cfg)
        assert len(result.metrics) == 1
        return grads, params_digest(result.last_params)

    @staticmethod
    def read_only_backward(mp):
        """Every backward_fn gets a read-only adjoint, and every gradient it
        returns is made read-only, so a later write into either raises."""
        real_record = Tape.record

        def freeze(a):
            if isinstance(a, np.ndarray):  # not None; a numpy scalar is immutable
                a.flags.writeable = False

        def record(self, out, inputs, backward_fn):
            def probed(g):
                freeze(g)
                grads = backward_fn(g)
                for gi in grads:
                    freeze(gi)
                return grads
            real_record(self, out, inputs, probed)

        mp.setattr(Tape, "record", record)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_no_backward_writes_what_it_handed_out(self, dropout):
        grads, digest = self.tiny_step(dropout, self.read_only_backward)
        assert self.tiny_step(dropout)[1] == digest
        assert len(grads) == 95 and all(g is not None for _, g in grads)
        assert not any(g.flags.writeable for _, g in grads)
        for i, (name, g) in enumerate(grads):
            for other, h in grads[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)


class TestMetricsText:
    def test_format(self):
        text = metrics_to_text([StepMetrics(1, 0, 5e-4, 0.25, 12.5),
                                StepMetrics(2, 0, 6e-4, 0.125, 13.0)])
        lines = text.splitlines()
        assert lines[0].split("\t") == ["1", "0", "0.0005", "0.25", "12.500"]
        assert len(lines) == 2


class TestEvaluate:
    def test_perfect_prediction_metrics_are_zero(self):
        head_cfg = tiny_cfg()
        params = M.init_head(head_cfg, np.random.default_rng(3), dtype=np.float32)
        feats = Tensor(np.random.default_rng(0)
                       .standard_normal((16, 32)).astype(np.float32))
        out = M.forward(head_cfg, params, feats)
        target = pose_output_from_arrays(out.keypoints.data, out.twists.data,
                                         out.beta.data)
        metrics = TR.evaluate(head_cfg, params, [(feats, target)])
        assert metrics["keypoint_mse"] == 0.0
        # arccos near 1.0 amplifies f32 rounding of the dot product
        assert metrics["twist_angular_error_deg"] < 0.1
        assert metrics["beta_mse"] == 0.0

    def test_known_offset_keypoint_mse(self):
        head_cfg = tiny_cfg()
        params = M.init_head(head_cfg, np.random.default_rng(3), dtype=np.float32)
        feats = Tensor(np.random.default_rng(0)
                       .standard_normal((16, 32)).astype(np.float32))
        out = M.forward(head_cfg, params, feats)
        target = pose_output_from_arrays(out.keypoints.data + 0.1, out.twists.data,
                                         out.beta.data)
        metrics = TR.evaluate(head_cfg, params, [(feats, target)])
        assert abs(metrics["keypoint_mse"] - 0.01) < 1e-6

    def test_known_rotation_twist_error(self):
        # every target twist is the predicted one turned by 120 degrees
        head_cfg = tiny_cfg()
        params = M.init_head(head_cfg, np.random.default_rng(3), dtype=np.float32)
        feats = Tensor(np.random.default_rng(0)
                       .standard_normal((16, 32)).astype(np.float32))
        out = M.forward(head_cfg, params, feats)
        c, s = np.cos(np.radians(120.0)), np.sin(np.radians(120.0))
        turned = out.twists.data @ np.array([[c, s], [-s, c]], dtype=np.float32)
        target = pose_output_from_arrays(out.keypoints.data, turned, out.beta.data)
        metrics = TR.evaluate(head_cfg, params, [(feats, target)])
        assert abs(metrics["twist_angular_error_deg"] - 120.0) < 1e-3


def blas_key():
    """numpy's version, the OpenBLAS build string (version and build-time
    core) and the SIMD extensions found at run time, which choose the core
    whose kernels a DYNAMIC_ARCH OpenBLAS runs."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return (np.__version__, blas.get("openblas configuration"),
            tuple(config.get("SIMD Extensions", {}).get("found", ())))


# SHA-256 of a tiny-profile 3-epoch train() on 64 samples, as lifthead train
# --profile tiny --epochs 3 runs it, by dropout: last_params and the averaged
# params (names and bytes in walk order), and the float64 bytes of the step
# losses. The thread count does not change them; the BLAS kernels may.
PINNED_TINY_BLAS = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                    "NO_AFFINITY Haswell MAX_THREADS=64",
                    ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))
PINNED_TINY_BYTES = {
    0.0: ("c795b5e15bfa9290f8ad01aa2c98cf42bf1e8f937fb0394e56e886eb67c6c9b8",
          "32820b018e84f72199e0ee3952a605207ea1489839277fa24821c17af79b2291",
          "2938dbb680f6c9a8822d5f013819aee3ed3eb5da6103cfeadc94b353058a0d83"),
    0.2: ("4ae0c4df92f9319fda7cc7bfeeb2ce666490d5972bdddf45863d501de4e03545",
          "e76907ec688ab00da73d794af2e41bec2727510ddbb1842f28dd945e0db7073d",
          "7619ff4ff3d5a08db19591291bcd65fdee5a576eedde98d58746a7a1ad66dea8"),
}


def params_digest(params):
    h = hashlib.sha256()
    for name, t in params.named_parameters():
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("dropout", sorted(PINNED_TINY_BYTES))
def test_tiny_training_bytes_are_pinned(dropout):
    """A change meant to leave results untouched leaves these bytes as they
    were recorded."""
    if blas_key() != PINNED_TINY_BLAS:
        pytest.skip(f"digests were recorded with numpy and BLAS {PINNED_TINY_BLAS}; "
                    f"this build is {blas_key()}, whose kernels may round differently")
    from lifthead import cli
    cfg = {f.name: f.default for f in cli.FIELDS}
    cfg.update(cli.PROFILES["tiny"], epochs=3, dropout=dropout)
    head_cfg, train_cfg, gen = cli.build(cfg)
    data = generate(cfg["n_samples"], gen)
    params = M.init_head(head_cfg, np.random.default_rng(train_cfg.seed))
    result = train(head_cfg, params, data, train_cfg)
    losses = np.array([m.loss for m in result.metrics])
    assert len(losses) == 12
    assert (params_digest(result.last_params), params_digest(result.params),
            hashlib.sha256(losses.tobytes()).hexdigest()) == PINNED_TINY_BYTES[dropout]

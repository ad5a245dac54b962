"""Worker pool tests."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import lifthead.model as M
import lifthead.tensor as T
import lifthead.workers as W
from lifthead.checkpoint import save_checkpoint
from lifthead.cli import FIELDS, PROFILES, head_config
from lifthead.efficiency import transformer_head_params
from lifthead.training import AdamState


def test_every_chunk_goes_to_exactly_one_call(monkeypatch):
    # more threads than most hosts have cores, switching as often as the
    # interpreter allows: an index handed out twice or lost shows here
    monkeypatch.setattr(W, "CPUS", 4)
    monkeypatch.setattr(W, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        calls = W.over_chunks(lambda chunks: (threading.get_ident(), list(chunks)),
                              20_000, W.POOL_BYTES)
    finally:
        sys.setswitchinterval(interval)
        pool = W._pool
        pool.shutdown(wait=True)
    assert len(calls) == 4
    assert calls[0][0] == threading.get_ident()
    assert sorted(k for _, ks in calls for k in ks) == list(range(20_000))
    assert all(not t.is_alive() for t in pool._threads)


def test_pool_has_a_thread_per_cpu_besides_the_caller(monkeypatch):
    made = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(W, "CPUS", 3)
    monkeypatch.setattr(W, "_pool", None)
    monkeypatch.setattr(W, "ThreadPoolExecutor", Recording)
    try:
        assert W.run_all([lambda: 0, lambda: 1, lambda: 2], W.POOL_BYTES) == [0, 1, 2]
    finally:
        W._pool.shutdown(wait=True)
    assert made == [2]  # the caller runs the third call


def test_one_chunk_runs_on_the_caller(monkeypatch):
    monkeypatch.setattr(W, "CPUS", 2)
    monkeypatch.setattr(W, "_pool", None)
    assert W.over_chunks(lambda chunks: (threading.get_ident(), list(chunks)), 1,
                         W.POOL_BYTES) == [(threading.get_ident(), [0])]
    assert W._pool is None


def test_pooled_needs_two_cpus_and_pool_bytes(monkeypatch):
    monkeypatch.setattr(W, "CPUS", 1)
    assert not W.pooled(1 << 40)
    monkeypatch.setattr(W, "CPUS", 2)
    assert not W.pooled(W.POOL_BYTES - 1)
    assert W.pooled(W.POOL_BYTES)


def test_work_under_the_gate_runs_in_order_on_the_caller(monkeypatch):
    monkeypatch.setattr(W, "CPUS", 4)
    monkeypatch.setattr(W, "_pool", None)
    me = threading.get_ident()
    assert W.run_all([lambda: (0, threading.get_ident()), lambda: (1, threading.get_ident())],
                     W.POOL_BYTES - 1) == [(0, me), (1, me)]
    assert W.over_chunks(lambda chunks: (threading.get_ident(), list(chunks)), 5,
                         W.POOL_BYTES - 1) == [(me, [0, 1, 2, 3, 4])]
    assert W._pool is None


def test_one_cpu_runs_the_calls_in_order_on_the_caller(monkeypatch):
    monkeypatch.setattr(W, "CPUS", 1)
    monkeypatch.setattr(W, "_pool", None)
    me, ran = threading.get_ident(), []

    def call(k):
        def run():
            ran.append((k, threading.get_ident()))
            if k == 1:
                raise ValueError("call 1")
            return k
        return run

    assert W.run_all([call(0), call(2), call(3)], W.POOL_BYTES) == [0, 2, 3]
    assert ran == [(0, me), (2, me), (3, me)]
    ran.clear()
    with pytest.raises(ValueError, match="call 1"):
        W.run_all([call(0), call(1), call(2)], W.POOL_BYTES)
    assert ran == [(0, me), (1, me)]  # a call after a failed one never starts
    assert W.over_chunks(lambda chunks: list(chunks), 5, W.POOL_BYTES) == [[0, 1, 2, 3, 4]]
    assert W._pool is None


@pytest.mark.parametrize("profile", ["tiny", "paper"])
def test_each_profile_job_sits_on_one_side_of_the_gate(profile, tmp_path):
    """Every job of a tiny run touches under POOL_BYTES and every job of a
    paper run at least that: the Adam arena, the Xavier draws, and an epoch
    checkpoint (parameters and both moments) and the averaged one, written
    and read. A POOL_BYTES that would move either profile's work between
    the caller and the pool fails here."""
    cfg = {f.name: f.default for f in FIELDS}
    cfg.update(PROFILES[profile])
    hc = head_config(cfg)
    arena = transformer_head_params(hc) * np.dtype(T.DEFAULT_DTYPE).itemsize
    jobs: list = []
    params = M.allocate_head(hc, jobs)  # draws nothing; np.empty weights
    draws = sum(view.nbytes for view, _ in jobs)
    if profile == "paper":
        # a checkpoint's payload holds at least the arena, and its file
        # holds the payload and the headers
        assert min(arena, draws) >= W.POOL_BYTES
        return
    state = AdamState.init(params.named_parameters())
    save_checkpoint(params, state, tmp_path / "epoch.ckpt")
    save_checkpoint(params, None, tmp_path / "averaged.ckpt")
    files = [p.stat().st_size for p in tmp_path.iterdir()]
    # the write gate sees the payload, under the file's size
    assert max(arena, draws, *files) < W.POOL_BYTES

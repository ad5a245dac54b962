"""Worker pool tests."""

import sys
import threading

import pytest

import lifthead.workers as W


def test_every_chunk_goes_to_exactly_one_call(monkeypatch):
    # more threads than most hosts have cores, switching as often as the
    # interpreter allows: an index handed out twice or lost shows here
    monkeypatch.setattr(W, "CPUS", 4)
    monkeypatch.setattr(W, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        calls = W.over_chunks(lambda chunks: (threading.get_ident(), list(chunks)),
                              20_000)
    finally:
        sys.setswitchinterval(interval)
        pool = W._pool
        pool.shutdown(wait=True)
    assert len(calls) == 4
    assert calls[0][0] == threading.get_ident()
    assert sorted(k for _, ks in calls for k in ks) == list(range(20_000))
    assert all(not t.is_alive() for t in pool._threads)


def test_one_chunk_runs_on_the_caller(monkeypatch):
    monkeypatch.setattr(W, "_pool", None)
    assert W.over_chunks(lambda chunks: (threading.get_ident(), list(chunks)), 1) == [
        (threading.get_ident(), [0])]
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

    assert W.run_all([call(0), call(2), call(3)]) == [0, 2, 3]
    assert ran == [(0, me), (2, me), (3, me)]
    ran.clear()
    with pytest.raises(ValueError, match="call 1"):
        W.run_all([call(0), call(1), call(2)])
    assert ran == [(0, me), (1, me)]  # a call after a failed one never starts
    assert W.over_chunks(lambda chunks: list(chunks), 5) == [[0, 1, 2, 3, 4]]
    assert W._pool is None

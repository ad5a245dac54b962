"""Run independent pieces of work on the usable CPUs.

numpy ufuncs and random draws, ``zlib.crc32`` on buffers over 5 KB, and file
reads and writes release the interpreter lock, so threads running them use
the CPUs in parallel. What runs here: Adam's chunks (training.adam_step),
the parts of a large Xavier initialization (blocks.fill_uniform), and the
CRC32 of a large checkpoint beside its write or read (checkpoint). The pool
is created on the first call that needs it, never on import, with one
thread for each usable CPU besides the caller's; its threads wait idle
between calls. With one usable CPU, run_all runs the calls on the caller.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, Optional, Sequence, TypeVar

R = TypeVar("R")

CPUS = len(os.sched_getaffinity(0))  # the CPUs this process may run on
_pool: Optional[ThreadPoolExecutor] = None


def run_all(calls: Sequence[Callable[[], R]]) -> list[R]:
    """Each call's result, in order, with the calls run concurrently.

    The first call runs on the caller and the others on pool threads, so a
    single call starts no thread. With one usable CPU the calls run in
    order on the caller and no pool is started; a call after one that
    raised then never starts. So a call may wait on an earlier one (the
    checkpoint CRC consumer on the reader before it) but never on a later
    one. Every call that started has finished when this returns or raises;
    it raises the exception of the first call, in order, that raised.
    """
    global _pool
    if len(calls) == 1 or CPUS == 1:
        return [call() for call in calls]
    if _pool is None:
        _pool = ThreadPoolExecutor(CPUS - 1, thread_name_prefix="lifthead")
    futures = [_pool.submit(call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def over_chunks(fn: Callable[[Iterator[int]], R], n: int) -> list[R]:
    """fn(chunks) on up to CPUS threads, the caller's among them, where each
    call's chunks yields indices from one shared pass over range(n): every
    index goes to exactly one call, to whichever asks for the next one
    first. Runs as run_all runs its calls, so n = 1 starts no thread.

    Handing the chunks out one at a time, rather than splitting range(n)
    into fixed ranges, lets the threads that get a CPU do the work of one
    that does not (right after a matmul, a BLAS thread that spins waiting
    for more work holds a core for a while).
    """
    lock = threading.Lock()
    shared = iter(range(n))

    def chunks():
        while True:
            with lock:
                k = next(shared, None)
            if k is None:
                return
            yield k

    return run_all([lambda: fn(chunks()) for _ in range(min(n, CPUS))])

"""Run independent pieces of work on the usable CPUs.

numpy ufuncs and random draws, ``zlib.crc32`` on buffers over 5 KB, and file
reads and writes release the interpreter lock, so threads running them use
the CPUs in parallel. What runs here: Adam's chunks (training.adam_step),
the parts of a Xavier initialization (blocks.fill_uniform), and the CRC32
of a checkpoint beside its write or read (checkpoint). Each caller passes
the bytes its work touches; pooled is the one rule for whether it goes to
the pool, which is created on the first pooled call, never on import, with
one thread per usable CPU besides the caller's, idle between calls.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, Optional, Sequence, TypeVar

R = TypeVar("R")

CPUS = len(os.sched_getaffinity(0))  # the CPUs this process may run on
# bytes of work from which a job goes to the pool. Break-even points on 2
# CPUs, pool against caller (medians of alternating runs):
# - Adam, 4 MiB: 0.50-0.58 against 0.40-0.43 ms at 0.5 MiB, tied at 4 MiB,
#   4.0-5.4 against 6.3-8.3 ms at 8 MiB;
# - the CRC32 beside a write, about 2 MB: 3.06 against 2.03 ms at 521 KB,
#   9% slower at 1 MB, within noise from 2 MB (paper saves 453 -> 317 ms);
# - the CRC32 beside a read, about 32 MB: 2.96 against 2.68 ms at 4 MB,
#   20.5 against 21.2 ms at 32 MB, 62-66 against 81-150 ms at 115 MB;
# - Xavier draws, about 1M (4 MiB of float32): 0.63M 6.08 against 5.91 ms,
#   1.26M 6.30 against 8.58 ms, paper's 28.6M 125 against 208 ms.
# Tiny-profile jobs touch under 1 MB, paper ones over 100 MB (test_workers.py).
POOL_BYTES = 1 << 22
_pool: Optional[ThreadPoolExecutor] = None


def pooled(nbytes: int) -> bool:
    """Whether work touching nbytes bytes goes to the pool."""
    return CPUS > 1 and nbytes >= POOL_BYTES


def run_all(calls: Sequence[Callable[[], R]], nbytes: int) -> list[R]:
    """Each call's result, in order, the calls run concurrently if pooled(nbytes).

    The first call runs on the caller and the others on pool threads, so a
    single call starts no thread. Work that is not pooled runs in order on
    the caller and starts no pool; a call after one that raised then never
    starts. So a call may wait on an earlier one (the checkpoint CRC
    consumer on the reader before it) but never on a later one. Every call
    that started has finished when this returns or raises; it raises the
    exception of the first call, in order, that raised.
    """
    global _pool
    if len(calls) == 1 or not pooled(nbytes):
        return [call() for call in calls]
    if _pool is None:
        _pool = ThreadPoolExecutor(CPUS - 1, thread_name_prefix="lifthead")
    futures = [_pool.submit(call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def over_chunks(fn: Callable[[Iterator[int]], R], n: int, nbytes: int) -> list[R]:
    """fn(chunks) on up to CPUS threads, the caller's among them, where each
    call's chunks yields indices from one shared pass over range(n): every
    index goes to exactly one call, to whichever asks for the next one
    first. Work of nbytes bytes that is not pooled, or n = 1, is one call.

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

    return run_all([lambda: fn(chunks())] * (min(n, CPUS) if pooled(nbytes) else 1), nbytes)

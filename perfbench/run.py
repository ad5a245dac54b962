"""Benchmark launcher for lifthead.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tiny_train --seed 1 --seconds 55 --trace 0

Runs one workload (see workloads.py) in this process and prints two JSON
lines: a report (machine facts, deterministic counts, sample counts) and,
last, the result ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones from a traced pass.

BLAS threads are capped at the number of usable CPUs here, before numpy is
first imported. The package is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_blas_threads() -> None:
    n = usable_cpus()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = str(n)


def blas_facts(np) -> dict:
    """BLAS library, version and the thread count it actually runs with."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts = {"name": blas.get("name"), "version": blas.get("version"),
             "config": blas.get("openblas configuration"), "threads": None}
    try:  # OpenBLAS as bundled with numpy wheels
        import ctypes
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    facts["threads"] = fn()
                    break
    except OSError:
        pass
    return facts


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(np) -> dict:
    return {"nproc": usable_cpus(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_facts(np),
            "thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import workloads  # imports lifthead; fails when src/ is absent

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose {'|'.join(workloads.WORKLOADS)})")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        report, result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    report["machine"] = machine_facts(np)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

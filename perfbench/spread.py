"""Run-to-run spread of the benchmark, computed as its acceptance check does.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10]
                                [--json out.json] [--label TEXT]

Runs ``run.py`` once per workload and seed, one run at a time (all workloads
of BENCHMARK.json by default), and prints for each metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound, and the same for the uncorrected wall-clock values of the
timed metrics (``wall_clock.<name>``, from the report). ``--json`` writes
the same summary with every value, the machine facts and the deterministic
counts; baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One run; the report gains the run's wall time as ``wall_s``."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                         timeout=600).stdout.splitlines()
    report, result = json.loads(out[-2]), json.loads(out[-1])
    report["wall_s"] = time.perf_counter() - t0
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return report, {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", metavar="PATH", help="also write the summary here")
    parser.add_argument("--label", default="", help="free text stored in the JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = {"label": args.label, "seeds": args.seeds,
           "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(workload, seed, bench["run_seconds"])
                for seed in parse_seeds(args.seeds)]
        metrics = {name: summarize([m[name] for _, m in runs]) for name in runs[0][1]}
        metrics.update({f"wall_clock.{name}": summarize([r["wall_clock"][name] for r, _ in runs])
                        for name in runs[0][0]["wall_clock"]})
        out["machine"] = runs[0][0]["machine"]
        walls = [report["wall_s"] for report, _ in runs]
        out["workloads"][workload] = {"counts": runs[0][0]["counts"], "wall_s": walls,
                                      "metrics": metrics}
        print(f"{workload}: {len(runs)} runs, longest {max(walls):.1f} s")
        for name, s in metrics.items():
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:36s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread}"
                  + (f"  bound {bound}" if bound is not None else ""), flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

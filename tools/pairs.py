"""Alternating benchmark pairs: a parent checkout against a changed one.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload tiny_train --seeds 1-10

For each seed, runs ``perfbench/run.py --trace 0`` in each checkout, one run
at a time, for the ``run_seconds`` of the parent's BENCHMARK.json. The side
that goes first alternates: the parent in the first pair, the change in the
second, and so on. Each run's operations and end-to-end values are printed as
it ends. Then, per end-to-end metric of BENCHMARK.json: both medians, the
parent's IQR (the distance between its quartiles,
``statistics.quantiles(n=4)``), the pairs the change wins, loses and ties,
and the no-regression check: the change's median may be worse than the
parent's by at most the metric's ``bound``, a share of the parent's median,
in the direction of ``better``. A run that exits non-zero, times out or
prints no result is reported as failed, and its pair is left out of the
summary. The exit status is 1 if a run failed, a metric fails that check or
a larger share of the change's operations failed. Standard library only;
each run is a separate process, so the two sides share no state.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from spread import parse_seeds  # noqa: E402  ('1-10' or '1,3,5-7' -> list of ints)

TIMEOUT = 600.0  # seconds per run; set-up and the last operation come on top of run_seconds


def run_once(checkout, workload, seed, seconds):
    """One untraced run of a checkout's benchmark: its operation counts and
    end-to-end values, or {"error": why} if the run did not finish."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {TIMEOUT:g} s"}
    if proc.returncode != 0:
        return {"error": f"exit status {proc.returncode}"}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result line"}
    return {"attempted": result["attempted"], "failed": result["failed"],
            "values": {k: v["value"] for k, v in result["metrics"].items()}}


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def worse_by(parent, change, better):
    """How much worse change is than parent, as a share of |parent|; negative
    when it is better."""
    sign = 1.0 if better == "lower" else -1.0
    diff = sign * (change - parent)
    if parent == 0:
        return 0.0 if diff == 0 else diff * float("inf")
    return diff / abs(parent)


def summarize(end_to_end, parent_runs, change_runs):
    """One row per metric of end_to_end (BENCHMARK.json's list) over paired
    runs: parent_runs[i] and change_runs[i] ran with the same seed."""
    rows = []
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        pv = [r["values"][name] for r in parent_runs]
        cv = [r["values"][name] for r in change_runs]
        q1, _, q3 = statistics.quantiles(pv, n=4) if len(pv) > 1 else (pv[0],) * 3
        pm, cm = statistics.median(pv), statistics.median(cv)
        sides = [worse_by(p, c, better) for p, c in zip(pv, cv)]
        worse = worse_by(pm, cm, better)
        rows.append({"name": name, "better": better, "bound": bound,
                     "parent_median": pm, "change_median": cm, "parent_iqr": q3 - q1,
                     "wins": sum(s < 0 for s in sides), "losses": sum(s > 0 for s in sides),
                     "ties": sum(s == 0 for s in sides), "worse_by": worse,
                     "ok": worse <= bound})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)

    runs, broken = {"parent": [], "change": []}, 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            run = pair[side] = run_once(getattr(args, side), args.workload, seed,
                                        bench["run_seconds"])
            if "error" in run:
                print(f"run\t{seed}\t{side}\tfailed: {run['error']}", flush=True)
            else:
                values = " ".join(f"{k}={v:.6g}" for k, v in run["values"].items())
                print(f"run\t{seed}\t{side}\t{run['failed']}/{run['attempted']} failed\t"
                      f"{values}", flush=True)
        if any("error" in run for run in pair.values()):
            broken += 1
        else:
            for side, run in pair.items():
                runs[side].append(run)

    if broken:
        print(f"{broken} pair(s) left out: a run failed")
    if not runs["parent"]:
        return 1
    rows = summarize(bench["end_to_end"], runs["parent"], runs["change"])
    print(f"{'metric':22s} {'parent':>12s} {'change':>12s} {'parent IQR':>12s} "
          f"{'W/L/T':>8s} {'worse by':>9s} {'bound':>6s}  check")
    for r in rows:
        wlt = f"{r['wins']}/{r['losses']}/{r['ties']}"
        print(f"{r['name']:22s} {r['parent_median']:12.6g} {r['change_median']:12.6g} "
              f"{r['parent_iqr']:12.6g} {wlt:>8s} {r['worse_by']:+9.4f} {r['bound']:6.2f}  "
              f"{'ok' if r['ok'] else 'WORSE'}")
    shares = failed_share(runs["parent"]), failed_share(runs["change"])
    print(f"failed share: parent {shares[0]:.6f}, change {shares[1]:.6f}")
    return 0 if not broken and all(r["ok"] for r in rows) and shares[1] <= shares[0] else 1


if __name__ == "__main__":
    sys.exit(main())

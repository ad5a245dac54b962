"""Tests of the benchmark itself: the BENCHMARK.json contract, the schema of
its output, and the deterministic counts, which must repeat exactly.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import lifthead.model as M  # noqa: E402
import lifthead.training as TR  # noqa: E402
import workloads  # noqa: E402
from tracer import KINDS, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def run_bench(workload, seed, trace, cwd=ROOT, seconds=2):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def tiny_traced():
    return [parse(run_bench("tiny_train", 3, 1)) for _ in range(2)]


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_untraced_output_schema():
    report, result = parse(run_bench("tiny_train", 1, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["machine"]["nproc"] >= 1
    assert report["machine"]["blas"]["threads"] in (None, *range(1, report["machine"]["nproc"] + 1))


def test_traced_output_schema(tiny_traced):
    _, result = tiny_traced[0]
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_counts_repeat_exactly(tiny_traced):
    (rep_a, res_a), (rep_b, res_b) = tiny_traced
    assert rep_a["counts"] == rep_b["counts"]
    for name in ("train_final_loss", "eval_keypoint_mse", "eval_twist_deg"):
        assert rep_a["end_to_end"][name] == rep_b["end_to_end"][name]
    counts = {k: v["value"] for k, v in res_a["metrics"].items()
              if v["unit"] in ("count", "B")}
    assert counts == {k: v["value"] for k, v in res_b["metrics"].items()
                      if v["unit"] in ("count", "B")}


def test_tiny_counts_at_seed(tiny_traced):
    report, result = tiny_traced[0]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["tensor.tape_entries_per_step"] == 3728
    assert sum(m[f"tensor.entries.{k}"] for k in KINDS) == 3728
    assert sum(report["counts"]["entries_by_scope"].values()) == 3728
    assert m["model.param_tensors"] == 131
    assert report["counts"]["checkpoint_bytes_averaged"] == 171166


def test_paper_counts_at_seed(tmp_path):
    """One 16-sample paper step: 29,808 tape entries and 1,019 tensors."""
    run = workloads.Run(workloads.WORKLOADS["paper"], seed=1, seconds=0,
                        workdir=str(tmp_path))
    st = run.setup(None)
    with Tracer() as tr:
        TR.train(run.hc, st.params, st.train_set, run.tc)
    assert tr.patch_counts == [43]
    assert sum(tr.kind_entries.values()) == 29808
    assert len(list(st.params.named_parameters())) == 1019


def test_tracer_restores_what_it_wraps():
    import lifthead.tensor as T
    before = (T.matmul, T.Tape.record, M.forward, TR.adam_step)
    with Tracer():
        assert T.matmul is not before[0]
    assert (T.matmul, T.Tape.record, M.forward, TR.adam_step) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("tiny_train", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

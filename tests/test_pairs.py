"""tools/pairs.py's summary of alternating benchmark pairs, on canned runs
and stub checkouts; the benchmark itself is never run here."""

import importlib.util
import json
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "pairs.py")
spec = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = [{"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "train_samples_per_s", "better": "higher", "bound": 0.25}]


def runs(setup, rate, failed=0):
    return [{"attempted": 10, "failed": failed,
             "values": {"setup_s": s, "train_samples_per_s": r}} for s, r in zip(setup, rate)]


def test_medians_iqr_and_pair_counts():
    parent = runs([1.0, 2.0, 3.0, 4.0, 5.0], [100, 100, 100, 100, 100])
    change = runs([0.5, 2.0, 3.5, 3.0, 4.0], [90, 110, 100, 120, 130])
    setup, rate = pairs.summarize(END_TO_END, parent, change)
    assert (setup["parent_median"], setup["change_median"]) == (3.0, 3.0)
    assert setup["parent_iqr"] == 4.5 - 1.5  # statistics.quantiles, exclusive method
    assert (setup["wins"], setup["losses"], setup["ties"]) == (3, 1, 1)
    assert setup["worse_by"] == 0.0 and setup["ok"]
    assert (rate["wins"], rate["losses"], rate["ties"]) == (3, 1, 1)
    assert rate["parent_iqr"] == 0.0
    assert rate["worse_by"] == pytest.approx(-0.1) and rate["ok"]


@pytest.mark.parametrize("change_setup, ok", [(1.25, True), (1.2501, False)])
def test_lower_is_better_bound(change_setup, ok):
    (setup, _) = pairs.summarize(END_TO_END, runs([1.0] * 3, [100] * 3),
                                 runs([change_setup] * 3, [100] * 3))
    assert setup["ok"] is ok
    assert setup["losses"] == 3


@pytest.mark.parametrize("change_rate, ok", [(75.0, True), (74.9, False)])
def test_higher_is_better_bound(change_rate, ok):
    (_, rate) = pairs.summarize(END_TO_END, runs([1.0] * 3, [100.0] * 3),
                                runs([1.0] * 3, [change_rate] * 3))
    assert rate["ok"] is ok
    assert rate["worse_by"] == pytest.approx((100.0 - change_rate) / 100.0)


def test_one_pair_and_a_zero_median():
    (setup, _) = pairs.summarize(END_TO_END, runs([0.0], [1.0]), runs([0.0], [1.0]))
    assert setup["parent_iqr"] == 0.0 and setup["ties"] == 1 and setup["ok"]
    (setup, _) = pairs.summarize(END_TO_END, runs([0.0], [1.0]), runs([0.1], [1.0]))
    assert not setup["ok"]


def test_failed_share_and_seeds():
    assert pairs.failed_share(runs([1.0, 1.0], [1, 1], failed=1)) == 0.1
    assert pairs.failed_share([]) == 0.0
    assert pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]


STUB_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed in {fail}:
    sys.exit(1)
print("warming up")
print(json.dumps({{"attempted": 10, "failed": 0, "metrics": {{
    "setup_s": {{"value": float(seed)}}, "train_samples_per_s": {{"value": 100.0}}}}}}))
"""


def stub_checkout(root, fail=()):
    """A checkout whose perfbench/run.py prints one result line, seed s
    giving setup_s = s, and exits 1 for the seeds in fail."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(fail=set(fail) or "set()"))
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 0,
                                                     "end_to_end": END_TO_END}))
    return str(root)


def test_a_failed_run_is_reported_and_its_pair_left_out(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent")
    change = stub_checkout(tmp_path / "change", fail=[2])
    code = pairs.main([parent, change, "--workload", "w", "--seeds", "1-3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "run\t2\tchange\tfailed: exit status 1\n" in out
    assert "1 pair(s) left out: a run failed\n" in out
    # medians and ties over the pairs of seeds 1 and 3 only
    setup = next(line.split() for line in out.splitlines() if line.startswith("setup_s "))
    assert setup[1:3] == ["2", "2"] and setup[4] == "0/0/2" and setup[-1] == "ok"


def test_every_run_failed(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", fail=[1])
    change = stub_checkout(tmp_path / "change", fail=[1])
    assert pairs.main([parent, change, "--workload", "w", "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert out.count("failed: exit status 1") == 2 and "setup_s" not in out


def test_clean_pairs_exit_zero(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent")
    change = stub_checkout(tmp_path / "change")
    assert pairs.main([parent, change, "--workload", "w", "--seeds", "1-2"]) == 0
    assert "left out" not in capsys.readouterr().out

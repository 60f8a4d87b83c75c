"""``scripts/bench_pairs.py`` on hand-built numbers: the verdict of each
metric comparison and the parsing of a benchmark run's output. No
benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


class TestCompare:
    def test_gain(self):
        parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
        change = [p + 20.0 for p in parent]
        change[3] = 90.0   # one lost pair of ten still counts
        cmp = bench_pairs.compare(parent, change, "higher", 0.25)
        assert cmp["verdict"] == "gain"
        assert (cmp["change_wins"], cmp["parent_wins"], cmp["ties"]) == (9, 1, 0)
        assert cmp["median_gain_frac"] == pytest.approx(0.2)

    def test_gain_needs_more_than_the_parents_spread(self):
        # every pair won, by less than the parent's interquartile distance
        parent = [90.0, 110.0, 90.0, 110.0]
        change = [p + 1.0 for p in parent]
        cmp = bench_pairs.compare(parent, change, "higher", 0.25)
        assert cmp["change_wins"] == 4 and cmp["parent"]["iqr"] == 20.0
        assert cmp["verdict"] == "no regression"

    def test_regression_when_lower_is_better(self):
        parent = [2.0, 2.1, 1.9, 2.0]
        change = [2.6, 2.7, 2.5, 2.6]   # 30% slower, bound 25%
        cmp = bench_pairs.compare(parent, change, "lower", 0.25)
        assert cmp["verdict"] == "regression"
        assert cmp["median_gain_frac"] == pytest.approx(-0.3)

    def test_unresolved(self):
        # a spread wider than the bound on both sides, and runs that
        # overlap: no side can be told apart from the other
        parent = [50.0, 150.0, 60.0, 140.0]
        change = [140.0, 55.0, 150.0, 65.0]
        cmp = bench_pairs.compare(parent, change, "higher", 0.25)
        assert cmp["verdict"] == "unresolved"

    def test_wide_spread_with_separate_runs_is_resolved(self):
        parent = [50.0, 150.0, 60.0, 140.0]
        change = [160.0, 400.0, 170.0, 390.0]
        cmp = bench_pairs.compare(parent, change, "higher", 0.25)
        assert cmp["verdict"] == "gain"
        # every change run above every parent run, by less than the spread
        cmp = bench_pairs.compare(parent, [151.0, 300.0, 152.0, 160.0], "higher", 0.25)
        assert cmp["verdict"] == "no regression"

    def test_no_regression(self):
        values = [10.0, 10.5, 9.5, 10.0]
        cmp = bench_pairs.compare(values, list(values), "higher", 0.25)
        assert cmp["verdict"] == "no regression"
        assert cmp["ties"] == 4 and cmp["median_gain_frac"] == 0.0


def _output(accuracy="0.965432", switches="95", correct=True, checks=()):
    result = {"correct": correct, "attempted": 72, "failed": 0,
              "metrics": {"ops_per_s": {"value": 512.5, "unit": "1/s"}}}
    return "\n".join([
        "track_desk seed=1 trace=0: one op is one frame",
        f"  {'ops_per_s':36s} {512.5:14.6g} 1/s",
        f"  {'assoc_accuracy':36s} {float(accuracy):14.6g} ratio",
        f"  {'id_switches':36s} {float(switches):14.6g} count",
        *(f"  CHECK FAILED: {c}" for c in checks),
        "# env " + json.dumps({"seed": 1, "nproc": 2}),
        json.dumps(result),
    ]) + "\n"


class TestParseOutput:
    def test_result_env_and_accuracy(self):
        run = bench_pairs.parse_output(_output())
        assert run["correct"] is True
        assert (run["attempted"], run["failed"]) == (72, 0)
        assert run["metrics"] == {"ops_per_s": 512.5}
        assert run["env"] == {"seed": 1, "nproc": 2}
        assert run["accuracy"] == {"assoc_accuracy": 0.965432, "id_switches": 95.0}
        assert run["check_failed"] == []

    def test_undefined_accuracy_is_null(self):
        run = bench_pairs.parse_output(_output(accuracy="nan"))
        assert run["accuracy"]["assoc_accuracy"] is None
        json.dumps(run, allow_nan=False)   # the record stays strict JSON

    def test_failed_checks_are_kept_verbatim(self):
        run = bench_pairs.parse_output(_output(
            correct=False, checks=["association accuracy 0.000 is below 0.5"]))
        assert run["correct"] is False
        assert run["check_failed"] == [
            "CHECK FAILED: association accuracy 0.000 is below 0.5"]

    def test_no_result_line_is_incorrect(self):
        run = bench_pairs.parse_output("Traceback (most recent call last):\n")
        assert run["correct"] is False and run["attempted"] == 0
        assert run["metrics"] == {} and run["accuracy"] == {} and run["env"] is None


def test_summary_lists_each_sides_accuracy_by_pair():
    runs = []
    for pair in range(2):
        for side, acc in (("parent", 0.9 + pair / 100), ("change", 0.95)):
            run = bench_pairs.parse_output(_output(accuracy=str(acc)))
            runs.append({"workload": "track_desk", "pair": pair, "seed": pair + 1,
                         "side": side, **run})
    spec = [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]
    summary = bench_pairs.summarize(runs, spec)["track_desk"]
    assert summary["parent"]["assoc_accuracy"] == [0.9, 0.91]
    assert summary["change"]["assoc_accuracy"] == [0.95, 0.95]
    assert summary["change"]["id_switches"] == [95.0, 95.0]
    assert summary["ops_per_s"]["verdict"] == "no regression"

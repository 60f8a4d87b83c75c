#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and record
every run.

For each workload, pair i runs ``perfbench/run.py`` at seed i + 1 and
its default length once in the parent checkout and once in the change
checkout, one after the other; even pairs start with the parent, odd
pairs with the change. Runs go one at a time.
The record holds both checkouts' git shas and source trees; every
run's ``# env`` line, metrics, ``correct`` value, failed operations and
the accuracy it reports (``assoc_accuracy`` and ``id_switches``, null
when undefined); per workload, each side's accuracies pair by pair; and,
per workload and end-to-end metric (as ``BENCHMARK.json`` in the change
checkout lists them), each side's median and quartiles, the pairs each
side won and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the
  parent's interquartile distance;
- ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
- ``unresolved``: either side's interquartile distance is wider than
  the bound, and not every change run beats every parent run;
- ``no regression`` otherwise.

Make the parent checkout with ``git clone`` and check out the parent
commit in it, then run from the repository root:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --out BENCH_13.json
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("track_desk", "train_desk")
# report lines a run prints as ``  <name> <value> <unit>``: the accuracy
# next to which each speed is read
ACCURACY = ("assoc_accuracy", "id_switches")
# a run's set-up, measured seconds and checks take about a minute at the
# default 45 s; one that outlasts this hangs
RUN_TIMEOUT_S = 1200


def git(checkout: Path, *args: str, env: dict | None = None) -> str | None:
    out = subprocess.run(["git", *args], cwd=checkout, env=env,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def identify(checkout: Path) -> dict:
    """The checkout's commit, whether its files differ from it, and the
    git tree id of ``src/`` as it is on disk: once those files are
    committed, ``git rev-parse <commit>:src`` gives the same id. The tree
    is built in a temporary index, so the checkout's own is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git(checkout, "add", "-A", "src", env=env)
        src_tree = git(checkout, "write-tree", "--prefix=src/", env=env)
    return {"sha": git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(git(checkout, "status", "--porcelain")),
            "src_tree": src_tree}


def parse_output(stdout: str) -> dict:
    """A ``perfbench/run.py`` run's result line, ``# env`` line, accuracy
    report lines and ``CHECK FAILED`` lines. Output with no result line
    counts as incorrect, with no operation attempted."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    accuracy = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] in ACCURACY:
            value = float(parts[1])
            accuracy[parts[0]] = value if math.isfinite(value) else None
    return {
        "env": env,
        "correct": bool(result.get("correct")),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "accuracy": accuracy,
        "check_failed": [line.strip() for line in lines
                         if line.strip().startswith("CHECK FAILED")],
    }


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run: its exit code, wall time and parsed
    output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        stdout, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired:
        stdout, code = "", None
    return {"exit": code, "wall_s": time.perf_counter() - t0,
            **parse_output(stdout)}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v, "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Both sides' spread, the pairs each won and the verdict on one
    metric; ``parent[i]`` and ``change[i]`` are pair i's runs."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    ps, cs = spread(parent), spread(change)
    gain = sign * (cs["median"] - ps["median"])
    base = abs(ps["median"])
    gain_frac = gain / base if base else 0.0
    wins = sum(g > 0 for g in gains)
    if wins >= 0.9 * len(gains) and gain > ps["iqr"]:
        verdict = "gain"
    elif -gain_frac > bound:
        verdict = "regression"
    elif (max(ps["iqr"], cs["iqr"]) > bound * base
          and not min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {"better": better, "bound": bound, "parent": ps, "change": cs,
            "change_wins": wins, "parent_wins": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "median_gain_frac": gain_frac, "verdict": verdict}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for wl in WORKLOADS:
        by_side = {side: sorted((r for r in runs
                                 if r["workload"] == wl and r["side"] == side),
                                key=lambda r: r["pair"])
                   for side in SIDES}
        summary = {side: {"runs": len(rs),
                          "incorrect_runs": [r["seed"] for r in rs if not r["correct"]],
                          "attempted": sum(r["attempted"] for r in rs),
                          "failed": sum(r["failed"] for r in rs),
                          **{name: [r["accuracy"].get(name) for r in rs]
                             for name in ACCURACY}}
                   for side, rs in by_side.items()}
        for metric in end_to_end:
            name = metric["name"]
            values = {side: [r["metrics"].get(name, float("nan")) for r in rs]
                      for side, rs in by_side.items()}
            summary[name] = compare(values["parent"], values["change"],
                                    metric["better"], metric["bound"])
        out[wl] = summary
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description=" ".join(__doc__.split("\n\n")[0].split()))
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    record = {
        "checkouts": {side: identify(path) for side, path in checkouts.items()},
        "pairs": args.pairs, "workloads": list(WORKLOADS),
        "order": "pair i runs the parent first when i is even, else the change",
        "runs": [],
    }
    for wl in WORKLOADS:
        for pair in range(args.pairs):
            seed = pair + 1
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], wl, seed)
                record["runs"].append({"workload": wl, "pair": pair, "seed": seed,
                                       "side": side, **run})
                print(f"{wl} pair {pair} seed {seed} {side}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']} "
                      f"{json.dumps(run['metrics'])} {json.dumps(run['accuracy'])}",
                      flush=True)
                for line in run["check_failed"]:
                    print(f"  {line}", flush=True)
            # the record so far, so an interrupted run keeps its pairs
            record["summary"] = summarize(record["runs"], spec["end_to_end"])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    for wl, summary in record["summary"].items():
        for name, cmp in summary.items():
            if isinstance(cmp, dict) and "verdict" in cmp:
                print(f"{wl} {name}: parent {cmp['parent']['median']:.4g} "
                      f"change {cmp['change']['median']:.4g} "
                      f"(gain {cmp['median_gain_frac']:+.1%}), change won "
                      f"{cmp['change_wins']}/{args.pairs}: {cmp['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

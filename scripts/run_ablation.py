#!/usr/bin/env python3
"""Run the cue-ablation benchmark: the training arms of ``bench.ARMS`` on
shared data.

Prints one row per arm with pooled association accuracy and id switches,
then the margin of the full arm over each other arm.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuetrack import bench
from cuetrack.metrics import format_accuracy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=bench.EPOCHS)
    parser.add_argument("--out", default=None, help="optional CSV for arm results")
    args = parser.parse_args()

    print("generating benchmark data "
          f"({bench.NUM_TRAIN_SEQUENCES} train / {bench.NUM_TEST_SEQUENCES} test sequences)...")
    train_set, test_set = bench.benchmark_data()

    results = {}
    for name in bench.ARMS:
        t0 = time.time()
        arm = bench.run_arm(name, train_set, test_set, epochs=args.epochs)
        results[name] = arm.report
        r = arm.report
        acc = format_accuracy(r.association_accuracy, ".4f")
        print(f"{name:9s} accuracy={acc} "
              f"switches={r.id_switches:4d} tracks={r.track_count} "
              f"({time.time() - t0:.0f}s)")

    full = results["full"].association_accuracy
    print()
    for name, r in results.items():
        if name != "full":
            print(f"full - {name:8s} = "
                  f"{format_accuracy(full - r.association_accuracy, '+.4f')}")

    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["arm", "association_accuracy", "id_switches",
                        "track_count", "gt_count"])
            for name, r in results.items():
                w.writerow([name, format_accuracy(r.association_accuracy),
                            r.id_switches, r.track_count, r.gt_count])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""cuetrack benchmark: online tracking and end-to-end training.

Run from the repository root:

    python3 perfbench/run.py --workload track_desk --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 2

One workload runs in this process; ``all`` runs every workload, each in a
process of its own, and prints a summary. ``--trace 1`` adds spans at the
layer boundaries and reports per-layer metrics instead of end-to-end ones.
The last line of the output is one JSON object: ``correct``, ``attempted``,
``failed`` (frames or training pairs) and ``metrics`` (name -> value, unit).
The run's environment, every reported number and, when traced, the spans
are written to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("track_desk", "train_desk")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One run may take its set-up, the measured seconds, one more repetition
# and the final checks; ``all`` gives up on a workload after this long.
RUN_TIMEOUT_S = 900


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str | None:
    """The checkout's commit, or None where the checkout is not a git
    repository of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def blas_info() -> dict:
    """OpenBLAS version from numpy's build record and the thread count the
    loaded library reports."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": None}
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            **blas_info(),
            "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def run_workload(args: argparse.Namespace) -> int:
    import gc

    import layers
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    setups = workloads.SETUP_REPEATS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    workdir = OUT_DIR / f"work-{os.getpid()}"
    problems: list[str] = []
    setup_times: list[float] = []
    keys: set[str] = set()

    def set_up():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed, str(workdir))
        setup_times.append(time.perf_counter() - t0)
        keys.add(inputs.key)
        problems.extend(inputs.problems)
        return inputs

    try:
        if tracer:
            tracer.install(layers.TARGETS, layers.NODE_CLASS)
            with tracer.span("phase.setup") as setup_rec:
                for _ in range(setups):
                    inputs = None
                    inputs = set_up()
        else:
            inputs = set_up()
        gc.collect()
        if tracer:
            # the same loop untraced, then traced: their ratio is the
            # tracing overhead
            tracer.uninstall()
            base = wl.measure(inputs, args.seconds / 2)
            gc.collect()
            tracer.install(layers.TARGETS, layers.NODE_CLASS)
            with tracer.span("phase.measure") as measure_rec:
                m = wl.measure(inputs, args.seconds / 2)
        else:
            # The other set-ups run between repetitions, spread over the
            # measured seconds: the machine's slow spells last seconds to
            # a minute, and setup_s keeps the fastest set-up. Peak memory
            # is read before the first of them, whose inputs would
            # otherwise sit on top of the measured ones.
            start = time.perf_counter()
            marks = [args.seconds * i / setups for i in range(1, setups)]
            peaks: list[float] = []

            def between() -> None:
                if marks and time.perf_counter() - start >= marks[0]:
                    marks.pop(0)
                    peaks.append(peak_rss_mb())
                    set_up()

            m = wl.measure(inputs, args.seconds, between)
            peaks.append(peak_rss_mb())
            for _ in marks:
                set_up()
        if len(keys) != 1:
            problems.append("repeated set-ups gave different inputs or models")
        wl.finish(inputs, m)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        values = layers.per_layer(tracer, len(setup_times), setup_rec, measure_rec,
                                  m.ops, _ms_per_op(m), _ms_per_op(base))
        metrics = {k: (values[k], unit) for k, unit in layers.PER_LAYER.items()}
        m.failed += base.failed
        m.ops += base.ops
        m.problems += base.problems
    else:
        metrics = {
            "setup_s": (min(setup_times), "s"),
            "peak_rss_mb": (peaks[0], "MB"),
            "ops_per_s": (m.ops_per_s, "1/s"),
            "op_ms_p50": (m.op_ms_p50, "ms"),
            "op_ms_p99": (m.op_ms_p99, "ms"),
        }
    problems += m.problems
    m.report["failed_frac"] = (m.failed / m.ops if m.ops else 0.0, "ratio")
    correct = not problems and m.failed == 0 and m.ops > 0

    env = environment(args)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: one op is one {wl.op}")
    for name, (value, unit) in {**metrics, **m.report}.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if tracer and tracer.missing:
        print(f"  unwrapped: {sorted(tracer.missing)}")
    print("# env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "setup_s_each": setup_times, "problems": problems,
              "metrics": metrics, "report": m.report}
    if tracer:
        record["spans"] = tracer.spans
        record["unwrapped"] = sorted(tracer.missing)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": m.ops, "failed": m.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ms_per_op(m) -> float:
    return 1000.0 / m.ops_per_s if m.ops_per_s else 0.0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so no workload's data is on the
    heap while another is measured."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {RUN_TIMEOUT_S} s")
            results[name] = None
            continue
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cuetrack" / "__init__.py").is_file():
        print(f"error: no cuetrack sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cuetrack
    if Path(cuetrack.__file__).resolve().parent != (SRC / "cuetrack").resolve():
        print(f"error: cuetrack imported from {cuetrack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

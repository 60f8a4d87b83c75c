"""The benchmark's workloads: set-up, measured loop and output checks.

Every workload calls only public functions of ``cuetrack`` and feeds them
inputs generated from the run's seed with ``bench.benchmark_scene`` (about
9.4 detections per frame, 24 frames per sequence).

- ``track_desk``: online tracking, one closed-loop stream in which each
  frame waits for the one before it, with a desk-size model (d=32).
- ``train_desk``: SGD through ``training.train`` at the desk size.

On the shared 2-CPU virtual machine this benchmark was first measured
on, each CPU switches between a fast state and one about 1.4 times
slower, in CPU time as well as wall time, for spells from a fraction of a
second to a minute or more. So each measured segment repeats one fixed
unit of work (a pass over the test sequences, a training schedule) many
times, cuts it into pieces of tens of milliseconds (a frame, a pair) and
keeps the fastest repetition of each piece.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from cuetrack import autodiff, bench, metrics, simulator, tracker, training
from cuetrack.model import AssocModel, ModelConfig
from cuetrack.simulator import FrameSample

IMAGE_H, IMAGE_W = bench.IMAGE_H, bench.IMAGE_W

# Training samples one pair per sequence per epoch, so a schedule is
# TRAIN_SEQUENCES * TRAIN_EPOCHS pairs in
# TRAIN_EPOCHS * ceil(TRAIN_SEQUENCES / BATCH_PAIRS) steps.
TRAIN_SEQUENCES = 16
TRAIN_EPOCHS = 1
BATCH_PAIRS = 8
# The tracked model is trained on these fixed sequences, so every seed
# tracks with the same model: a model that starts more tracks keeps a
# larger memory, and each frame's cost grows with it. The seed picks the
# sequences that are tracked.
TRACK_MODEL_DATA_SEED = bench.TRAIN_SEED
TEST_SEQUENCES = 3
HELD_OUT_SEQUENCES = 1
# Set-ups per run; setup_s keeps the fastest. A set-up of track_desk
# trains a model in a child process and takes about 2 s, one of
# train_desk about 0.4 s, so train_desk can afford more within a run.
SETUP_REPEATS = {"track_desk": 5, "train_desk": 9}
# The child process that trains the tracked model takes about 1.5 s.
CHILD_TIMEOUT_S = 120
# Least repetitions of a unit of work in one measured segment. Fourteen
# passes over the 72 test frames time 1008 frames, so ten lie beyond the
# 99th percentile.
MIN_PASSES = 14
MIN_SCHEDULES = 3
MODEL_SEED = bench.MODEL_SEED
OPT_SEED = bench.OPT_SEED
# A tracker whose pooled association accuracy falls below this is broken,
# not slow: the desk model after its short schedule scores about 0.9.
MIN_ACCURACY = 0.5


def desk_config() -> ModelConfig:
    return ModelConfig(descriptor_dim=32, semantic_dim=16, appearance_dim=16,
                       seed=MODEL_SEED)


def train_config() -> training.TrainConfig:
    return training.TrainConfig(epochs=TRAIN_EPOCHS, batch_pairs=BATCH_PAIRS,
                                seed=OPT_SEED)


def expected_steps() -> int:
    return TRAIN_EPOCHS * math.ceil(TRAIN_SEQUENCES / BATCH_PAIRS)


def generate(base: int, count: int) -> list[list[FrameSample]]:
    """``count`` sequences with seeds ``base`` .. ``base + count - 1``."""
    return simulator.generate_dataset(bench.benchmark_scene(base), count, base)


def seed_base(seed: int, offset: int) -> int:
    """Distinct run seeds and offsets never share a sequence seed."""
    return seed * 1000 + offset


def fingerprint(sequences: list[list[FrameSample]]) -> tuple:
    return tuple((f.time_s, tuple((tuple(d.box.as_list()), d.score)
                                  for d in f.detections))
                 for seq in sequences for f in seq)


def digest(*parts) -> str:
    """Identifies a set-up's result, so repeated set-ups can be compared."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def on_disk(sequences: list[list[FrameSample]], data_dir: str,
            problems: list[str]) -> list[list[FrameSample]]:
    """Write the sequences as JSONL and read them back, as the CLI does."""
    simulator.write_dataset(sequences, data_dir)
    read_back = simulator.read_dataset(data_dir)
    if fingerprint(read_back) != fingerprint(sequences):
        problems.append("read_dataset does not return what write_dataset wrote")
    return read_back


def checkpoint_round_trip(store: autodiff.ParameterStore, path: str,
                          problems: list[str]) -> tuple[autodiff.ParameterStore, bytes]:
    """Save and load the parameters, as ``cuetrack train`` and ``track`` do;
    the f32 checkpoint must give back every parameter rounded to f32."""
    autodiff.save_checkpoint(store, path)
    loaded = autodiff.load_checkpoint(path)
    if set(loaded.entries) != set(store.entries):
        problems.append("checkpoint round trip changed the parameter names")
    for name, arr in store.entries.items():
        got = loaded.entries.get(name)
        if got is None or (got != arr.astype("<f4")).any():
            problems.append(f"checkpoint round trip changed parameter {name}")
            break
    with open(path, "rb") as f:
        return loaded, f.read()


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


@dataclass
class Measurement:
    """What one measured segment saw. ``report`` holds the user-facing
    numbers under the names the write-up uses."""
    ops: int = 0
    failed: int = 0
    ops_per_s: float = 0.0
    op_ms_p50: float = 0.0
    op_ms_p99: float = 0.0
    problems: list[str] = field(default_factory=list)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    outputs: Any = None

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)


# -- tracking: the measured loop of track_desk, the final check of train_desk --

def check_frames(seq: list[FrameSample], rows: list[tuple]) -> list[int]:
    """Indices of frames whose output breaks the tracker's contract: each
    detection gets exactly one id, no id repeats within a frame, and the
    frame has as many rows as detections."""
    by_frame: dict[int, list[tuple]] = {}
    for row in rows:
        by_frame.setdefault(row[0], []).append(row)
    bad = []
    for i, f in enumerate(seq):
        got = by_frame.pop(i, [])
        ids = [r[1] for r in got]
        want = Counter((tuple(d.box.as_list()), d.score) for d in f.detections)
        have = Counter((tuple(r[2].as_list()), r[3]) for r in got)
        if len(got) != len(f.detections) or len(set(ids)) != len(ids) or want != have:
            bad.append(i)
    bad += list(by_frame)  # rows for frames that do not exist
    return bad


def row_key(rows: list[tuple]) -> list[tuple]:
    return [(f, tid, tuple(box.as_list()), score, cid)
            for f, tid, box, score, cid in rows]


def pooled_accuracy(sequences: list[list[FrameSample]],
                    rows_per_seq: list[list[tuple]]) -> metrics.EvalReport:
    """Concatenate sequences with frame offsets and per-sequence id
    suffixes, so identities never collide, and score them together."""
    pred: list[tuple] = []
    gt_frames: list[FrameSample] = []
    offset = 0
    for k, (seq, rows) in enumerate(zip(sequences, rows_per_seq)):
        pred += [(f + offset, f"{tid}_{k}", box, score, cid)
                 for f, tid, box, score, cid in rows]
        gt_frames += [FrameSample(frame_id=f.frame_id + offset, time_s=f.time_s,
                                  detections=f.detections,
                                  gt=[(f"{g}_{k}", b, c) for g, b, c in f.gt or []])
                      for f in seq]
        offset += len(seq)
    return metrics.association_accuracy(pred, gt_frames)


def track_once(asm: AssocModel, seq: list[FrameSample], m: Measurement,
               k: int) -> tuple[list[tuple], list[float]] | None:
    """Track one sequence frame by frame and check its rows. A frame's
    latency runs from the moment ``track_sequence`` asks for it to the
    moment it asks for the next one, or returns."""
    pulls: list[float] = []

    def frames():
        for f in seq:
            pulls.append(time.perf_counter())
            yield f.time_s, f.detections

    m.ops += len(seq)
    try:
        rows = tracker.track_sequence(frames(), asm, tracker.TrackerConfig(),
                                      IMAGE_H, IMAGE_W)
    except Exception:
        m.fail(len(seq), f"sequence {k}: {traceback.format_exc(limit=3)}")
        return None
    pulls.append(time.perf_counter())
    lat = [1000.0 * (b - a) for a, b in zip(pulls, pulls[1:])]
    if len(lat) != len(seq) or max(lat) > 0.5 * sum(lat):
        m.fail(len(seq), f"sequence {k}: track_sequence did not take frames "
                         "one at a time")
        return None
    bad = check_frames(seq, rows)
    if bad:
        m.fail(len(bad), f"sequence {k}: bad ids in frames {bad[:5]}")
    return rows, lat


def score_tracks(sequences: list[list[FrameSample]], rows: list[list[tuple]] | None,
                 m: Measurement) -> None:
    """Score the tracked ids against the ground truth."""
    if not rows or any(r is None for r in rows):
        m.problems.append("not every sequence was tracked")
        return
    rep = pooled_accuracy(sequences, rows)
    m.report["assoc_accuracy"] = (rep.association_accuracy, "ratio")
    m.report["id_switches"] = (rep.id_switches, "count")
    if not rep.association_accuracy >= MIN_ACCURACY:
        m.problems.append(f"association accuracy {rep.association_accuracy:.3f} "
                          f"is below {MIN_ACCURACY}")


# -- track_desk ---------------------------------------------------------------

@dataclass
class TrackInputs:
    test_set: list[list[FrameSample]]
    asm: AssocModel
    key: str
    problems: list[str]
    train_loss: float


def train_track_model(path: str) -> dict:
    """Train the tracked model on the short schedule and save it at
    ``path``. Runs in a child process of ``setup_track``."""
    problems: list[str] = []
    trained = AssocModel(desk_config())
    history = training.train(generate(TRACK_MODEL_DATA_SEED, TRAIN_SEQUENCES),
                             train_config(), trained, IMAGE_H, IMAGE_W)
    problems += check_history(history)
    checkpoint_round_trip(trained.store, path, problems)
    return {"problems": problems,
            "train_loss": history[-1][2] if history else float("nan")}


def setup_track(seed: int, workdir: str) -> TrackInputs:
    """Train the desk model in a child process that writes its checkpoint,
    as ``cuetrack train`` runs apart from ``cuetrack track``, so training
    sets neither this process's heap nor its peak memory. Then take the
    on-disk path of ``cuetrack track``: JSONL data written and read back,
    and the checkpoint loaded."""
    problems: list[str] = []
    ckpt_path = os.path.join(workdir, "model.ckpt")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(autodiff.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run([sys.executable, os.path.abspath(__file__), ckpt_path],
                           env=env, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"training the tracked model failed:\n{child.stderr}")
    trained = json.loads(lines[-1])
    problems += trained["problems"]
    test_set = on_disk(generate(seed_base(seed, 500), TEST_SEQUENCES),
                       os.path.join(workdir, "data"), problems)
    asm = AssocModel(desk_config(), store=autodiff.load_checkpoint(ckpt_path))
    with open(ckpt_path, "rb") as f:
        key = digest(fingerprint(test_set), f.read())
    return TrackInputs(test_set, asm, key, problems, trained["train_loss"])


def measure_track(inputs: TrackInputs, seconds: float,
                  between: Callable[[], None] = lambda: None) -> Measurement:
    """Track the whole test set again and again until ``seconds`` pass,
    at least ``MIN_PASSES`` times, calling ``between`` after each pass.
    Each frame's fastest latency over the passes gives ``op_ms_p50``
    (their median) and ``ops_per_s`` (frames over their sum). A slow
    spell of the machine rarely covers every pass of a frame, but it
    covers part of nearly every multi-second pass, so the fastest whole
    pass would still vary by a tenth from run to run. ``op_ms_p99`` uses
    every latency as measured: the garbage collector's generation-2
    pauses land on different frames in each pass, so each frame's
    fastest latency leaves them out."""
    m = Measurement()
    n = len(inputs.test_set)
    first: list[list[tuple] | None] = [None] * n
    lat_ms: list[list[list[float]]] = [[] for _ in range(n)]
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        passes += 1
        for k, seq in enumerate(inputs.test_set):
            got = track_once(inputs.asm, seq, m, k)
            if got is None:
                continue
            rows, lat = got
            lat_ms[k].append(lat)
            if first[k] is None:
                first[k] = rows
            elif row_key(first[k]) != row_key(rows):
                m.fail(len(seq), f"sequence {k}: ids differ between passes")
        between()
    m.outputs = first
    if m.failed:
        return m
    best = [min(per_pass) for lats in lat_ms for per_pass in zip(*lats)]
    every = [v for lats in lat_ms for lat in lats for v in lat]
    m.op_ms_p50 = statistics.median(best)
    m.ops_per_s = 1000.0 * len(best) / sum(best)
    m.op_ms_p99 = p99(every)
    m.report.update({
        "track_frame_ms_p50": (m.op_ms_p50, "ms"),
        "track_frame_ms_p99": (m.op_ms_p99, "ms"),
        "track_frames_per_s": (m.ops_per_s, "1/s"),
        "track_frames_timed": (len(every), "count"),
        "track_frames_beyond_p99": (sum(v > m.op_ms_p99 for v in every), "count"),
        "track_passes": (passes, "count"),
    })
    return m


def finish_track(inputs: TrackInputs, m: Measurement) -> None:
    score_tracks(inputs.test_set, m.outputs, m)
    m.report["setup_train_loss_final"] = (inputs.train_loss, "nll")


# -- train_desk ----------------------------------------------------------------

@dataclass
class TrainInputs:
    dataset: list[list[FrameSample]]
    held_out: list[list[FrameSample]]
    model_config: ModelConfig
    workdir: str
    key: str
    problems: list[str]


def setup_train(model_config: ModelConfig) -> Callable[[int, str], TrainInputs]:
    def setup(seed: int, workdir: str) -> TrainInputs:
        """Generate the training sequences, as ``bench.run_arm`` trains on
        them, and the held-out sequence, read back from JSONL as ``cuetrack
        track`` takes it; initialise the model's parameters.

        The training sequences stay in memory: ``read_sequence`` turns a
        frame's empty ground-truth list into None, and ``train`` then
        rejects the frame, so data read back from JSONL fails to train on
        some seeds.
        """
        problems: list[str] = []
        dataset = generate(seed_base(seed, 0), TRAIN_SEQUENCES)
        held_out = on_disk(generate(seed_base(seed, 500), HELD_OUT_SEQUENCES),
                           os.path.join(workdir, "data"), problems)
        AssocModel(model_config)  # parameter initialisation, as a user pays it
        return TrainInputs(dataset, held_out, model_config, workdir,
                           digest(fingerprint(dataset), fingerprint(held_out)),
                           problems)
    return setup


def check_history(history: list[tuple[int, int, float]]) -> list[str]:
    problems = []
    if len(history) != expected_steps():
        problems.append(f"{len(history)} training steps, schedule has {expected_steps()}")
    if not all(math.isfinite(loss) for _, _, loss in history):
        problems.append("non-finite training loss")
    return problems


@contextmanager
def pair_ticks(ticks: list[float]):
    """Append a timestamp to ``ticks`` as each pair's forward pass starts.

    This is the untraced run's only hook, one call per pair. The ticks cut
    a schedule into one piece of identical work per pair, so that each
    piece's fastest repetition can be kept, as for the tracker's frames.
    """
    original = vars(AssocModel)["forward_pair"]

    def forward_pair(self, *args, **kwargs):
        ticks.append(time.perf_counter())
        return original(self, *args, **kwargs)

    AssocModel.forward_pair = forward_pair
    try:
        yield
    finally:
        AssocModel.forward_pair = original


def measure_train(inputs: TrainInputs, seconds: float,
                  between: Callable[[], None] = lambda: None) -> Measurement:
    """Train a fresh model on the fixed schedule again and again until
    ``seconds`` pass, at least ``MIN_SCHEDULES`` times, calling
    ``between`` after each. Every repetition
    must give the same loss history.

    The ticks cut each repetition into pieces, one per pair: from one
    pair's forward pass to the next, the first piece from the call to
    ``train`` and the last to its return, so a step's parameter update
    falls into the piece of its last pair. Each piece's fastest repetition
    gives ``op_ms_p50`` (their median) and ``ops_per_s`` (pairs over
    their sum); ``op_ms_p99`` uses every piece of every repetition, so
    garbage-collector pauses and parameter updates reach it."""
    m = Measurement()
    pairs = TRAIN_SEQUENCES * TRAIN_EPOCHS
    first = None
    pieces: list[list[float]] = []
    reps = 0
    deadline = time.perf_counter() + seconds
    while reps < MIN_SCHEDULES or time.perf_counter() < deadline:
        reps += 1
        asm = AssocModel(inputs.model_config)
        m.ops += pairs
        ticks = [time.perf_counter()]
        try:
            with pair_ticks(ticks):
                history = training.train(inputs.dataset, train_config(), asm,
                                         IMAGE_H, IMAGE_W)
        except Exception:
            m.fail(pairs, traceback.format_exc(limit=3))
            continue
        ticks.append(time.perf_counter())
        problems = check_history(history)
        if first is None:
            first, m.outputs = history, asm
        elif history != first:
            problems.append("loss history differs between repetitions")
        if pieces and len(ticks) - 1 != len(pieces[0]):
            problems.append("the number of forward passes differs between "
                            "repetitions")
        if problems:
            m.fail(pairs, "; ".join(problems))
            continue
        pieces.append([b - a for a, b in zip(ticks, ticks[1:])])
        between()
    m.report["train_schedules"] = (reps, "count")
    if m.failed or not pieces:
        return m
    best = [min(per_rep) for per_rep in zip(*pieces)]
    m.ops_per_s = pairs / sum(best)
    m.op_ms_p50 = 1000.0 * statistics.median(best)
    m.op_ms_p99 = p99([1000.0 * v for rep in pieces for v in rep])
    m.report.update({
        "train_pairs_per_s": (m.ops_per_s, "1/s"),
        "train_pair_ms_p50": (m.op_ms_p50, "ms"),
        "train_pairs_timed": (len(pieces) * pairs, "count"),
        "train_loss_final": (first[-1][2], "nll"),
        "train_steps": (len(first), "count"),
    })
    return m


def finish_train(inputs: TrainInputs, m: Measurement) -> None:
    """Save the first trained model and load it back, as ``cuetrack train``
    and ``track`` do, then track the held-out sequence with it."""
    if m.outputs is None:
        m.problems.append("no training schedule finished")
        return
    store, _ = checkpoint_round_trip(m.outputs.store,
                                     os.path.join(inputs.workdir, "trained.ckpt"),
                                     m.problems)
    asm = AssocModel(inputs.model_config, store=store)
    check = Measurement()
    rows = [track_once(asm, seq, check, k) for k, seq in enumerate(inputs.held_out)]
    m.problems += check.problems
    score_tracks(inputs.held_out, [r and r[0] for r in rows], m)


@dataclass(frozen=True)
class Workload:
    op: str            # the unit of work: "frame" or "pair"
    setup: Callable[[int, str], Any]
    measure: Callable[..., Measurement]
    finish: Callable[[Any, Measurement], None]


WORKLOADS = {
    "track_desk": Workload("frame", setup_track, measure_track, finish_track),
    "train_desk": Workload("pair", setup_train(desk_config()), measure_train,
                           finish_train),
}


if __name__ == "__main__":
    print(json.dumps(train_track_model(sys.argv[1])))

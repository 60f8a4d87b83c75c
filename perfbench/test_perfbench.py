"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cuetrack import bench, simulator, tracker, training  # noqa: E402
from cuetrack.model import AssocModel  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # a child sticking out of its parent is clipped to the parent
    tree = [
        ["root", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 0],
        ["c", 2.0, 3.0, 1, 0, 0],
        ["b", 5.0, 9.0, 0, 0, 0],
        ["d", 8.0, 9.5, 3, 0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.5])


def test_totals_by_window_and_context():
    tracer = spans.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, 0, 40],
        ["f", 1.0, 2.0, 0, 5, 15],
        ["g", 1.2, 1.8, 1, 6, 10],
        ["f", 3.0, 5.0, 0, 15, 20],
        ["late", 11.0, 12.0, -1, 40, 41],
    ]
    w = spans.Totals(tracer, spans.within(tracer, tracer.spans[0]))
    assert w.calls == {"outer": 1, "f": 2, "g": 1}
    assert w.ms("f") == pytest.approx(3000.0)
    assert w.ms("f", "late") == pytest.approx(3000.0)
    assert w.self_s["outer"] == pytest.approx(7.0)
    assert w.self_ms("f") == pytest.approx(2400.0)
    assert w.nodes == {"outer": 40, "f": 15, "g": 4}
    assert spans.contexts(tracer.spans, {"f": "frame"}) == \
        [None, "frame", "frame", "frame", None]
    tracer.gc_events = [(0.5, 0.6, 0), (4.0, 4.5, 2), (10.5, 11.5, 2)]
    gc_s, gen2 = spans.gc_in(tracer, tracer.spans[0])
    assert gc_s == pytest.approx(0.6) and gen2 == 1


def _originals():
    found = {(id(t.owner), t.attr): vars(t.owner)[t.attr] for t in layers.TARGETS}
    found[(id(layers.NODE_CLASS), "__init__")] = vars(layers.NODE_CLASS)["__init__"]
    return found


def test_traced_run_restores_every_wrapped_object():
    before = _originals()
    scene = bench.benchmark_scene(7)
    data = simulator.generate_dataset(scene, 4, 7)
    tracer = spans.Tracer()
    tracer.install(layers.TARGETS, layers.NODE_CLASS)
    try:
        assert vars(tracker)["match_frame"] is not before[(id(tracker), "match_frame")]
        asm = AssocModel(workloads.desk_config())
        training.train(data, training.TrainConfig(epochs=1, batch_pairs=2, seed=1),
                       asm, bench.IMAGE_H, bench.IMAGE_W)
        tracker.track_sequence([(f.time_s, f.detections) for f in data[0][:4]], asm,
                               tracker.TrackerConfig(), bench.IMAGE_H, bench.IMAGE_W)
    finally:
        tracer.uninstall()
    assert _originals() == before
    assert all(vars(t.owner)[t.attr] is before[(id(t.owner), t.attr)]
               for t in layers.TARGETS)
    assert not tracer.missing
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"stog.l0", "stog.l3", "training.step", "tracker.match_frame",
            "matching.sinkhorn_log", "autodiff.backward"} <= names
    assert tracer.nodes > 0 and tracer.counts["tracker.dets"] > 0


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload's inputs so a run takes seconds."""
    for name, value in {"TRAIN_SEQUENCES": 8, "BATCH_PAIRS": 4, "TEST_SEQUENCES": 2,
                        "SETUP_REPEATS": dict.fromkeys(workloads.WORKLOADS, 2),
                        "MIN_PASSES": 2, "MIN_SCHEDULES": 2}.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    before = _originals()
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    assert _originals() == before  # the tracer's and the pair ticks' wrappers
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and code == 0
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    assert {"git_sha", "nproc", "python", "numpy", "blas_version", "blas_threads",
            "seed"} <= set(env) and env["seed"] == 3

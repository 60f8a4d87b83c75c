"""Acceptance gate: ten end-to-end checks covering gradient correctness,
transport-plan contracts, assignment agreement, box normalization, the
detection threshold rule, ablation orderings on the shared benchmark,
detection-channel training gains, tracker memory behavior, attention
equivariance and the motion-analysis pipeline.

Each test prints one PASS/FAIL line. The benchmark arms (criteria 6 and 7)
train four models on the shared scene, and one more test pins their
reports; everything else is fast.
"""
import contextlib
import hashlib
import os
import time

import numpy as np
import pytest

from cuetrack import bench
from cuetrack.autodiff import (ParameterStore, add, concat_cols, concat_rows,
                               constant, fill, grad_check, linear_gn_relu,
                               matmul, mean_rows, mul, multihead_attention,
                               scale, total, transpose)
from cuetrack.cli import main as cli_main
from cuetrack.geometry import Box, normalize_box
from cuetrack.heads import head_forward, init_head, mlp_head_spec
from cuetrack.matching import (association_loss, hungarian, sinkhorn,
                               uniform_dustbin_marginals)
from cuetrack.metrics import EvalReport, class_motion_report, kde
from cuetrack.model import AssocModel, ModelConfig
from cuetrack.simulator import (AbsenceWindow, ClassProfile, NoiseConfig,
                                SceneConfig, generate)
from cuetrack.stog import init_stog, stog_forward
from cuetrack.tracker import TrackerConfig, dynamic_threshold, track_sequence
from cuetrack.training import TrainConfig, train

from reference_ops import (exp, group_norm, logsumexp_cols, logsumexp_rows,
                           relu, slice_cols, softmax_rows)


@contextlib.contextmanager
def verdict(label):
    # the conftest hook re-emits one [label] PASS/FAIL line per test
    # outside pytest's output capture
    try:
        yield
    except BaseException:
        print(f"\n[{label}] FAIL")
        raise
    print(f"\n[{label}] PASS")


@pytest.fixture(scope="module")
def benchmark_arms():
    train_set, test_set = bench.benchmark_data()
    return {name: bench.run_arm(name, train_set, test_set)
            for name in bench.ARMS}


def test_01_gradient_correctness():
    """Every differentiable primitive, the two fused nodes, every cue head,
    one attention layer and the complete pipeline pass a central-difference
    gradient check (h = 1e-5) with max relative error < 1e-4, in under 30 s."""
    with verdict("criterion 1: gradient correctness"):
        t0 = time.time()
        rng = np.random.default_rng(6)
        worst = 0.0

        # -- primitives -------------------------------------------------
        def check(build, names=None):
            nonlocal worst
            store = ParameterStore(seed=1)
            fn = build(store)
            worst = max(worst, grad_check(fn, store, h=1e-5,
                                          param_names=names))

        c34 = constant(rng.normal(size=(3, 4)))
        c43 = constant(rng.normal(size=(4, 3)))
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: add(lv["a"], c34))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: mul(lv["a"], c34))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: scale(lv["a"], -1.7))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: matmul(lv["a"], c43))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: transpose(lv["a"]))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: relu(add(lv["a"], constant(0.3 * np.ones((3, 4))))))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: exp(lv["a"]))[1])
        w34 = constant(rng.normal(size=(3, 4)))
        # softmax rows sum to one, so weight the cells to get a
        # non-degenerate objective
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: mul(softmax_rows(lv["a"]), w34))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: logsumexp_rows(lv["a"]))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: logsumexp_cols(lv["a"]))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: concat_cols([lv["a"], c34]))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: concat_rows([lv["a"], c34]))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: slice_cols(lv["a"], 1, 3))[1])
        check(lambda s: (s.create("a", (1, 1)),
                         lambda lv: fill((3, 4), lv["a"]))[1])
        check(lambda s: (s.create("a", (3, 4)),
                         lambda lv: mean_rows(lv["a"]))[1])
        w38 = constant(rng.normal(size=(3, 8)))
        # normalized groups sum to zero per row, so weight the cells here too
        check(lambda s: (s.create("x", (3, 8)), s.create("g", (1, 8), "ones"),
                         s.create("b", (1, 8), "zeros"),
                         lambda lv: mul(group_norm(lv["x"], lv["g"], lv["b"],
                                                   num_groups=4), w38))[3])

        # -- the fused nodes ------------------------------------------------
        check(lambda s: ([s.create(n, (4, 4)) for n in ("q", "k", "v", "o")],
                         s.create("x", (3, 4)), s.create("y", (2, 4)),
                         lambda lv: multihead_attention(
                             lv["x"], lv["y"], lv["q"], lv["k"], lv["v"],
                             lv["o"], 2))[3])
        # its own generator, so the checks below keep their inputs
        w316 = constant(np.random.default_rng(16).normal(size=(3, 16)))
        check(lambda s: (s.create("x", (3, 6)), s.create("w", (6, 16)),
                         s.create("b", (1, 16)),
                         s.create("g", (1, 16), "ones"),
                         s.create("t", (1, 16), "zeros"),
                         lambda lv: mul(linear_gn_relu(lv["x"], lv["w"], lv["b"],
                                                       lv["g"], lv["t"]),
                                        w316))[5])

        # -- every cue head ----------------------------------------------
        for name, in_w in (("sem", 6), ("loc", 4), ("app", 6)):
            spec = mlp_head_spec(name, in_w, 6, 5, 4)
            store = ParameterStore(seed=2)
            init_head(spec, store)
            x = constant(rng.normal(size=(4, in_w)))
            worst = max(worst, grad_check(
                lambda lv, spec=spec, x=x: head_forward(spec, lv, x),
                store, h=1e-5))

        # -- one full attention layer --------------------------------------
        scfg = ModelConfig(descriptor_dim=4, num_layers=1, num_heads=2,
                           refine_widths=(8, 4))
        store = ParameterStore(seed=3)
        init_stog(scfg, store)
        xk = constant(rng.normal(size=(3, 4)))
        xr = constant(rng.normal(size=(2, 4)))
        worst = max(worst, grad_check(
            lambda lv: add(total(stog_forward(xk, xr, scfg, lv)[0]),
                           total(stog_forward(xk, xr, scfg, lv)[1])),
            store, h=1e-5))

        # -- complete pipeline: heads -> graph -> transport -> loss --------
        # seed chosen so every live gradient entry sits well above the
        # central-difference noise floor (~1e-11 for a loss of order 1);
        # near-zero gradients make the relative-error metric meaningless.
        asm = AssocModel(ModelConfig(descriptor_dim=4, semantic_dim=4,
                                     appearance_dim=4, head_hidden=4,
                                     num_layers=2, num_heads=2,
                                     refine_widths=(8, 4),
                                     sinkhorn_iters=20, seed=14))
        from cuetrack.simulator import Detection
        dets_a = [Detection(Box(60.0 * i + 10, 50, 60.0 * i + 60, 110),
                            0.9, rng.normal(size=4), rng.normal(size=4), 0)
                  for i in range(3)]
        dets_b = [Detection(Box(60.0 * i + 18, 55, 60.0 * i + 68, 115),
                            0.9, rng.normal(size=4), rng.normal(size=4), 0)
                  for i in range(2)]
        target = np.zeros((4, 3))
        target[0, 0] = target[1, 1] = 1.0
        target[2, 2] = 1.0  # unmatched key object -> dustbin column

        def pipeline(leaves):
            lp = asm.forward_pair(dets_a, dets_b, 600.0, 800.0,
                                  leaves=leaves)
            return association_loss(lp, target)

        worst = max(worst, grad_check(pipeline, asm.store, h=1e-5))
        elapsed = time.time() - t0
        print(f"\n  max relative error {worst:.3e}, {elapsed:.1f} s")
        assert worst < 1e-4
        assert elapsed < 30.0


def test_02_sinkhorn_marginal_contract():
    """100 random augmented matrices (up to 16x20, logits in [-3, 3]);
    all marginals met within 1e-6 after 100 iterations, under 5 s."""
    with verdict("criterion 2: sinkhorn marginal contract"):
        t0 = time.time()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 17))
            n = int(rng.integers(1, 21))
            logits = rng.uniform(-3.0, 3.0, size=(m + 1, n + 1))
            rows, cols = uniform_dustbin_marginals(m, n)
            plan = sinkhorn(logits, rows, cols, iters=100)
            worst = max(worst,
                        float(np.max(np.abs(plan.values.sum(axis=1) - rows))),
                        float(np.max(np.abs(plan.values.sum(axis=0) - cols))))
        elapsed = time.time() - t0
        print(f"\n  worst marginal deviation {worst:.3e}, {elapsed:.2f} s")
        assert worst < 1e-6
        assert elapsed < 5.0


def test_03_hungarian_agreement():
    """Transport-plan argmax equals the exact assignment on >= 99/100
    well-separated 8x8 instances; the solver matches brute force on
    50 random 6x6 instances exactly."""
    with verdict("criterion 3: assignment agreement"):
        hits = 0
        for t in range(100):
            rng = np.random.default_rng(1000 + t)
            n = 8
            scores = rng.normal(size=(n, n))
            perm = rng.permutation(n)
            # plant a per-row winner with best-vs-second margin >= 2
            for i in range(n):
                scores[i, perm[i]] = scores[i].max() + 2.0
            rows, cols = uniform_dustbin_marginals(n, n)
            aug = np.pad(scores, ((0, 1), (0, 1)), constant_values=0.0)
            plan = sinkhorn(aug, rows, cols, iters=100).real
            hung_pairs, _ = hungarian(-scores)
            plan_pairs = sorted((i, int(np.argmax(plan[i]))) for i in range(n))
            hits += plan_pairs == hung_pairs
        print(f"\n  plan/exact agreement {hits}/100")
        assert hits >= 99

        import itertools
        for t in range(50):
            rng = np.random.default_rng(2000 + t)
            cost = rng.normal(size=(6, 6))
            pairs, value = hungarian(cost)
            best = min(itertools.permutations(range(6)),
                       key=lambda p: sum(cost[i, j] for i, j in enumerate(p)))
            assert pairs == sorted(enumerate(best))
            assert abs(value - sum(cost[i, j] for i, j in enumerate(best))) < 1e-12


def test_04_box_normalization_spot_values():
    """normalize_box([500,500,600,600], 1000x1000) = (0, 0, 1/7, 1/7)
    exactly, and the output is invariant to scaling the scene."""
    with verdict("criterion 4: box normalization"):
        nb = normalize_box(Box(500, 500, 600, 600), 1000.0, 1000.0)
        expect = np.array([0.0, 0.0, 1.0 / 7.0, 1.0 / 7.0])
        assert np.max(np.abs(np.array(nb.as_list()) - expect)) <= 1e-12
        for k in (0.5, 2.0, 10.0):
            scaled = normalize_box(Box(500 * k, 500 * k, 600 * k, 600 * k),
                                   1000.0 * k, 1000.0 * k)
            assert np.max(np.abs(np.array(scaled.as_list()) - expect)) <= 1e-12


def test_05_dynamic_threshold():
    """dynamic_threshold(1000) = 0.001001 exactly."""
    with verdict("criterion 5: dynamic threshold"):
        assert dynamic_threshold(1000) == pytest.approx(0.001001, abs=1e-15)


def test_06_ablation_ordering(benchmark_arms):
    """On the shared 3-class lookalike benchmark the full cue set beats
    location-only and appearance-only by >= 0.03 each and reaches >= 0.90."""
    with verdict("criterion 6: ablation ordering"):
        full = benchmark_arms["full"].report.association_accuracy
        loc = benchmark_arms["loc_only"].report.association_accuracy
        app = benchmark_arms["app_only"].report.association_accuracy
        print(f"\n  full {full:.3f}, location-only {loc:.3f}, "
              f"appearance-only {app:.3f}")
        assert full >= 0.90
        assert full - loc >= 0.03
        assert full - app >= 0.03


def test_07_detection_channel_training_direction(benchmark_arms):
    """Training on the noisy detection channel beats training on sparse
    annotated boxes only (same seeds, same budget) by >= 0.02."""
    with verdict("criterion 7: detection-channel training"):
        dat = benchmark_arms["full"].report.association_accuracy
        gt = benchmark_arms["gt_only"].report.association_accuracy
        print(f"\n  detection-channel {dat:.3f}, annotation-only {gt:.3f}")
        assert dat > gt
        assert dat - gt >= 0.02


@pytest.mark.kernel_bound
def test_ablation_reports_pinned(benchmark_arms):
    """Each arm's full evaluation report is pinned: a refactor must leave
    the trained models, and so every count and accuracy, unchanged."""
    expect = {
        "full": EvalReport(0.9651795429815017, 95, 354, 94),
        "loc_only": EvalReport(0.20837867247007616, 1580, 3451, 94),
        "app_only": EvalReport(0.5038084874863983, 996, 342, 94),
        "gt_only": EvalReport(0.926550598476605, 173, 301, 94),
    }
    assert {name: arm.report for name, arm in benchmark_arms.items()} == expect


def _absence_run(gap_s):
    """Track a clean two-object scene where object 0 vanishes for gap_s
    seconds; returns (id before absence, id after reappearance)."""
    scene = SceneConfig(
        duration_s=24.0, fps=2.0,
        profiles=(ClassProfile(0, "linear", 6.0),),
        objects_per_class=2, semantic_dim=8, appearance_dim=8,
        noise=NoiseConfig(0.0, 0.0, 0.0, 0.0, 0.0),
        absence_windows=(AbsenceWindow(0, 4.0, gap_s),), seed=77)
    frames = generate(scene)
    train_scene = SceneConfig(
        duration_s=12.0, fps=2.0,
        profiles=(ClassProfile(0, "linear", 6.0),),
        objects_per_class=2, semantic_dim=8, appearance_dim=8,
        noise=NoiseConfig(0.0, 0.0, 0.0, 0.0, 0.0), seed=5)
    from cuetrack.simulator import generate_dataset
    data = generate_dataset(train_scene, 8, seed=5)
    asm = AssocModel(ModelConfig(descriptor_dim=8, semantic_dim=8,
                                 appearance_dim=8, head_hidden=16,
                                 num_layers=2, num_heads=2,
                                 refine_widths=(16, 8), sinkhorn_iters=40,
                                 seed=1))
    train(data, TrainConfig(epochs=4, batch_pairs=8, seed=2), asm, 600.0, 800.0)
    cfg = TrackerConfig(memo_length_s=10.0)
    rows = track_sequence([(f.time_s, f.detections) for f in frames],
                          asm, cfg, 600.0, 800.0)
    # map each frame's predicted id for object 0 through its GT box
    from cuetrack.geometry import iou
    gt_box = {f.frame_id: dict(
        (tid, box) for tid, box, _ in f.gt) for f in frames}
    id_before = id_after = None
    for frame, tid, box, _, _ in rows:
        boxes = gt_box[frame]
        if 0 not in boxes or iou(box, boxes[0]) < 0.5:
            continue
        t = frame * 0.5
        if t < 4.0:
            id_before = tid
        elif id_after is None and t >= 4.0 + gap_s:
            id_after = tid
    return id_before, id_after


def test_08_tracker_memory_and_determinism(tmp_path):
    """Absence beyond the 10 s memory creates a new id; a 5 s absence
    keeps the id. The CLI pipeline is byte-identical across two runs."""
    with verdict("criterion 8: tracker memory and determinism"):
        before, after = _absence_run(12.0)
        assert before is not None and after is not None
        assert after != before  # memory expired -> fresh id
        before, after = _absence_run(5.0)
        assert before is not None and after is not None
        assert after == before  # memory alive -> identity kept

        fast = ["--set", "scene.duration_s=6", "--set", "train.epochs=2",
                "--set", "model.descriptor_dim=8",
                "--set", "model.head_hidden=16",
                "--set", "model.num_layers=2", "--set", "model.num_heads=2",
                "--set", "model.refine_widths=[16,8]",
                "--set", "model.sinkhorn_iters=30"]
        outputs = []
        for run in ("a", "b"):
            base = tmp_path / run
            base.mkdir()
            data = str(base / "data")
            ckpt = str(base / "model.ckpt")
            res = str(base / "results.csv")
            assert cli_main(["simulate", "--out", data, "--seed", "3",
                             "--num-sequences", "3", *fast]) == 0
            assert cli_main(["train", "--data", data, "--out", ckpt,
                             "--seed", "3", *fast]) == 0
            assert cli_main(["track", "--ckpt", ckpt, "--data", data,
                             "--out", res, "--seed", "3", *fast]) == 0
            outputs.append(open(res, "rb").read())
        assert outputs[0] == outputs[1]
        base = tmp_path / "a"
        assert cli_main(["eval", "--pred", str(base / "results.csv"),
                         "--gt", str(base / "data"),
                         "--out", str(base / "report.csv")]) == 0
        # pinned: a refactor must leave every output of this pipeline
        # byte-identical
        pins = {
            "results.csv": "226190ca0b6f19bca694f49aff908c6a"
                           "d6b6b6e8a76921bbd3fa479d738d723c",
            "model_loss.csv": "12f455246d9467064d5bff13b9791b33"
                              "5daaf8b0a6792986cf69fe07f6608bc5",
            "model.ckpt": "e1573eb69066721cdbaf234d7335be0a"
                          "b895952253f2a2103e8e10b31a2f7e9a",
            "report.csv": "df5b0f1e1195f78bb882ff9bf15ae1e1"
                          "113616754d080540675c460e32093375",
        }
        for name, digest in pins.items():
            assert hashlib.sha256((base / name).read_bytes()).hexdigest() \
                == digest, name


def test_09_stog_permutation_equivariance():
    """50 random instances: permuting either frame's rows permutes the
    outputs within 1e-9."""
    with verdict("criterion 9: permutation equivariance"):
        cfg = ModelConfig(descriptor_dim=8, num_layers=4, num_heads=2,
                          refine_widths=(16, 16, 8))
        store = ParameterStore(seed=12)
        init_stog(cfg, store)
        leaves = store.leaves()
        worst = 0.0
        for t in range(50):
            rng = np.random.default_rng(300 + t)
            m = int(rng.integers(2, 8))
            n = int(rng.integers(2, 8))
            x = rng.normal(size=(m, 8))
            y = rng.normal(size=(n, 8))
            pm = rng.permutation(m)
            pn = rng.permutation(n)
            k0, r0 = stog_forward(constant(x), constant(y), cfg, leaves)
            k1, r1 = stog_forward(constant(x[pm]), constant(y[pn]), cfg,
                                  leaves)
            worst = max(worst,
                        float(np.max(np.abs(k0.data[pm] - k1.data))),
                        float(np.max(np.abs(r0.data[pn] - r1.data))))
        print(f"\n  worst deviation under permutation {worst:.3e}")
        assert worst <= 1e-9


def test_10_motion_analysis_reproduction():
    """Two motion profiles (speed 20 vs 2 px/s, deformation 0.2 vs 0.01)
    order the per-class report consistently; the unit-bandwidth Gaussian
    kernel evaluates to 1/sqrt(2*pi) at its sample."""
    with verdict("criterion 10: motion analysis"):
        scene = SceneConfig(
            duration_s=20.0, fps=2.0,
            profiles=(ClassProfile(0, "linear", 20.0, 0.2),
                      ClassProfile(1, "linear", 2.0, 0.01)),
            objects_per_class=4, seed=13)
        seqs = [generate(scene, sequence_seed=s) for s in range(4)]
        report = {s.class_id: s for s in class_motion_report(seqs)}
        fast, slow = report[0], report[1]
        print(f"\n  displacement {fast.mean_displacement:.2f} vs "
              f"{slow.mean_displacement:.2f}, deformation "
              f"{fast.mean_arc:.4f} vs {slow.mean_arc:.4f}")
        assert fast.mean_displacement > slow.mean_displacement
        assert fast.mean_arc > slow.mean_arc

        def kde_mean(curve):
            grid, dens = curve
            w = dens / dens.sum()
            return float((grid * w).sum())

        assert kde_mean(fast.displacement_kde) > kde_mean(slow.displacement_kde)
        assert kde_mean(fast.arc_kde) > kde_mean(slow.arc_kde)

        peak = kde([0.0], 1.0, np.array([0.0]))[0]
        assert abs(peak - 1.0 / np.sqrt(2.0 * np.pi)) <= 1e-9

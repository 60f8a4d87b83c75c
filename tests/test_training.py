"""Detection-to-GT matching, target construction, pair sampling and the
optimizer loop (loss decreases, updates follow plain SGD + decoupled decay)."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack import bench, matching
from cuetrack.autodiff import AutodiffError, ParameterStore
from cuetrack.geometry import Box, GeometryError
from cuetrack.model import AssocModel, ModelConfig
from cuetrack.simulator import (ClassProfile, FrameSample, NoiseConfig,
                                SceneConfig, generate_dataset, read_dataset,
                                write_dataset)
from cuetrack.training import (TrainConfig, TrainingError, build_target,
                               dat_match, sample_pair, train,
                               write_loss_history)


def _tiny_scene(seed=0, **kw):
    args = dict(duration_s=8.0, fps=2.0,
                profiles=(ClassProfile(0, "linear", 25.0),),
                objects_per_class=3, semantic_dim=8, appearance_dim=8,
                noise=NoiseConfig(box_jitter_sigma=1.0, fp_rate=0.2),
                seed=seed)
    args.update(kw)
    return SceneConfig(**args)


def _tiny_model(seed=0, sinkhorn_iters=30):
    return AssocModel(ModelConfig(descriptor_dim=8, semantic_dim=8,
                                  appearance_dim=8, head_hidden=16,
                                  num_layers=2, num_heads=2,
                                  refine_widths=(16, 8),
                                  sinkhorn_iters=sinkhorn_iters, seed=seed))


class TestDatMatch:
    def test_threshold_gates_assignment(self):
        gt = [(7, Box(0, 0, 10, 10))]
        near = Box(1, 1, 11, 11)    # IoU ~ 0.68
        far = Box(4, 4, 14, 14)     # IoU ~ 0.22
        assert dat_match([near], gt, 0.5) == [7]
        assert dat_match([near], gt, 0.7) == [None]
        assert dat_match([far], gt, 0.5) == [None]

    def test_best_gt_wins(self):
        gt = [(1, Box(0, 0, 10, 10)), (2, Box(2, 0, 12, 10))]
        det = Box(2, 0, 12, 10)
        assert dat_match([det], gt, 0.5) == [2]

    def test_multiple_detections_may_share_one_gt(self):
        gt = [(5, Box(0, 0, 10, 10))]
        dets = [Box(0, 0, 10, 10), Box(0.5, 0, 10.5, 10)]
        assert dat_match(dets, gt, 0.7) == [5, 5]

    def test_touching_and_zero_area_boxes_match_nothing(self):
        gt = [(1, Box(0, 0, 10, 10)), (2, Box(5, 5, 5, 9))]
        dets = [Box(10, 0, 20, 10), Box(0, 10, 10, 20), Box(5, 5, 5, 9),
                Box(3, 3, 3, 3)]
        assert dat_match(dets, gt, 0.1) == [None] * 4

    def test_bad_threshold(self):
        with pytest.raises(TrainingError):
            dat_match([], [], 0.0)

    def test_non_finite_box_raises_instead_of_going_unmatched(self):
        gt = [(7, Box(0, 0, 10, 10))]
        with pytest.raises(GeometryError, match="non-finite"):
            dat_match([Box(0, 0, float("nan"), 10)], gt, 0.5)
        with pytest.raises(GeometryError, match="non-finite"):
            dat_match([Box(0, 0, 10, 10)], [(7, Box(0, 0, float("inf"), 10))], 0.5)


class TestBuildTarget:
    def test_simple_bijection(self):
        t = build_target([1, 2], [2, 1])
        expect = np.zeros((3, 3))
        expect[0, 1] = expect[1, 0] = 1.0
        assert np.array_equal(t.values, expect)
        assert np.array_equal(t.row_marginals, [1, 1, 2])
        assert np.array_equal(t.col_marginals, [1, 1, 2])

    def test_unpaired_id_goes_to_dustbin(self):
        t = build_target([1], [2])
        assert t.values[0, 1] == 1.0  # key 0 -> column dustbin
        assert t.values[1, 0] == 1.0  # ref 0 -> row dustbin

    def test_unmatched_detection_is_masked_not_binned(self):
        t = build_target([None], [1, 1])
        assert np.all(t.values[0, :] == 0.0)       # no loss cells
        assert t.row_marginals[0] == 1.0           # still carries mass

    def test_duplicate_ids_get_multiplicity_marginals(self):
        t = build_target([3, 3], [3])
        assert t.values[0, 0] == 1.0 and t.values[1, 0] == 1.0
        assert t.col_marginals[0] == 2.0           # column absorbs both
        assert np.array_equal(t.row_marginals[:2], [1, 1])

    def test_mass_balance_always_holds(self):
        for key_ids, ref_ids in ([1, None, 2], [2, 3]), ([None], [None]), \
                ([1, 1, 1], [1]), ([], [4, 5]):
            t = build_target(key_ids, ref_ids)
            assert np.isclose(t.row_marginals.sum(), t.col_marginals.sum())


class TestSamplePair:
    def _seq(self):
        return generate_dataset(_tiny_scene(), 1, seed=3)[0]

    def test_interval_respected(self):
        rng = np.random.default_rng(0)
        seq = self._seq()
        for _ in range(50):
            a, b = sample_pair(seq, 1.5, rng)
            assert 0 < abs(a.time_s - b.time_s) <= 1.5

    def test_no_pair_raises(self):
        seq = self._seq()
        with pytest.raises(TrainingError):
            sample_pair(seq[:1], 3.0, np.random.default_rng(0))
        with pytest.raises(TrainingError):
            sample_pair(seq, 0.1, np.random.default_rng(0))

    @staticmethod
    def _enumerated_pair(sequence, max_interval_s, rng):
        """``sample_pair`` as it was written, with a list comprehension."""
        eligible = [(i, j) for i in range(len(sequence))
                    for j in range(len(sequence))
                    if i != j and 0 < abs(sequence[i].time_s - sequence[j].time_s)
                    <= max_interval_s]
        if not eligible:
            raise TrainingError("no eligible frame pair within the interval")
        i, j = eligible[rng.integers(len(eligible))]
        return sequence[i], sequence[j]

    @pytest.mark.parametrize("times", [
        "random", "repeated", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5], [0.0, 1.5, 1.5, 3.0]])
    def test_draws_the_enumerated_pair(self, times):
        # gaps of exactly max_interval_s = 1.5 are eligible; a repeated
        # time gives a gap of 0, which is not
        for seed in range(30):
            rng = np.random.default_rng(seed)
            if times == "random":
                ts = np.sort(rng.uniform(0.0, 6.0, size=rng.integers(1, 14)))
            elif times == "repeated":
                ts = rng.integers(0, 5, size=rng.integers(1, 14)) * 0.75
            else:
                ts = times
            seq = [FrameSample(i, float(t), []) for i, t in enumerate(ts)]
            draws = []
            for fn in (sample_pair, self._enumerated_pair):
                rng = np.random.default_rng(seed)
                try:
                    draws.append([fn(seq, 1.5, rng) for _ in range(5)])
                except TrainingError:
                    draws.append(None)
            assert draws[0] == draws[1], (times, seed)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_both_orders_possible(self, seed):
        rng = np.random.default_rng(seed)
        seq = self._seq()
        a, b = sample_pair(seq, 3.0, rng)
        assert a.frame_id != b.frame_id


class TestTrainLoop:
    def test_loss_decreases_on_held_pairs(self):
        from cuetrack.training import _pair_loss

        seq = generate_dataset(_tiny_scene(), 1, seed=11)[0]
        data = [seq] * 8
        asm = _tiny_model(seed=1)
        cfg = TrainConfig(epochs=8, batch_pairs=8, seed=2)
        eval_pairs = [(seq[i], seq[i + 2]) for i in range(0, len(seq) - 2, 3)]

        def mean_loss():
            vals = []
            for key, ref in eval_pairs:
                loss = _pair_loss(asm, key, ref, cfg, 600.0, 800.0,
                                  asm.store.leaves())
                if loss is not None:
                    vals.append(float(loss.data[0, 0]))
            return float(np.mean(vals))

        before = mean_loss()
        history = train(data, cfg, asm, 600.0, 800.0)
        assert len(history) >= 6
        assert mean_loss() < before

    def test_training_is_deterministic(self):
        data = generate_dataset(_tiny_scene(), 6, seed=11)
        runs = []
        for _ in range(2):
            asm = _tiny_model(seed=1, sinkhorn_iters=20)
            cfg = TrainConfig(epochs=2, batch_pairs=6, seed=2)
            train(data, cfg, asm, 600.0, 800.0)
            runs.append({k: v.copy() for k, v in asm.store.entries.items()})
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name]), name

    def test_float64_training_pin(self):
        # sha256 of the loss history and of every parameter's float64
        # bytes after 12 steps of the desk model on benchmark sequences;
        # the criterion-8 checkpoint is float32 and can hide a one-ulp
        # change in the training arithmetic
        data = generate_dataset(bench.benchmark_scene(bench.TRAIN_SEED), 16,
                                bench.TRAIN_SEED)
        asm = AssocModel(ModelConfig(descriptor_dim=32, semantic_dim=16,
                                     appearance_dim=16, seed=bench.MODEL_SEED))
        history = train(data, TrainConfig(epochs=3, batch_pairs=4,
                                          seed=bench.OPT_SEED),
                        asm, bench.IMAGE_H, bench.IMAGE_W)
        losses = np.array([loss for _, _, loss in history])
        params = hashlib.sha256()
        for name in asm.store.names():
            params.update(name.encode())
            params.update(asm.store.entries[name].tobytes())
        assert len(history) == 12
        assert hashlib.sha256(losses.tobytes()).hexdigest() == (
            "6a668d701218378633b18f57c186064a5bb8c1e142de337b13a339a45a7fdbbf")
        assert params.hexdigest() == (
            "fadb7b33d77e31b0f752ff61a4122798830f8dee08ee1f60d3d4b486eb444aff")

    def test_gt_only_mode_runs(self):
        data = generate_dataset(_tiny_scene(), 6, seed=11)
        asm = _tiny_model(seed=1, sinkhorn_iters=20)
        cfg = TrainConfig(epochs=1, batch_pairs=6, gt_only=True, seed=2)
        assert len(train(data, cfg, asm, 600.0, 800.0)) >= 1

    @pytest.mark.parametrize("gt_only", [False, True])
    def test_frames_without_ground_truth_rejected(self, gt_only):
        # the annotation-only channel reads no detection of its own, so it
        # would train 0 steps on such frames and exit cleanly
        data = generate_dataset(_tiny_scene(), 2, seed=11)
        for seq in data:
            for fr in seq:
                fr.gt = None
        cfg = TrainConfig(epochs=1, batch_pairs=2, gt_only=gt_only, seed=2)
        with pytest.raises(TrainingError, match="require ground truth"):
            train(data, cfg, _tiny_model(seed=1, sinkhorn_iters=20),
                  600.0, 800.0)

    def test_trains_on_read_back_data_with_empty_ground_truth(self, tmp_path):
        # two-frame sequences, so every sampled pair holds the empty frame
        data = [seq[:2] for seq in generate_dataset(_tiny_scene(), 3, seed=11)]
        for seq in data:
            seq[0].gt = []
        write_dataset(data, str(tmp_path / "data"))
        back = read_dataset(str(tmp_path / "data"))
        assert all(seq[0].gt == [] for seq in back)
        cfg = TrainConfig(epochs=2, batch_pairs=3, seed=2)
        history = train(back, cfg, _tiny_model(seed=1, sinkhorn_iters=20),
                        600.0, 800.0)
        assert history and all(np.isfinite(loss) for _, _, loss in history)

    def test_log_every_prints_every_recorded_step(self, capsys):
        # 6 sequences in batches of 4: each epoch ends with a batch of 2
        data = generate_dataset(_tiny_scene(), 6, seed=11)
        cfg = TrainConfig(epochs=2, batch_pairs=4, seed=2)
        history = train(data, cfg, _tiny_model(seed=1, sinkhorn_iters=20),
                        600.0, 800.0, log_every=1)
        assert len(history) == 4
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"step {s} epoch {e} loss {loss:.4f}"
                           for s, e, loss in history]

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train([], TrainConfig(), _tiny_model(), 600.0, 800.0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(TrainingError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainConfig(max_interval_s=0.0)

    def test_weight_decay_is_decoupled(self):
        """With zero gradient contribution (no eligible pairs -> no step)
        weights stay put; with decay the update shrinks weights by
        lr * wd after the gradient step."""
        data = generate_dataset(_tiny_scene(), 4, seed=11)
        asm_a = _tiny_model(seed=1, sinkhorn_iters=20)
        asm_b = _tiny_model(seed=1, sinkhorn_iters=20)
        cfg_a = TrainConfig(epochs=1, batch_pairs=4, weight_decay=0.0, seed=2)
        cfg_b = TrainConfig(epochs=1, batch_pairs=4, weight_decay=0.1, seed=2)
        train(data, cfg_a, asm_a, 600.0, 800.0)
        train(data, cfg_b, asm_b, 600.0, 800.0)
        lr = cfg_b.learning_rate
        for name in asm_a.store.entries:
            a = asm_a.store.entries[name]
            b = asm_b.store.entries[name]
            assert np.allclose(b, a * (1.0 - lr * 0.1), atol=1e-12), name

    def test_non_finite_gradient_changes_no_parameter(self, monkeypatch):
        harvest = ParameterStore.harvest

        def poisoned(self, leaves):
            harvest(self, leaves)
            self.grads["stog.l1.Wv"][2, 1] = np.inf
            self.grads["app.l3.gn.beta"][0, 4] = -np.inf

        monkeypatch.setattr(ParameterStore, "harvest", poisoned)
        asm = _tiny_model(seed=1, sinkhorn_iters=20)
        before = {k: v.copy() for k, v in asm.store.entries.items()}
        with pytest.raises(TrainingError, match="^step 0: non-finite gradient "
                           r"of parameter app\.l3\.gn\.beta$"):
            train(generate_dataset(_tiny_scene(), 4, seed=11),
                  TrainConfig(epochs=1, batch_pairs=4, seed=2), asm, 600.0, 800.0)
        for k, v in before.items():
            assert np.array_equal(asm.store.entries[k], v), k

    def test_non_finite_loss_rerun_names_the_op(self):
        asm = _tiny_model(seed=1, sinkhorn_iters=20)
        # the attention's logits check meets the value first; the re-run
        # names the cue head's first layer, which made it
        asm.store.entries["app.l0.b"][0, 2] = np.nan
        with pytest.raises(AutodiffError, match="^non-finite values entering "
                           "tensor linear_gn_relu$"):
            train(generate_dataset(_tiny_scene(), 4, seed=11),
                  TrainConfig(epochs=1, batch_pairs=4, seed=2), asm, 600.0, 800.0)

    def test_loss_fault_that_does_not_repeat_names_the_step(self, monkeypatch):
        loss_of = matching.association_loss
        calls = []

        def flaky(log_plan, target):
            out = loss_of(log_plan, target)
            calls.append(out)
            if len(calls) == 6:
                out.data[0, 0] = np.nan
            return out

        monkeypatch.setattr(matching, "association_loss", flaky)
        # two pairs per step: the sixth pair is the second of step 2
        with pytest.raises(TrainingError, match="^step 2: non-finite loss$"):
            train(generate_dataset(_tiny_scene(), 6, seed=11),
                  TrainConfig(epochs=2, batch_pairs=2, seed=2),
                  _tiny_model(seed=1, sinkhorn_iters=20), 600.0, 800.0)
        assert len(calls) == 7   # the sixth pair ran twice

    def test_loss_history_csv(self, tmp_path):
        path = str(tmp_path / "loss.csv")
        write_loss_history([(0, 0, 1.5), (1, 0, 1.25)], path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "step,epoch,loss"
        assert lines[1].startswith("0,0,1.5")

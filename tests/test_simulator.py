"""Synthetic scenes: determinism, motion statistics by class, the noisy
detection channel and JSONL round trips.

False-positive and drop counts are checked against their analytic
expectations (Poisson and Bernoulli means) with Monte-Carlo tolerances.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack.geometry import Box, iou, motion_stats
from cuetrack.simulator import (AbsenceWindow, ClassProfile, NoiseConfig,
                                SceneConfig, SimulatorError, _hash_rng,
                                class_prototype, generate, generate_dataset,
                                read_dataset, read_sequence, write_dataset,
                                write_sequence)


def _clean_scene(**kw):
    args = dict(duration_s=10.0, fps=2.0,
                profiles=(ClassProfile(0, "linear", 30.0),),
                objects_per_class=3, seed=5)
    args.update(kw)
    return SceneConfig(**args)


def _tracks(frames):
    out = {}
    for fr in frames:
        for tid, box, cid in fr.gt:
            out.setdefault(tid, []).append((fr.frame_id, box, cid))
    return out


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate(_clean_scene())
        b = generate(_clean_scene())
        for fa, fb in zip(a, b):
            assert fa.gt == fb.gt
            for da, db in zip(fa.detections, fb.detections):
                assert da.box == db.box and da.score == db.score
                assert np.array_equal(da.semantic_vec, db.semantic_vec)

    def test_different_seeds_differ(self):
        a = generate(_clean_scene(), sequence_seed=1)
        b = generate(_clean_scene(), sequence_seed=2)
        assert any(fa.gt != fb.gt for fa, fb in zip(a, b))

    def test_prototypes_scene_independent(self):
        assert np.array_equal(class_prototype(3, 16), class_prototype(3, 16))
        assert abs(np.linalg.norm(class_prototype(3, 16)) - 1.0) < 1e-12
        assert not np.array_equal(class_prototype(3, 16), class_prototype(4, 16))

    def test_prototype_is_cached_and_read_only(self):
        proto = class_prototype(3, 16)
        v = _hash_rng("semantic_prototype", 3, 16).normal(size=16)
        assert np.array_equal(proto, v / np.linalg.norm(v))
        assert class_prototype(3, 16) is proto
        with pytest.raises(ValueError):
            proto[0] = 0.0


class TestMotion:
    def test_frame_count_and_ids(self):
        frames = generate(_clean_scene())
        assert len(frames) == 20  # 10 s at 2 fps
        assert all(len(fr.gt) == 3 for fr in frames)
        assert sorted(_tracks(frames)) == [0, 1, 2]

    def test_classes_move_at_their_configured_speeds(self):
        scene = _clean_scene(
            profiles=(ClassProfile(0, "linear", 40.0, 0.0),
                      ClassProfile(1, "linear", 5.0, 0.0)),
            objects_per_class=4, duration_s=20.0)
        disp = {0: [], 1: []}
        for tid, obs in _tracks(generate(scene)).items():
            d, _ = motion_stats([(f, b) for f, b, _ in obs])
            disp[obs[0][2]].append(d)
        # 0.5 s per frame: expected displacements 20 px vs 2.5 px
        assert np.mean(disp[0]) > 3 * np.mean(disp[1])

    def test_arc_rate_orders_aspect_change(self):
        scene = _clean_scene(
            profiles=(ClassProfile(0, "linear", 10.0, 0.5),
                      ClassProfile(1, "linear", 10.0, 0.005)),
            objects_per_class=4, duration_s=20.0)
        arcs = {0: [], 1: []}
        for tid, obs in _tracks(generate(scene)).items():
            _, a = motion_stats([(f, b) for f, b, _ in obs])
            arcs[obs[0][2]].append(a)
        assert np.mean(arcs[0]) > np.mean(arcs[1])

    def test_boxes_stay_inside_image(self):
        frames = generate(_clean_scene(duration_s=30.0))
        for fr in frames:
            for _, b, _ in fr.gt:
                assert 0 <= b.x_min <= b.x_max <= 800.0
                assert 0 <= b.y_min <= b.y_max <= 600.0

    def test_absence_window_removes_object(self):
        scene = _clean_scene(absence_windows=(AbsenceWindow(0, 2.0, 3.0),))
        for fr in generate(scene):
            ids = [tid for tid, _, _ in fr.gt]
            if 2.0 <= fr.time_s < 5.0:
                assert 0 not in ids
            else:
                assert 0 in ids


class TestDetectionChannel:
    def test_clean_channel_reproduces_gt_boxes(self):
        frames = generate(_clean_scene(noise=NoiseConfig(0.0, 0.0, 0.0, 0.0, 0.0)))
        for fr in frames:
            assert len(fr.detections) == len(fr.gt)
            for det, (_, box, _) in zip(fr.detections, fr.gt):
                assert iou(det.box, box) > 0.99

    def test_drop_rate_matches_expectation(self):
        scene = _clean_scene(noise=NoiseConfig(drop_prob=0.3, fp_rate=0.0),
                             duration_s=60.0, objects_per_class=5)
        frames = generate(scene)
        n_gt = sum(len(fr.gt) for fr in frames)
        n_det = sum(len(fr.detections) for fr in frames)
        rate = 1.0 - n_det / n_gt
        assert abs(rate - 0.3) < 0.06  # ~600 Bernoulli trials

    def test_fp_rate_matches_poisson_mean(self):
        scene = _clean_scene(noise=NoiseConfig(fp_rate=1.5), duration_s=60.0,
                             objects_per_class=1)
        frames = generate(scene)
        extras = [len(fr.detections) - len(fr.gt) for fr in frames]
        assert abs(np.mean(extras) - 1.5) < 0.35

    def test_semantic_vectors_near_prototype(self):
        frames = generate(_clean_scene(noise=NoiseConfig(semantic_sigma=0.01)))
        proto = class_prototype(0, 16)
        for fr in frames:
            for det in fr.detections:
                assert np.linalg.norm(det.semantic_vec - proto) < 0.1

    def test_detection_cap(self):
        scene = _clean_scene(noise=NoiseConfig(fp_rate=30.0), max_detections=10)
        frames = generate(scene)
        assert all(len(fr.detections) <= 10 for fr in frames)

    def test_lookalike_appearance_clusters_by_class(self):
        scene = _clean_scene(
            profiles=(ClassProfile(0, "linear", 10.0),
                      ClassProfile(1, "linear", 10.0)),
            objects_per_class=4, lookalike_appearance=True,
            noise=NoiseConfig(appearance_sigma=0.0))
        fr = generate(scene)[0]
        vecs = {d.class_id: [] for d in fr.detections}
        for d in fr.detections:
            vecs[d.class_id].append(d.appearance_vec)
        within = np.mean([v0 @ v1 for v in vecs.values()
                          for i, v0 in enumerate(v) for v1 in v[i + 1:]])
        across = np.mean([v0 @ v1 for v0 in vecs[0] for v1 in vecs[1]])
        assert within > across + 0.3


class TestSparseAnnotations:
    def test_fraction_limits_annotated_tracks(self):
        full = generate(_clean_scene(objects_per_class=20))
        sparse = generate(_clean_scene(objects_per_class=20,
                                       gt_annotated_fraction=0.4))
        n_full = len(_tracks(full))
        n_sparse = len(_tracks(sparse))
        assert n_full == 20
        assert 2 <= n_sparse <= 14  # binomial(20, 0.4) within wide bounds

    def test_detections_still_cover_unannotated(self):
        scene = _clean_scene(objects_per_class=10, gt_annotated_fraction=0.3,
                             noise=NoiseConfig(0.0, 0.0, 0.0, 0.0, 0.0))
        fr = generate(scene)[0]
        # NMS may merge overlapping neighbors, so allow a small deficit
        assert len(fr.detections) >= 8
        assert len(fr.gt) < len(fr.detections)

    def test_invalid_fraction(self):
        with pytest.raises(SimulatorError):
            _clean_scene(gt_annotated_fraction=0.0)
        with pytest.raises(SimulatorError):
            _clean_scene(gt_annotated_fraction=1.2)


class TestSerialization:
    def test_sequence_round_trip(self, tmp_path):
        frames = generate(_clean_scene(noise=NoiseConfig(fp_rate=0.5)))
        path = str(tmp_path / "seq.jsonl")
        write_sequence(frames, path)
        back = read_sequence(path)
        assert len(back) == len(frames)
        for fa, fb in zip(frames, back):
            assert fa.frame_id == fb.frame_id and fa.time_s == fb.time_s
            assert fa.gt == fb.gt
            for da, db in zip(fa.detections, fb.detections):
                assert da.box == db.box
                assert np.array_equal(da.semantic_vec, db.semantic_vec)
                assert np.array_equal(da.appearance_vec, db.appearance_vec)
                assert da.class_id == db.class_id

    def test_missing_and_empty_ground_truth_round_trip(self, tmp_path):
        frames = generate(_clean_scene())[:3]
        frames[0].gt = None
        frames[1].gt = []
        path = str(tmp_path / "seq.jsonl")
        write_sequence(frames, path)
        back = read_sequence(path)
        assert back[0].gt is None
        assert back[1].gt == []
        assert back[2].gt == frames[2].gt and back[2].gt
        # a record without the key reads as no ground truth
        with open(path, "a") as f:
            f.write('{"frame": 3, "time_s": 9.0, "detections": []}\n')
        assert read_sequence(path)[3].gt is None

    def test_dataset_round_trip(self, tmp_path):
        seqs = generate_dataset(_clean_scene(), 3, seed=9)
        write_dataset(seqs, str(tmp_path / "data"))
        back = read_dataset(str(tmp_path / "data"))
        assert len(back) == 3
        assert all(len(a) == len(b) for a, b in zip(seqs, back))

    def test_empty_dataset_dir_raises(self, tmp_path):
        with pytest.raises(SimulatorError):
            read_dataset(str(tmp_path))

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_dataset_sequences_use_distinct_seeds(self, base):
        seqs = generate_dataset(_clean_scene(), 2, seed=base)
        assert any(fa.gt != fb.gt for fa, fb in zip(seqs[0], seqs[1]))

"""Synthetic scenes: determinism, motion statistics by class, the noisy
detection channel and JSONL round trips.

False-positive and drop counts are checked against their analytic
expectations (Poisson and Bernoulli means) with Monte-Carlo tolerances.
"""
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack.bench import benchmark_scene
from cuetrack.geometry import Box, iou, motion_stats
from cuetrack.simulator import (AbsenceWindow, ClassProfile, NoiseConfig,
                                SceneConfig, SimulatorError, _clip, _hash_rng,
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


def _every_branch_scene():
    """Small, fast and crowded: all three motion kinds, reflections at all
    four borders, the aspect ratio clipped at both ends, boxes clipped at
    the image edges, box jitter, drops, false positives, scores clipped at
    1, two absence windows, sparse annotation, lookalike appearance and
    frames cut to ``max_detections``."""
    return SceneConfig(
        image_h=300.0, image_w=400.0, fps=4.0, duration_s=15.0,
        profiles=(ClassProfile(0, "linear", 150.0, 1.5, (90.0, 40.0)),
                  ClassProfile(1, "sinusoidal", 90.0, 0.5, (40.0, 120.0)),
                  ClassProfile(2, "random_walk", 60.0, 3.0, (160.0, 160.0))),
        objects_per_class=3, semantic_dim=8, appearance_dim=12,
        noise=NoiseConfig(semantic_sigma=0.1, appearance_sigma=0.1,
                          box_jitter_sigma=3.0, drop_prob=0.1, fp_rate=2.0),
        lookalike_appearance=True,
        absence_windows=(AbsenceWindow(1, 2.0, 3.0),
                         AbsenceWindow(7, 6.0, 4.5)),
        gt_annotated_fraction=0.6, max_detections=8, nms_iou_thr=0.4, seed=3)


def _data_sha256(sequences) -> str:
    """sha256 over every frame's id and time, ground-truth entry, and
    detection box, score, class and cue-vector bytes."""
    h = hashlib.sha256()
    for frames in sequences:
        h.update(struct.pack("<q", len(frames)))
        for fr in frames:
            h.update(struct.pack("<qd", fr.frame_id, fr.time_s))
            if fr.gt is None:
                h.update(b"no gt")
            else:
                h.update(struct.pack("<q", len(fr.gt)))
                for tid, box, cid in fr.gt:
                    h.update(struct.pack("<q4dq", tid, *box.as_list(), cid))
            h.update(struct.pack("<q", len(fr.detections)))
            for d in fr.detections:
                h.update(struct.pack("<4ddq", *d.box.as_list(), d.score,
                                     d.class_id))
                h.update(np.asarray(d.semantic_vec, np.float64).tobytes())
                h.update(np.asarray(d.appearance_vec, np.float64).tobytes())
    return h.hexdigest()


class TestDataPin:
    """Generated data is a fixed function of the scene and its seeds: any
    change to the simulator's arithmetic or draw order moves these."""

    def test_benchmark_scene_data_is_pinned(self):
        seqs = generate_dataset(benchmark_scene(100), 12, 100)
        assert _data_sha256(seqs) == (
            "ff9fa787c83a0c463570385b6cd7ce0030c2249f670786d8a75b01ed70ef2680")

    def test_every_branch_scene_data_is_pinned(self):
        seqs = generate_dataset(_every_branch_scene(), 12)
        assert _data_sha256(seqs) == (
            "b56a3d96543af40fe26656ca9b8ab38dff1e21ee1a26f6d9068042adf77445f8")

    def test_every_branch_scene_reaches_its_branches(self):
        scene = _every_branch_scene()
        frames = [fr for seq in generate_dataset(scene, 12) for fr in seq]
        gt = [box for fr in frames for _, box, _ in fr.gt]
        dets = [d for fr in frames for d in fr.detections]
        assert any(b.x_min == 0.0 for b in gt)
        assert any(b.y_min == 0.0 for b in gt)
        assert any(b.x_max == scene.image_w for b in gt)
        assert any(b.y_max == scene.image_h for b in gt)
        assert any(d.score == 1.0 for d in dets)
        assert any(len(fr.detections) == scene.max_detections for fr in frames)
        inside = [b.width / b.height for b in gt
                  if 0.0 < b.x_min and b.x_max < scene.image_w
                  and 0.0 < b.y_min and b.y_max < scene.image_h]
        assert any(math.isclose(r, 5.0) for r in inside)
        assert any(math.isclose(r, 0.2) for r in inside)

    # at, just inside and outside both bounds; -0.0 is left out, since
    # numpy's own maximum and clip disagree on its sign and no clipped
    # value in a scene is a signed zero
    @pytest.mark.parametrize("x", [-1.5, -1e-300, 0.0, 1e-300, 0.5,
                                   1.0 - 1e-16, 1.0, 1.0 + 2e-16, 1.5])
    def test_clip_matches_numpy(self, x):
        got = _clip(x, 0.0, 1.0)
        want = np.clip(x, 0.0, 1.0)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)


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

    def test_two_absence_windows_of_one_object_both_hold(self):
        scene = _clean_scene(duration_s=10.0,
                             absence_windows=(AbsenceWindow(0, 1.0, 2.0),
                                              AbsenceWindow(0, 6.0, 2.0)))
        for fr in generate(scene):
            ids = [tid for tid, _, _ in fr.gt]
            hidden = 1.0 <= fr.time_s < 3.0 or 6.0 <= fr.time_s < 8.0
            assert (0 not in ids) == hidden, fr.time_s

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


class TestSceneChecks:
    @pytest.mark.parametrize("kwargs, message", [
        ({"semantic_sigma": -1.0}, "semantic_sigma must be finite"),
        ({"appearance_sigma": math.nan}, "appearance_sigma must be finite"),
        ({"box_jitter_sigma": -0.5}, "box_jitter_sigma must be finite"),
        ({"fp_rate": -1.0}, "fp_rate must be finite"),
        ({"fp_rate": math.inf}, "fp_rate must be finite"),
        ({"drop_prob": 2.0}, "drop_prob must be in [0, 1]"),
    ])
    def test_bad_noise_rejected(self, kwargs, message):
        with pytest.raises(SimulatorError, match=message.replace("[", r"\[")):
            NoiseConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"size_px": (0.0, 10.0)}, "size_px must be positive and finite"),
        ({"size_px": (10.0, -1.0)}, "size_px must be positive and finite"),
        ({"size_px": (math.inf, 10.0)}, "size_px must be positive and finite"),
        ({"speed_px_per_s": math.nan}, "speed and arc rate must be finite"),
        ({"speed_px_per_s": -1.0}, "speed and arc rate must be finite"),
        ({"arc_rate": math.inf}, "speed and arc rate must be finite"),
    ])
    def test_bad_profile_rejected(self, kwargs, message):
        with pytest.raises(SimulatorError, match=message):
            ClassProfile(0, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"fps": math.nan}, "fps and duration must be positive"),
        ({"duration_s": 0.1}, "gives no frame"),
        ({"image_h": 0.0}, "image sides must be positive and finite"),
        ({"image_w": math.inf}, "image sides must be positive and finite"),
        ({"semantic_dim": 0}, "cue dims must be at least 1"),
        ({"appearance_dim": 0}, "cue dims must be at least 1"),
        ({"max_detections": 0}, "max_detections must be at least 1"),
        ({"nms_iou_thr": 0.0}, r"nms_iou_thr must be in \(0, 1\]"),
        ({"nms_iou_thr": 1.5}, r"nms_iou_thr must be in \(0, 1\]"),
        ({"absence_windows": (AbsenceWindow(3, 1.0, 1.0),)},
         "object_index 3 is not one of the scene's 3 objects"),
        ({"absence_windows": (AbsenceWindow(-1, 1.0, 1.0),)},
         "object_index -1 is not one of"),
        ({"absence_windows": (AbsenceWindow(0, -0.5, 1.0),)},
         "start_s -0.5 must be finite and non-negative"),
        ({"absence_windows": (AbsenceWindow(0, math.nan, 1.0),)},
         "start_s nan must be finite and non-negative"),
        ({"absence_windows": (AbsenceWindow(0, math.inf, 1.0),)},
         "start_s inf must be finite and non-negative"),
        ({"absence_windows": (AbsenceWindow(0, 1.0, 0.0),)},
         "duration_s 0.0 must be positive and finite"),
        ({"absence_windows": (AbsenceWindow(0, 1.0, -2.0),)},
         "duration_s -2.0 must be positive and finite"),
        ({"absence_windows": (AbsenceWindow(0, 1.0, math.nan),)},
         "duration_s nan must be positive and finite"),
        ({"absence_windows": (AbsenceWindow(0, 1.0, math.inf),)},
         "duration_s inf must be positive and finite"),
    ])
    def test_bad_scene_rejected(self, kwargs, message):
        with pytest.raises(SimulatorError, match=message):
            _clean_scene(**kwargs)

    @pytest.mark.parametrize("duration_s, frames", [
        (0.25, 1), (0.75, 2), (1.25, 3), (1.75, 4),
        # the pinned scenes
        (6.0, 12), (12.0, 24), (20.0, 40), (24.0, 48)])
    def test_half_frame_durations_round_up(self, duration_s, frames):
        assert _clean_scene(duration_s=duration_s, fps=2.0).num_frames == frames

    def test_boundary_values_accepted(self):
        NoiseConfig(0.0, 0.0, 0.0, 1.0, 0.0)
        ClassProfile(0, speed_px_per_s=0.0, arc_rate=0.0, size_px=(1e-3, 1e-3))
        scene = _clean_scene(duration_s=0.3, semantic_dim=1, appearance_dim=1,
                             max_detections=1, nms_iou_thr=1.0,
                             absence_windows=(AbsenceWindow(2, 0.0, 1.0),))
        assert len(generate(scene)) == 1   # 0.3 s at 2 fps rounds to 1 frame


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

"""Online tracking: threshold rule, greedy plan resolution, memory
expiry, the per-frame ``Tracker.step`` and the results CSV round trip."""
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuetrack import heads
from cuetrack.autodiff import (AutodiffError, Tensor, constant,
                               load_checkpoint, save_checkpoint)
from cuetrack.cli import main
from cuetrack.geometry import Box
from cuetrack.model import AssocModel, ModelConfig
from cuetrack.simulator import (ClassProfile, Detection, FrameSample,
                                NoiseConfig, SceneConfig, generate,
                                generate_dataset, write_dataset)
from cuetrack.tracker import (Tracker, TrackerConfig, TrackerError, Tracklet,
                              dynamic_threshold, match_frame, read_results,
                              track_sequence, update_memo, write_results)
from cuetrack.training import TrainConfig, TrainingError, train

H, W = 600.0, 800.0


def _model(seed=0, sinkhorn_iters=40):
    return AssocModel(ModelConfig(descriptor_dim=8, semantic_dim=8,
                                  appearance_dim=8, head_hidden=16,
                                  num_layers=2, num_heads=2,
                                  refine_widths=(16, 8),
                                  sinkhorn_iters=sinkhorn_iters, seed=seed))


def _scene(seed=0, **kw):
    args = dict(duration_s=10.0, fps=2.0,
                profiles=(ClassProfile(0, "linear", 25.0),),
                objects_per_class=3, semantic_dim=8, appearance_dim=8,
                noise=NoiseConfig(appearance_sigma=0.02), seed=seed)
    args.update(kw)
    return SceneConfig(**args)


def _trained_model(seed=0):
    """Trained at 40 Sinkhorn iterations, returned for tracking at 100."""
    data = generate_dataset(_scene(), 10, seed=21)
    asm = _model(seed)
    train(data, TrainConfig(epochs=4, batch_pairs=8, seed=3), asm, H, W)
    return AssocModel(dataclasses.replace(asm.cfg, sinkhorn_iters=100),
                      store=asm.store)


def _embedded(asm, dets):
    """(fused descriptors or None, leaves) as ``track_sequence`` passes them."""
    leaves = asm.store.leaves()
    return (asm.embed(dets, H, W, leaves).data if dets else None), leaves


def _sorted_greedy(plan, thr, track_ids):
    """Reference resolution: a Python sort of every cell by (-p, i, j)."""
    m, n = plan.shape
    order = sorted(((i, j) for i in range(m) for j in range(n)),
                   key=lambda ij: (-plan[ij], ij[0], ij[1]))
    assigned, claimed = {}, set()
    for i, j in order:
        if plan[i, j] < thr:
            break
        if i in assigned or j in claimed:
            continue
        assigned[i] = track_ids[j]
        claimed.add(j)
    return assigned


def _reference_track(frames, asm, cfg):
    """Reference online loop built from the model's public pieces: embed
    the key frame, plan against the stored fused descriptors, resolve by
    the sorted greedy, then refresh and expire the memory."""
    memory = {}  # track id -> (last time, fused descriptor)
    next_id = 0
    rows = []
    for frame_id, (time_s, dets) in enumerate(frames):
        ids = []
        if dets:
            leaves = asm.store.leaves()
            key = asm.embed(dets, H, W, leaves)
            assigned = {}
            if memory:
                track_ids = sorted(memory)
                ref = constant(np.stack([memory[t][1] for t in track_ids]))
                log_plan = asm.pair_log_plan(key, ref, leaves)
                plan = np.exp(log_plan.data)[:-1, :-1]
                assigned = _sorted_greedy(plan, cfg.match_score_thr, track_ids)
            for i in range(len(dets)):
                if i in assigned:
                    ids.append(assigned[i])
                else:
                    ids.append(next_id)
                    next_id += 1
            for tid, row in zip(ids, key.data):
                memory[tid] = (time_s, row)
        memory = {t: v for t, v in memory.items()
                  if time_s - v[0] <= cfg.memo_length_s}
        for tid, det in sorted(zip(ids, dets), key=lambda p: p[0]):
            rows.append((frame_id, tid, det.box, det.score, det.class_id))
    return rows


def _step_rows(frames, asm, cfg, tracker=None):
    """The rows of one ``Tracker.step`` call per frame."""
    tracker = tracker or Tracker(asm, cfg, H, W)
    rows = []
    for time_s, dets in frames:
        rows += tracker.step(time_s, dets)
    return rows


class TestDynamicThreshold:
    def test_scales_with_vocabulary(self):
        assert abs(dynamic_threshold(1000) - 0.001001) < 1e-12
        assert abs(dynamic_threshold(10) - 0.1001) < 1e-12

    def test_warns_when_unusable(self):
        with pytest.warns(UserWarning):
            dynamic_threshold(1)

    def test_rejects_empty_vocabulary(self):
        with pytest.raises(TrackerError):
            dynamic_threshold(0)


class TestConfig:
    def test_bad_threshold(self):
        with pytest.raises(TrackerError):
            TrackerConfig(match_score_thr=0.0)
        with pytest.raises(TrackerError):
            TrackerConfig(match_score_thr=1.0)

    def test_bad_memo(self):
        for bad in (0.0, float("nan")):
            with pytest.raises(TrackerError, match="memo_length_s"):
                TrackerConfig(memo_length_s=bad)
        # an endless memory keeps every track
        assert TrackerConfig(memo_length_s=float("inf")).memo_length_s == float("inf")


class TestMatchFrame:
    def test_empty_frame(self):
        asm = _model()
        ids, nid = match_frame([], [], asm, TrackerConfig(), 7,
                               *_embedded(asm, []))
        assert ids == [] and nid == 7

    def test_first_frame_spawns_sequential_ids(self):
        fr = generate(_scene())[0]
        asm = _model()
        ids, nid = match_frame(fr.detections, [], asm, TrackerConfig(),
                               0, *_embedded(asm, fr.detections))
        assert ids == list(range(len(fr.detections)))
        assert nid == len(fr.detections)

    def test_ids_stay_unique_within_frame(self):
        asm = _trained_model()
        frames = generate(_scene(seed=33))
        memory = []
        next_id = 0
        for fid, fr in enumerate(frames):
            fused, leaves = _embedded(asm, fr.detections)
            ids, next_id = match_frame(fr.detections, memory, asm,
                                       TrackerConfig(), next_id, fused, leaves)
            assert len(set(ids)) == len(ids)
            memory = update_memo(memory, ids, fr.detections, fr.time_s,
                                 TrackerConfig(), fused)

    def test_high_threshold_spawns_new_ids(self):
        asm = _trained_model()
        frames = generate(_scene(seed=33))
        cfg = TrackerConfig(match_score_thr=0.999)
        fused0, leaves = _embedded(asm, frames[0].detections)
        ids0, nid = match_frame(frames[0].detections, [], asm, cfg, 0,
                                fused0, leaves)
        memory = update_memo([], ids0, frames[0].detections,
                             frames[0].time_s, cfg, fused0)
        ids1, _ = match_frame(frames[1].detections, memory, asm, cfg, nid,
                              *_embedded(asm, frames[1].detections))
        assert all(i >= nid for i in ids1)  # nothing clears p >= 0.999


class TestGreedyResolution:
    @staticmethod
    def _match_with_plan(plan, thr, monkeypatch):
        """match_frame with the model's plan replaced by ``plan``."""
        m, n = plan.shape
        aug = np.full((m + 1, n + 1), 0.05)
        aug[:m, :n] = plan
        asm = _model()
        monkeypatch.setattr(asm, "pair_log_plan",
                            lambda *a, **k: constant(np.log(aug)))
        det = Detection(Box(0, 0, 10, 10), 1.0, np.zeros(8), np.zeros(8), 0)
        memory = [Tracklet(10 + j, 0.0, np.zeros(8)) for j in range(n)]
        ids, _ = match_frame([det] * m, memory, asm,
                             TrackerConfig(match_score_thr=thr), 100,
                             np.zeros((m, 8)), asm.store.leaves())
        return ids

    def test_exact_ties_resolve_in_row_then_column_order(self, monkeypatch):
        plan = np.array([[0.4, 0.4, 0.1],
                         [0.4, 0.4, 0.1],
                         [0.1, 0.3, 0.3]])
        # (0,0) wins its tie, (0,1) and (1,0) are blocked, (1,1) is next;
        # row 2 ties between columns 1 and 2, column 1 is taken
        assert self._match_with_plan(plan, 0.2, monkeypatch) == [10, 11, 12]

    def test_agrees_with_sorted_greedy(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n = (int(x) for x in rng.integers(1, 7, size=2))
            plan = rng.choice([0.1, 0.25, 0.5, 0.75], size=(m, n))
            assigned = _sorted_greedy(plan, 0.25, [10 + j for j in range(n)])
            ids = self._match_with_plan(plan, 0.25, monkeypatch)
            assert all(ids[i] == tid for i, tid in assigned.items())
            fresh = [tid for i, tid in enumerate(ids) if i not in assigned]
            assert fresh == list(range(100, 100 + len(fresh)))


class TestMemory:
    def test_duplicate_ids_rejected(self):
        det = Detection(Box(0, 0, 10, 10), 1.0, np.zeros(8), np.zeros(8), 0)
        with pytest.raises(TrackerError):
            update_memo([], [4, 4], [det, det], 0.0, TrackerConfig(),
                        _embedded(_model(), [det, det])[0])

    def test_expiry_by_time(self):
        asm = _model()
        det = Detection(Box(0, 0, 10, 10), 1.0, np.zeros(8), np.zeros(8), 0)
        cfg = TrackerConfig(memo_length_s=5.0)
        fused = _embedded(asm, [det])[0]
        memory = update_memo([], [0], [det], 0.0, cfg, fused)
        assert len(memory) == 1
        # 4 s later: still alive even with no detections
        memory = update_memo(memory, [], [], 4.0, cfg, None)
        assert len(memory) == 1
        # 6 s after last sighting: expired
        memory = update_memo(memory, [], [], 6.0, cfg, None)
        assert memory == []

    def test_refresh_resets_clock(self):
        asm = _model()
        det = Detection(Box(0, 0, 10, 10), 1.0, np.zeros(8), np.zeros(8), 0)
        cfg = TrackerConfig(memo_length_s=5.0)
        fused = _embedded(asm, [det])[0]
        memory = update_memo([], [0], [det], 0.0, cfg, fused)
        memory = update_memo(memory, [0], [det], 4.0, cfg, fused)
        memory = update_memo(memory, [], [], 8.0, cfg, None)
        assert len(memory) == 1  # refreshed at t=4, so alive at t=8


class TestTrackSequence:
    def test_out_of_order_frames_rejected(self):
        asm = _model()
        with pytest.raises(TrackerError):
            track_sequence([(1.0, []), (0.5, [])], asm, TrackerConfig(), H, W)

    @pytest.mark.parametrize("frame_id", [0, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected_naming_the_frame(self, frame_id, bad):
        frames = [(f.time_s, f.detections) for f in generate(_scene(seed=41))]
        frames[frame_id] = (bad, frames[frame_id][1])
        with pytest.raises(TrackerError, match=f"frame {frame_id}: time_s .* not finite"):
            track_sequence(frames, _model(), TrackerConfig(), H, W)

    def test_tracks_clean_linear_scene(self):
        """With a trained model and near-clean detections each object
        keeps one id for the whole sequence."""
        asm = _trained_model()
        frames = generate(_scene(seed=41))
        rows = track_sequence([(f.time_s, f.detections) for f in frames],
                              asm, TrackerConfig(), H, W)
        n_ids = len({r[1] for r in rows})
        assert n_ids <= 5  # 3 objects, little fragmentation

    def test_rows_are_frame_major_id_minor(self):
        asm = _trained_model()
        frames = generate(_scene(seed=41))
        rows = track_sequence([(f.time_s, f.detections) for f in frames],
                              asm, TrackerConfig(), H, W)
        keys = [(r[0], r[1]) for r in rows]
        assert keys == sorted(keys)

    def test_deterministic(self):
        asm = _trained_model()
        frames = generate(_scene(seed=41))
        seq = [(f.time_s, f.detections) for f in frames]
        r1 = track_sequence(seq, asm, TrackerConfig(), H, W)
        r2 = track_sequence(seq, asm, TrackerConfig(), H, W)
        assert r1 == r2


class TestTrackSequenceEquivalence:
    def test_matches_reference_loop(self):
        asm = _trained_model()
        # the short memory makes false-positive tracks expire mid-sequence;
        # in the last case an empty frame and a gap outlast the memory, so
        # every track expires
        for seed, cfg, gap in ((41, TrackerConfig(), 0.0),
                               (42, TrackerConfig(memo_length_s=1.0), 0.0),
                               (43, TrackerConfig(memo_length_s=1.0), 1.5)):
            frames = [(f.time_s + gap * (f.frame_id >= 10), f.detections)
                      for f in generate(_scene(seed=seed,
                                               noise=NoiseConfig(fp_rate=0.5)))]
            frames[3] = (frames[3][0], [])  # an empty frame in the stream
            if gap:
                frames[10] = (frames[10][0], [])
            rows = track_sequence(frames, asm, cfg, H, W)
            assert rows == _reference_track(frames, asm, cfg)
            # a loop of steps gives the same rows, byte for byte
            assert pickle.dumps(_step_rows(frames, asm, cfg)) == pickle.dumps(rows)

    def test_heads_run_once_per_frame(self, monkeypatch):
        calls = []
        original = heads.head_forward

        def counting(spec, leaves, x, blocks):
            calls.append(spec.name)
            return original(spec, leaves, x, blocks)

        monkeypatch.setattr(heads, "head_forward", counting)
        frames = [(f.time_s, f.detections) for f in generate(_scene(seed=41))]
        frames[2] = (frames[2][0], [])
        track_sequence(frames, _model(sinkhorn_iters=100), TrackerConfig(), H, W)
        with_dets = sum(1 for _, dets in frames if dets)
        assert len(calls) == 3 * with_dets


class TestStep:
    def test_frames_are_pulled_one_step_at_a_time(self, monkeypatch):
        events = []
        step = Tracker.step

        def spy(self, time_s, detections):
            rows = step(self, time_s, detections)
            events.append(("step", self.frame_id - 1))
            return rows

        def frames():
            for k, f in enumerate(generate(_scene(seed=41))[:6]):
                events.append(("pull", k))
                yield f.time_s, f.detections

        monkeypatch.setattr(Tracker, "step", spy)
        track_sequence(frames(), _model(), TrackerConfig(), H, W)
        assert events == [(kind, k) for k in range(6) for kind in ("pull", "step")]

    @pytest.mark.parametrize("fault", ["time order", "nan time", "poisoned frame"])
    def test_failed_step_leaves_the_tracker_as_it_was(self, fault):
        """After a step raises, the next valid step gives the rows of a
        tracker that never saw the bad frame."""
        asm, cfg = _model(), TrackerConfig()
        frames = _busy_frames()
        time_s, dets = frames[3]
        if fault == "time order":
            bad = (frames[1][0], dets)
        elif fault == "nan time":
            bad = (float("nan"), dets)
        else:
            # finite cue values whose products overflow in the heads; at the
            # next frame's time, so a kept frame time would reject that frame
            bad = (time_s, [dataclasses.replace(
                d, appearance_vec=np.full_like(d.appearance_vec, 1e308))
                for d in dets])

        def state(tr):
            return pickle.dumps((tr.next_id, tr.frame_id, tr.prev_t,
                                 [vars(t) for t in tr.memory]))

        tracker = Tracker(asm, cfg, H, W)
        rows = _step_rows(frames[:3], asm, cfg, tracker)
        before = state(tracker)
        with np.errstate(all="ignore"), \
                pytest.raises((TrackerError, AutodiffError)):
            tracker.step(*bad)
        assert state(tracker) == before
        rows += _step_rows(frames[3:], asm, cfg, tracker)
        assert pickle.dumps(rows) == pickle.dumps(_step_rows(frames, asm, cfg))


def _parents_of_built_tensors(monkeypatch) -> list[tuple]:
    """The parents of every ``Tensor`` built from now on."""
    built = []
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.parents)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    return built


class TestNoTape:
    def test_track_sequence_builds_no_tape(self, monkeypatch):
        frames = [(f.time_s, f.detections) for f in generate(_scene(seed=41))]
        asm = _model(sinkhorn_iters=100)
        built = _parents_of_built_tensors(monkeypatch)
        track_sequence(frames, asm, TrackerConfig(), H, W)
        assert len(built) > 100
        assert not any(built)

    def test_match_frame_alone_records_the_tape(self, monkeypatch):
        asm = _model()
        frames = generate(_scene(seed=41))
        fused, leaves = _embedded(asm, frames[0].detections)
        memory = update_memo([], list(range(len(fused))), frames[0].detections,
                             frames[0].time_s, TrackerConfig(), fused)
        key_fused = _embedded(asm, frames[1].detections)[0]
        built = _parents_of_built_tensors(monkeypatch)
        match_frame(frames[1].detections, memory, asm, TrackerConfig(),
                    len(fused), key_fused, leaves)
        assert any(built)


# the image size and the model of ``_model``, as ``cuetrack`` flags
_TRACK_FLAGS = [
    "--set", "scene.image_h=600", "--set", "scene.image_w=800",
    "--set", "scene.semantic_dim=8", "--set", "scene.appearance_dim=8",
    "--set", "model.descriptor_dim=8", "--set", "model.head_hidden=16",
    "--set", "model.num_layers=2", "--set", "model.num_heads=2",
    "--set", "model.refine_widths=[16,8]",
]


def _busy_frames(seed=5):
    """A sequence's frames that hold detections: from the second one on,
    each is matched against a memory."""
    seq = generate_dataset(_scene(), 1, seed=seed)[0]
    return [(f.time_s, f.detections) for f in seq if f.detections]


class TestFiniteChecks:
    # each STOG refine MLP ends in a bare linear layer, one linear node.
    # The last layer's value reaches the plan; the first layer's meets
    # the next attention's logits check first
    @pytest.mark.parametrize("name", ["stog.l1.mlp1.b", "stog.l0.mlp1.b"])
    def test_failing_frame_rerun_names_the_op(self, name):
        asm = _model()
        asm.store.entries[name][0, 3] = np.nan
        with pytest.raises(AutodiffError,
                           match="^non-finite values entering tensor linear$"):
            track_sequence(_busy_frames(), asm, TrackerConfig(), H, W)

    def test_fault_that_does_not_repeat_names_the_frame(self, monkeypatch):
        embed = AssocModel.embed
        calls = []

        def flaky(self, *args):
            out = embed(self, *args)
            calls.append(out)
            if len(calls) == 3:
                out.data[0, 0] = np.nan
            return out

        monkeypatch.setattr(AssocModel, "embed", flaky)
        with pytest.raises(TrackerError,
                           match="^frame 2: fused descriptors are not finite$"):
            track_sequence(_busy_frames(), _model(), TrackerConfig(), H, W)
        assert len(calls) == 4   # frame 2 ran twice

    # the last STOG layer's value path and the dustbin reach no attention
    # logits, so only the plan check sees them: always among the examples
    @example(name="dustbin", index=0, value=-np.inf)
    @example(name="stog.l1.Wv", index=5, value=np.inf)
    @example(name="stog.l1.mlp1.W", index=7, value=np.nan)
    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(_model().store.names()),
           index=st.integers(min_value=0),
           value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_poisoned_parameter_always_raises(self, name, index, value):
        # any entry of any parameter, set in memory past the checkpoint
        # reader's check: tracking returns no rows and training changes
        # no parameter
        asm = _model()
        arr = asm.store.entries[name]
        arr.flat[index % arr.size] = value
        with np.errstate(all="ignore"):
            with pytest.raises((AutodiffError, TrackerError)):
                track_sequence(_busy_frames(), asm, TrackerConfig(), H, W)
            before = {k: v.copy() for k, v in asm.store.entries.items()}
            with pytest.raises((AutodiffError, TrainingError)):
                train(generate_dataset(_scene(), 4, seed=21),
                      TrainConfig(epochs=1, batch_pairs=4, seed=3), asm, H, W)
        for k, v in before.items():
            assert np.array_equal(asm.store.entries[k], v, equal_nan=True), k


class TestTrackCli:
    def test_empty_and_single_detection_frames(self, tmp_path):
        """An empty frame; one detection against a one-track memory (a 2x2
        augmented plan); then pairs of identical detections, whose tied
        plan cells break in row, then column order."""
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(_trained_model().store, ckpt)
        asm = AssocModel(dataclasses.replace(_model().cfg, sinkhorn_iters=100),
                         store=load_checkpoint(ckpt))
        frames = generate(_scene(seed=41))
        dets = [[frames[0].detections[0]], [], [frames[2].detections[0]],
                [frames[3].detections[0]] * 2, [frames[4].detections[0]] * 2]
        write_dataset([[FrameSample(k, 0.5 * k, d) for k, d in enumerate(dets)]],
                      str(tmp_path / "data"))
        results = str(tmp_path / "r.csv")
        assert main(["track", "--ckpt", ckpt, "--data", str(tmp_path / "data"),
                     "--out", results, *_TRACK_FLAGS]) == 0
        expected = [r[:2] for r in _reference_track(
            [(0.5 * k, d) for k, d in enumerate(dets)], asm, TrackerConfig())]
        assert expected == [(0, 0), (2, 0), (3, 0), (3, 1), (4, 0), (4, 1)]
        assert [r[:2] for r in read_results(results)] == expected


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        rows = [(0, 1, Box(1.5, 2.5, 10.0, 20.0), 0.9, 2),
                (1, 1, Box(2.5, 3.5, 11.0, 21.0), 0.8, 2)]
        path = str(tmp_path / "results.csv")
        write_results(rows, path)
        back = read_results(path)
        assert len(back) == 2
        assert back[0][0] == 0 and back[0][1] == 1
        assert back[0][2] == Box(1.5, 2.5, 10.0, 20.0)
        assert abs(back[0][3] - 0.9) < 1e-12 and back[0][4] == 2

    def test_header(self, tmp_path):
        path = str(tmp_path / "results.csv")
        write_results([], path)
        header = open(path).readline().strip()
        assert header == "frame,id,x_min,y_min,x_max,y_max,score,class_id"

    @pytest.mark.parametrize("case, line, message", [
        ("repeated row", 3, "id {id} repeats in frame 0"),
        ("no score column", 1, "missing column 'score'"),
        ("id x", 2, "id 'x' is not an integer"),
        ("id 2.0", 2, "id '2.0' is not an integer"),
        ("nan box", 2, "has non-finite coordinates"),
    ])
    def test_bad_row_fails_eval_naming_file_and_line(self, tmp_path, capsys,
                                                     case, line, message):
        frames = generate(_scene(seed=5))
        write_dataset([frames], str(tmp_path / "data"))
        path = tmp_path / "r.csv"
        write_results([(fr.frame_id, tid, box, 0.9, cid)
                       for fr in frames for tid, box, cid in fr.gt], str(path))
        cells = [row.split(",") for row in path.read_text().splitlines()]
        if case == "repeated row":
            cells.insert(2, cells[1])
        elif case == "no score column":
            cells = [row[:6] + row[7:] for row in cells]
        elif case.startswith("id "):
            cells[1][1] = case[len("id "):]
        elif case == "nan box":
            cells[1][4] = "nan"
        path.write_text("".join(",".join(row) + "\n" for row in cells))
        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["eval", "--pred", str(path), "--gt", str(tmp_path / "data"),
                     "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: ")
        assert message.format(id=cells[1][1]) in err
        assert not report.exists()

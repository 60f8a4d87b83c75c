"""Association accuracy / id switches on hand-built scenarios, Gaussian
KDE against closed-form values and Monte-Carlo integration, and the
per-class motion report."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack.geometry import Box
from cuetrack.metrics import (ClassMotionSummary, EvalReport, MetricsError,
                              association_accuracy, class_motion_report,
                              format_accuracy, kde, silverman_bandwidth,
                              write_kde_curves, write_report)
from cuetrack.simulator import ClassProfile, FrameSample, SceneConfig, generate


def _frames_from_gt(gt_per_frame):
    return [FrameSample(frame_id=f, time_s=f * 0.5, detections=[],
                        gt=[(tid, box, 0) for tid, box in gts])
            for f, gts in enumerate(gt_per_frame)]


def _box_at(x):
    return Box(x, 0.0, x + 10.0, 10.0)


def _rows(entries):
    """entries: (frame, pred_id, x) -> pred rows."""
    return [(f, pid, _box_at(x), 1.0, 0) for f, pid, x in entries]


class TestAssociationAccuracy:
    def test_perfect_tracking(self):
        gt = [[(0, _box_at(0)), (1, _box_at(100))] for _ in range(4)]
        pred = _rows([(f, tid, 100 * tid) for f in range(4) for tid in (0, 1)])
        rep = association_accuracy(pred, _frames_from_gt(gt))
        assert rep.association_accuracy == 1.0
        assert rep.id_switches == 0
        assert rep.track_count == 2 and rep.gt_count == 2

    def test_single_switch(self):
        gt = [[(0, _box_at(0))] for _ in range(4)]
        # id changes 7 -> 8 between frames 1 and 2: one bad pair of three
        pred = _rows([(0, 7, 0), (1, 7, 0), (2, 8, 0), (3, 8, 0)])
        rep = association_accuracy(pred, _frames_from_gt(gt))
        assert abs(rep.association_accuracy - 2 / 3) < 1e-12
        assert rep.id_switches == 1

    def test_gap_breaks_pair_but_not_switch_count(self):
        gt = [[(0, _box_at(0))] for _ in range(4)]
        # frame 2 missing: (0,1) is the only consecutive pair, id constant
        pred = _rows([(0, 7, 0), (1, 7, 0), (3, 7, 0)])
        rep = association_accuracy(pred, _frames_from_gt(gt))
        assert rep.association_accuracy == 1.0
        assert rep.id_switches == 0

    def test_low_iou_predictions_ignored(self):
        gt = [[(0, _box_at(0))] for _ in range(3)]
        pred = _rows([(f, 7, 500) for f in range(3)])  # never overlaps
        rep = association_accuracy(pred, _frames_from_gt(gt))
        assert rep.association_accuracy == 0.0  # no matched pairs at all

    def test_nothing_to_score_is_undefined(self):
        # track 0 is annotated in frames 0 and 2, never in two consecutive
        # frames, and track 1 in frame 1 alone: no pair can be scored
        gt = [[(0, _box_at(0))], [(1, _box_at(100))], [(0, _box_at(0))]]
        pred = _rows([(0, 7, 0), (1, 8, 100), (2, 7, 0)])
        rep = association_accuracy(pred, _frames_from_gt(gt))
        assert np.isnan(rep.association_accuracy)
        assert rep.id_switches == 0
        assert rep.track_count == 2 and rep.gt_count == 2
        assert format_accuracy(rep.association_accuracy) == "undefined"

    @pytest.mark.parametrize("thr", [0.0, -1.0, float("nan"), 1.5])
    def test_iou_threshold_outside_unit_interval_rejected(self, thr):
        # at 0 or below, predictions that never overlap would score 1.0
        gt = [[(0, _box_at(0))] for _ in range(3)]
        pred = _rows([(f, 7, 500) for f in range(3)])
        with pytest.raises(MetricsError, match="iou_thr"):
            association_accuracy(pred, _frames_from_gt(gt), iou_thr=thr)

    def test_iou_threshold_one_matches_exact_boxes(self):
        gt = [[(0, _box_at(0))] for _ in range(3)]
        pred = _rows([(f, 7, 0) for f in range(3)])
        rep = association_accuracy(pred, _frames_from_gt(gt), iou_thr=1.0)
        assert rep.association_accuracy == 1.0

    def test_unknown_frame_rejected(self):
        gt = [[(0, _box_at(0))]]
        pred = _rows([(5, 7, 0)])
        with pytest.raises(MetricsError):
            association_accuracy(pred, _frames_from_gt(gt))

    def test_swap_between_two_tracks_counts_twice(self):
        gt = [[(0, _box_at(0)), (1, _box_at(100))] for _ in range(2)]
        pred = _rows([(0, 7, 0), (0, 8, 100), (1, 8, 0), (1, 7, 100)])
        rep = association_accuracy(pred, _frames_from_gt(gt))
        assert rep.association_accuracy == 0.0
        assert rep.id_switches == 2


class TestKde:
    def test_single_sample_peak_value(self):
        # density at the sample with bandwidth 1 is 1/sqrt(2*pi)
        dens = kde([0.0], 1.0, np.array([0.0]))
        assert abs(dens[0] - 1.0 / np.sqrt(2 * np.pi)) < 1e-12

    def test_translation_equivariance(self):
        grid = np.linspace(-3, 3, 50)
        a = kde([0.0, 1.0], 0.5, grid)
        b = kde([10.0, 11.0], 0.5, grid + 10.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=40).tolist()
        grid = np.linspace(-12, 12, 4001)
        dens = kde(samples, 0.7, grid)
        assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-6

    def test_errors(self):
        with pytest.raises(MetricsError):
            kde([], 1.0, np.array([0.0]))
        with pytest.raises(MetricsError):
            kde([1.0], 0.0, np.array([0.0]))

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_density_nonnegative(self, samples):
        bw = max(silverman_bandwidth(samples), 1e-6)
        grid = np.linspace(min(samples) - 1, max(samples) + 1, 30)
        assert np.all(kde(samples, bw, grid) >= 0)

    def test_silverman_formula(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        expect = 1.06 * np.std(x, ddof=1) * 5 ** (-0.2)
        assert abs(silverman_bandwidth(x) - expect) < 1e-12

    def test_silverman_degenerate_samples(self):
        assert silverman_bandwidth([2.0, 2.0, 2.0]) > 0


class TestClassMotionReport:
    def _scene(self):
        return SceneConfig(
            duration_s=20.0, fps=2.0,
            profiles=(ClassProfile(0, "linear", 20.0, 0.2),
                      ClassProfile(1, "linear", 2.0, 0.01)),
            objects_per_class=4, seed=13)

    def test_orders_classes_by_motion(self):
        seqs = [generate(self._scene(), sequence_seed=s) for s in range(3)]
        report = class_motion_report(seqs)
        by_id = {s.class_id: s for s in report}
        assert set(by_id) == {0, 1}
        assert by_id[0].mean_displacement > by_id[1].mean_displacement
        assert by_id[0].mean_arc > by_id[1].mean_arc

    def test_kde_curves_cover_samples(self):
        seqs = [generate(self._scene(), sequence_seed=1)]
        for s in class_motion_report(seqs, grid_points=64):
            grid, dens = s.displacement_kde
            assert len(grid) == len(dens) == 64
            assert grid[0] < s.mean_displacement < grid[-1]

    def test_write_outputs(self, tmp_path):
        import os
        seqs = [generate(self._scene(), sequence_seed=1)]
        report = class_motion_report(seqs)
        write_kde_curves(report, str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert "class_0_displacement_kde.csv" in names
        assert "class_1_arc_kde.csv" in names
        assert "class_motion_summary.csv" in names
        summary = open(tmp_path / "class_motion_summary.csv").read().splitlines()
        assert summary[0] == "class_id,mean_displacement,mean_arc"
        assert len(summary) == 3


class TestReportIO:
    def test_write_report(self, tmp_path):
        rep = EvalReport(association_accuracy=0.5, id_switches=3,
                         track_count=7, gt_count=6)
        path = str(tmp_path / "report.csv")
        write_report(rep, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "association_accuracy,id_switches,track_count,gt_count"
        assert lines[1] == "0.500000,3,7,6"

    def test_write_undefined_report(self, tmp_path):
        rep = EvalReport(association_accuracy=float("nan"), id_switches=0,
                         track_count=0, gt_count=1)
        path = str(tmp_path / "report.csv")
        write_report(rep, path)
        assert open(path).read().splitlines()[1] == "undefined,0,0,1"

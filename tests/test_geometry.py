"""Boxes, IoU, the center-relative normalization, NMS and motion stats."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack.geometry import (Box, GeometryError, class_agnostic_nms, iou,
                               iou_matrix, motion_stats, normalize_box)

boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.floats(0, 500), st.floats(0, 500),
    st.floats(1, 200), st.floats(1, 200))


class TestBox:
    def test_properties(self):
        b = Box(10, 20, 40, 60)
        assert b.width == 30 and b.height == 40 and b.area == 1200
        assert b.center == (25, 40)
        assert b.as_list() == [10, 20, 40, 60]

    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            Box(10, 10, 5, 20)
        with pytest.raises(GeometryError):
            Box(10, 10, 20, 5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_coordinate_rejected_naming_the_box(self, index, bad):
        coords = [0.0, 0.0, 10.0, 10.0]
        coords[index] = bad
        with pytest.raises(GeometryError, match=r"box Box\(.*non-finite"):
            Box(*coords)


class TestIou:
    def test_known_values(self):
        a = Box(0, 0, 10, 10)
        assert iou(a, a) == 1.0
        assert iou(a, Box(20, 20, 30, 30)) == 0.0
        # half-overlapping congruent squares: 50/150
        assert abs(iou(a, Box(5, 0, 15, 10)) - 1 / 3) < 1e-12

    @given(boxes, boxes)
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert abs(v - iou(b, a)) < 1e-12


def _scalar_iou(a, b):
    """The per-pair IoU that ``iou_matrix`` replaced, kept as its oracle."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


# small integer corners and widths from 0 give touching, nested, disjoint,
# repeated and zero-width boxes; a fractional offset gives inexact sums
grid_boxes = st.builds(
    lambda x, y, w, h, d: Box(x + d, y, x + d + w, y + h),
    st.integers(0, 10), st.integers(0, 10), st.integers(0, 6),
    st.integers(0, 6), st.sampled_from([0.0, 0.1, 1 / 3]))


class TestIouMatrix:
    @given(st.lists(grid_boxes | boxes, max_size=7),
           st.lists(grid_boxes | boxes, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_entries_equal_the_scalar_oracle_byte_for_byte(self, a, b):
        mat = iou_matrix(a, b)
        assert mat.shape == (len(a), len(b)) and mat.dtype == np.float64
        want = np.array([[_scalar_iou(p, q) for q in b] for p in a],
                        dtype=np.float64).reshape(len(a), len(b))
        assert mat.tobytes() == want.tobytes()

    def test_touching_nested_and_zero_width(self):
        a = Box(0, 0, 10, 10)
        others = [Box(10, 0, 20, 10),   # touching edge
                  Box(2, 2, 7, 7),      # nested
                  Box(30, 30, 40, 40),  # disjoint
                  Box(5, 0, 5, 10),     # zero width, inside
                  Box(0, 0, 10, 10)]    # the same box
        assert iou_matrix([a], others).tolist() == [[0.0, 0.25, 0.0, 0.0, 1.0]]

    @given(st.lists(grid_boxes | boxes, max_size=7))
    @settings(max_examples=100, deadline=None)
    def test_a_list_against_itself_is_converted_once(self, a):
        calls = []
        as_list = Box.as_list

        def counted(box):
            calls.append(box)
            return as_list(box)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Box, "as_list", counted)
            mat = iou_matrix(a, a)
        assert len(calls) == len(a)
        assert mat.tobytes() == iou_matrix(a, list(a)).tobytes()

    @pytest.mark.parametrize("m, n", [(0, 3), (2, 0), (0, 0)])
    def test_empty_inputs_give_empty_shapes(self, m, n):
        a = [Box(0, 0, 1, 1)] * m
        b = [Box(0, 0, 2, 2)] * n
        assert iou_matrix(a, b).shape == (m, n)


class TestNormalization:
    def test_hand_computed_values(self):
        # 600x800 image -> s = 0.7 * 800 = 560; center (400, 300)
        nb = normalize_box(Box(100, 150, 300, 450), 600.0, 800.0)
        assert abs(nb.x_min - (100 - 400) / 560) < 1e-12
        assert abs(nb.y_min - (150 - 300) / 560) < 1e-12
        assert abs(nb.w - 200 / 560) < 1e-12
        assert abs(nb.h - 300 / 560) < 1e-12

    def test_centered_box_top_left_is_minus_half_size(self):
        nb = normalize_box(Box(350, 250, 450, 350), 600.0, 800.0)
        assert abs(nb.x_min + nb.w / 2) < 1e-12
        assert abs(nb.y_min + nb.h / 2) < 1e-12

    @given(boxes, st.sampled_from([0.5, 2.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, b, k):
        base = normalize_box(b, 600.0, 800.0)
        scaled = normalize_box(Box(b.x_min * k, b.y_min * k,
                                   b.x_max * k, b.y_max * k),
                               600.0 * k, 800.0 * k)
        assert np.allclose(base.as_list(), scaled.as_list(), atol=1e-12)

    def test_bad_image_dims(self):
        with pytest.raises(GeometryError):
            normalize_box(Box(0, 0, 1, 1), 0.0, 800.0)


class TestNms:
    def test_suppresses_overlaps_keeps_best(self):
        dets = [(Box(0, 0, 10, 10), 0.9),
                (Box(1, 1, 11, 11), 0.8),   # overlaps first
                (Box(50, 50, 60, 60), 0.7)]
        assert class_agnostic_nms(dets, iou_thr=0.5, max_keep=50) == [0, 2]

    def test_ties_break_by_index(self):
        dets = [(Box(0, 0, 10, 10), 0.5), (Box(0, 0, 10, 10), 0.5)]
        assert class_agnostic_nms(dets, iou_thr=0.5, max_keep=50) == [0]

    def test_max_keep_cap(self):
        dets = [(Box(20 * i, 0, 20 * i + 10, 10), 1.0 - 0.01 * i)
                for i in range(10)]
        kept = class_agnostic_nms(dets, iou_thr=0.5, max_keep=4)
        assert kept == [0, 1, 2, 3]

    @given(st.lists(st.tuples(boxes, st.floats(0, 1)), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_kept_set_is_mutually_below_threshold(self, dets):
        kept = class_agnostic_nms(dets, iou_thr=0.5, max_keep=50)
        assert kept == sorted(kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert iou(dets[a][0], dets[b][0]) <= 0.5 + 1e-12

    @given(st.lists(st.tuples(
               st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                         st.integers(0, 12), st.integers(0, 12),
                         st.integers(0, 8), st.integers(0, 8)),
               st.sampled_from([0.2, 0.5, 0.9])), max_size=14),
           st.sampled_from([0.05, 0.25, 0.5, 1.0]), st.integers(1, 15))
    @settings(max_examples=150, deadline=None)
    def test_matches_greedy_suppression_by_iou(self, dets, thr, max_keep):
        """The survivors of a plain greedy pass that calls ``iou``. Small
        integer corners give repeated boxes, zero-area boxes and IoUs equal
        to the threshold; scores repeat too."""
        order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
        want: list[int] = []
        for i in order:
            if len(want) < max_keep and all(
                    iou(dets[i][0], dets[j][0]) <= thr for j in want):
                want.append(i)
        assert class_agnostic_nms(dets, thr, max_keep) == sorted(want)


class TestMotionStats:
    def test_linear_motion(self):
        traj = [(f, Box(10 * f, 0, 10 * f + 20, 20)) for f in range(5)]
        disp, arc = motion_stats(traj)
        assert abs(disp - 10.0) < 1e-12
        assert arc == 0.0

    def test_aspect_change(self):
        traj = [(0, Box(0, 0, 20, 10)), (1, Box(0, 0, 30, 10))]
        _, arc = motion_stats(traj)
        assert abs(arc - 1.0) < 1e-12  # w/h goes 2 -> 3

    def test_errors(self):
        with pytest.raises(GeometryError):
            motion_stats([(0, Box(0, 0, 1, 1))])
        with pytest.raises(GeometryError):
            motion_stats([(1, Box(0, 0, 1, 1)), (1, Box(0, 0, 1, 1))])

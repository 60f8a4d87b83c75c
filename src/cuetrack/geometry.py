"""Bounding-box arithmetic: coordinate normalization, IoU, class-agnostic
NMS and trajectory motion statistics. ``iou_matrix`` is the one copy of
the IoU arithmetic: ``iou``, NMS, training's ground-truth assignment and
evaluation's matching all read it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(Exception):
    pass


@dataclass(frozen=True)
class Box:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        # one chained test: NaN fails every comparison, and an infinite
        # coordinate one of the bounds
        if not (-math.inf < self.x_min <= self.x_max < math.inf
                and -math.inf < self.y_min <= self.y_max < math.inf):
            if not all(map(math.isfinite, self.as_list())):
                raise GeometryError(f"box {self} has non-finite coordinates")
            raise GeometryError(f"invalid box {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


@dataclass(frozen=True)
class NormalizedBox:
    """Scale-invariant box: top-left corner relative to the image center,
    plus width/height, all divided by 0.7 * max(H, W)."""
    x_min: float
    y_min: float
    w: float
    h: float

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.w, self.h]


def normalize_box(box: Box, image_h: float, image_w: float) -> NormalizedBox:
    """Center-relative normalization with s = 0.7 * max(H, W)."""
    if image_h <= 0 or image_w <= 0:
        raise GeometryError(f"non-positive image dimensions ({image_h}, {image_w})")
    s = 0.7 * max(image_h, image_w)
    return NormalizedBox(
        x_min=(box.x_min - image_w / 2.0) / s,
        y_min=(box.y_min - image_h / 2.0) / s,
        w=(box.x_max - box.x_min) / s,
        h=(box.y_max - box.y_min) / s,
    )


def iou_matrix(a: list[Box], b: list[Box]) -> np.ndarray:
    """(len(a), len(b)) IoU of every pair of boxes, 0.0 where the two do
    not overlap or their union is not positive. Each entry takes the same
    float64 operations, in the same order, for every caller."""
    def corners(boxes: list[Box]) -> np.ndarray:
        return np.array([box.as_list() for box in boxes],
                        dtype=np.float64).reshape(-1, 4).T

    pa = corners(a)
    # NMS compares a frame's boxes with themselves: one conversion serves
    pb = pa if b is a else corners(b)
    # each corner as a column of a's boxes and a row of b's
    ax0, ay0, ax1, ay1 = pa[:, :, None]
    bx0, by0, bx1, by1 = pb[:, None, :]
    ix = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    out = np.zeros(inter.shape)
    np.divide(inter, union, out=out, where=(ix > 0) & (iy > 0) & (union > 0))
    return out


def iou(a: Box, b: Box) -> float:
    return float(iou_matrix([a], [b])[0, 0])


def class_agnostic_nms(dets: list[tuple[Box, float]], iou_thr: float,
                       max_keep: int) -> list[int]:
    """Greedy score-descending suppression ignoring class labels.

    Returns indices into ``dets`` of the survivors, at most ``max_keep``,
    with ties broken toward the lower original index.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    boxes = [box for box, _ in dets]
    # as lists: at a frame's few boxes, array indexing costs more than the table
    over = (iou_matrix(boxes, boxes) > iou_thr).tolist()
    kept: list[int] = []
    for i in order:
        if len(kept) >= max_keep:
            break
        if not any(over[i][k] for k in kept):
            kept.append(i)
    return sorted(kept)


def motion_stats(trajectory: list[tuple[int, Box]]) -> tuple[float, float]:
    """Mean centroid displacement and mean |aspect-ratio change| over
    consecutive observations of one trajectory."""
    if len(trajectory) < 2:
        raise GeometryError("trajectory needs at least 2 observations")
    frames = [f for f, _ in trajectory]
    if any(b <= a for a, b in zip(frames, frames[1:])):
        raise GeometryError("frames must be strictly increasing")
    disps, arcs = [], []
    for (_, a), (_, b) in zip(trajectory, trajectory[1:]):
        if a.height == 0 or b.height == 0:
            raise GeometryError("aspect ratio undefined for zero-height box")
        (ax, ay), (bx, by) = a.center, b.center
        disps.append(float(np.hypot(bx - ax, by - ay)))
        arcs.append(abs(b.width / b.height - a.width / a.height))
    return float(np.mean(disps)), float(np.mean(arcs))

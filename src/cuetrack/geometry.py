"""Bounding-box arithmetic: coordinate normalization, IoU, class-agnostic
NMS and trajectory motion statistics."""

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


def iou(a: Box, b: Box) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def class_agnostic_nms(dets: list[tuple[Box, float]], iou_thr: float,
                       max_keep: int) -> list[int]:
    """Greedy score-descending suppression ignoring class labels.

    Returns indices into ``dets`` of the survivors, at most ``max_keep``,
    with ties broken toward the lower original index.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    kept: list[int] = []
    # each survivor's corners and area: ``iou`` inlined, same operations
    kept_boxes: list[tuple[float, float, float, float, float]] = []
    for i in order:
        if len(kept) >= max_keep:
            break
        b = dets[i][0]
        x0, y0, x1, y1 = b.x_min, b.y_min, b.x_max, b.y_max
        area = (x1 - x0) * (y1 - y0)
        for kx0, ky0, kx1, ky1, k_area in kept_boxes:
            ix = min(x1, kx1) - max(x0, kx0)
            iy = min(y1, ky1) - max(y0, ky0)
            if ix > 0 and iy > 0:
                inter = ix * iy
                union = area + k_area - inter
                if union > 0 and inter / union > iou_thr:
                    break
        else:
            kept.append(i)
            kept_boxes.append((x0, y0, x1, y1, area))
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

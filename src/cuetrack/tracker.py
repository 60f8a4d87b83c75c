"""Online inference: a tracklet memory refreshed per frame, matched to
incoming detections through the trained association model's transport
plan, with time-based expiry."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import Box
from .model import AssocModel
from .simulator import Detection


class TrackerError(Exception):
    pass


@dataclass(frozen=True)
class TrackerConfig:
    match_score_thr: float = 0.2
    memo_length_s: float = 10.0

    def __post_init__(self):
        if not 0 < self.match_score_thr < 1:
            raise TrackerError("match_score_thr must be in (0, 1)")
        if self.memo_length_s <= 0:
            raise TrackerError("memo_length_s must be positive")


@dataclass
class Tracklet:
    track_id: int
    last_time_s: float
    fused: np.ndarray   # fused descriptor of the last detection assigned


def dynamic_threshold(num_classes: int) -> float:
    """Detection score threshold scaled to the size of the class
    vocabulary: (1 / num_classes) * 1.001."""
    if num_classes < 1:
        raise TrackerError("num_classes must be >= 1")
    thr = (1.0 / num_classes) * 1.001
    if thr >= 1.0:
        import warnings
        warnings.warn("dynamic threshold >= 1 filters every detection")
    return thr


def match_frame(detections: list[Detection], memory: list[Tracklet],
                asm: AssocModel, cfg: TrackerConfig, next_id: int,
                key_fused: np.ndarray | None,
                leaves: dict[str, ad.Tensor]) -> tuple[list[int], int]:
    """Assign a tracklet id (existing or fresh) to each detection.

    ``key_fused`` holds the detections' fused descriptors (None for an
    empty frame) and is planned as the key frame against the memory's
    descriptors; the dustbin-augmented transport plan is resolved
    greedily in descending probability with the matching threshold. A
    plan that is not finite raises ``TrackerError``.
    """
    if not detections:
        return [], next_id
    if not memory:
        ids = list(range(next_id, next_id + len(detections)))
        return ids, next_id + len(detections)
    ref_fused = np.stack([t.fused for t in memory])
    log_plan = asm.pair_log_plan(ad.constant(key_fused), ad.constant(ref_fused),
                                 leaves)
    if not np.isfinite(log_plan.data).all():
        raise TrackerError("transport plan is not finite")
    plan = np.exp(log_plan.data)[:-1, :-1]  # real detections x real tracklets
    m, n = plan.shape
    # descending probability, ties in (row, column) order: a stable sort
    # of the row-major flattening; only cells at or above the threshold
    order = np.argsort(-plan, axis=None, kind="stable")
    order = order[:np.count_nonzero(plan >= cfg.match_score_thr)]
    assigned: dict[int, int] = {}
    claimed: set[int] = set()
    for i, j in zip(*(x.tolist() for x in np.divmod(order, n))):
        if i in assigned or j in claimed:
            continue
        assigned[i] = memory[j].track_id
        claimed.add(j)
    ids = []
    for i in range(m):
        if i in assigned:
            ids.append(assigned[i])
        else:
            ids.append(next_id)
            next_id += 1
    return ids, next_id


def update_memo(memory: list[Tracklet], ids: list[int],
                detections: list[Detection], time_s: float,
                cfg: TrackerConfig, fused: np.ndarray | None) -> list[Tracklet]:
    """Refresh matched tracklets, append new ones, expire stale ones.

    ``fused`` holds the detections' fused descriptors (None for an empty
    frame); memory ages by ``time_s`` alone.
    """
    if len(set(ids)) != len(ids):
        raise TrackerError("duplicate id in frame assignments")
    by_id = {t.track_id: t for t in memory}
    if detections:
        for tid, row in zip(ids, fused):
            t = by_id.get(tid)
            if t is None:
                by_id[tid] = Tracklet(tid, time_s, row)
            else:
                t.last_time_s = time_s
                t.fused = row
    return [t for t in sorted(by_id.values(), key=lambda t: t.track_id)
            if time_s - t.last_time_s <= cfg.memo_length_s]


def _embed_and_match(detections: list[Detection], memory: list[Tracklet],
                     asm: AssocModel, cfg: TrackerConfig, next_id: int,
                     leaves: dict[str, ad.Tensor], image_h: float,
                     image_w: float) -> tuple[np.ndarray | None, list[int], int]:
    """One frame's fused descriptors (None for an empty frame), ids and
    next free id. Descriptors that are not finite raise ``TrackerError``,
    as ``match_frame`` does for the plan. Changes no state, so a frame
    can run twice."""
    fused = asm.embed(detections, image_h, image_w, leaves).data \
        if detections else None
    if fused is not None and not np.isfinite(fused).all():
        raise TrackerError("fused descriptors are not finite")
    return (fused, *match_frame(detections, memory, asm, cfg, next_id, fused,
                                leaves))


def track_sequence(frames: list[tuple[float, list[Detection]]], asm: AssocModel,
                   cfg: TrackerConfig,
                   image_h: float, image_w: float) -> list[tuple]:
    """Run the online loop; returns (frame, id, box, score, class) rows
    in frame-major, id-minor order. Each frame's detections are embedded
    once, for matching and for the memory. Tracking takes no gradient,
    so the parameters enter as constant leaves: no tensor records a
    tape, and the Sinkhorn steps run in the exp domain.

    Each frame's fused descriptors and plan are checked for values that
    are not finite, two checks in place of one per tensor. A frame that
    fails, or whose attention logits do, is run again under
    ``autodiff.checked()``, whose ``AutodiffError`` names the first op
    that made the value; should the run pass, ``TrackerError`` names the
    frame."""
    memory: list[Tracklet] = []
    next_id = 0
    rows = []
    prev_t = None
    leaves = {name: ad.constant(arr, name)
              for name, arr in asm.store.entries.items()}
    for frame_id, (time_s, detections) in enumerate(frames):
        if prev_t is not None and time_s <= prev_t:
            raise TrackerError("frames out of time order")
        prev_t = time_s
        args = (detections, memory, asm, cfg, next_id, leaves, image_h, image_w)
        try:
            fused, ids, next_id = _embed_and_match(*args)
        except (TrackerError, ad.AutodiffError) as exc:
            # the frame again, with every tensor checked: the
            # AutodiffError names the first op that made the value,
            # which the attention's own logits check may have met later
            with ad.checked():
                _embed_and_match(*args)
            raise TrackerError(f"frame {frame_id}: {exc}") from None
        memory = update_memo(memory, ids, detections, time_s, cfg, fused)
        for tid, det in sorted(zip(ids, detections), key=lambda p: p[0]):
            rows.append((frame_id, tid, det.box, det.score, det.class_id))
    return rows


def write_results(rows: list[tuple], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["frame", "id", "x_min", "y_min", "x_max", "y_max",
                         "score", "class_id"])
        for frame_id, tid, box, score, class_id in rows:
            writer.writerow([frame_id, tid,
                             f"{box.x_min:.4f}", f"{box.y_min:.4f}",
                             f"{box.x_max:.4f}", f"{box.y_max:.4f}",
                             f"{score:.4f}", class_id])


def read_results(path: str) -> list[tuple]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for rec in reader:
            rows.append((int(rec["frame"]), int(rec["id"]),
                         Box(float(rec["x_min"]), float(rec["y_min"]),
                             float(rec["x_max"]), float(rec["y_max"])),
                         float(rec["score"]), int(rec["class_id"])))
    return rows

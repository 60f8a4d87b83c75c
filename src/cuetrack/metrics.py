"""Evaluation: identity-based association accuracy, id-switch counting,
Gaussian KDE, and per-class motion analysis."""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .geometry import Box, iou_matrix, motion_stats
from .matching import hungarian
from .simulator import FrameSample


class MetricsError(Exception):
    pass


@dataclass
class EvalReport:
    association_accuracy: float
    id_switches: int
    track_count: int
    gt_count: int


def _match_frame(pred_boxes: list[Box], gt_boxes: list[Box],
                 iou_thr: float) -> list[tuple[int, int]]:
    """(pred, gt) index pairs in pred order: the assignment on -IoU from
    ``matching.hungarian``, the package's one solver, keeping the pairs
    with IoU >= threshold."""
    if not pred_boxes or not gt_boxes:
        return []
    mat = iou_matrix(pred_boxes, gt_boxes)
    pairs, _ = hungarian(-mat)
    return [(r, c) for r, c in pairs if mat[r, c] >= iou_thr]


def association_accuracy(pred: list[tuple], gt_frames: list[FrameSample],
                         iou_thr: float = 0.5) -> EvalReport:
    """Consecutive-frame id agreement over IoU-matched (pred, gt) pairs.

    ``pred`` holds (frame, id, Box, score, class) rows. For each GT track,
    consecutive frames where it was matched form a pair; the pair counts
    as correct when the predicted id stays the same. An id change between
    consecutive matched frames is one id switch.

    When no GT track appears in two consecutive frames there is nothing
    to score, and the accuracy is NaN (``format_accuracy`` prints it as
    "undefined"). Predictions that match no such GT pair score 0.0.
    ``iou_thr`` must lie in (0, 1]: at 0 or below, boxes that never
    overlap would match.
    """
    if not 0 < iou_thr <= 1:
        raise MetricsError(f"iou_thr must be in (0, 1], got {iou_thr}")
    pred_by_frame: dict[int, list[tuple[int, Box]]] = defaultdict(list)
    for frame_id, tid, box, _score, _cid in pred:
        pred_by_frame[frame_id].append((tid, box))
    frame_ids = {f.frame_id for f in gt_frames}
    if not frame_ids.issuperset(pred_by_frame):
        raise MetricsError("prediction references frames missing from GT")

    # gt track id -> list of (frame, matched pred id)
    matched: dict[int, list[tuple[int, int]]] = defaultdict(list)
    pred_ids_seen: set[int] = set()
    gt_ids_seen: set[int] = set()
    gt_at: set[tuple[int, int]] = set()   # (gt track id, frame)
    for fr in gt_frames:
        gts = fr.gt or []
        gt_ids_seen.update(tid for tid, _, _ in gts)
        gt_at.update((tid, fr.frame_id) for tid, _, _ in gts)
        preds = pred_by_frame.get(fr.frame_id, [])
        pred_ids_seen.update(tid for tid, _ in preds)
        pairs = _match_frame([b for _, b in preds], [b for _, b, _ in gts], iou_thr)
        for pi, gi in pairs:
            matched[gts[gi][0]].append((fr.frame_id, preds[pi][0]))

    agree = 0
    pairs_total = 0
    switches = 0
    for gid, seq in matched.items():
        seq.sort()
        for (f0, p0), (f1, p1) in zip(seq, seq[1:]):
            if f1 == f0 + 1:
                pairs_total += 1
                if p0 == p1:
                    agree += 1
            if p0 != p1:
                switches += 1
    if pairs_total:
        acc = agree / pairs_total
    elif any((tid, f + 1) in gt_at for tid, f in gt_at):
        acc = 0.0
    else:
        acc = float("nan")
    return EvalReport(association_accuracy=acc, id_switches=switches,
                      track_count=len(pred_ids_seen), gt_count=len(gt_ids_seen))


def pool_sequences(sequences: list[list[FrameSample]],
                   rows_per_seq: list[list[tuple]] | None = None
                   ) -> tuple[list[tuple], list[FrameSample]]:
    """Concatenate sequences, and their tracker rows when given, into one
    stream for pooled scoring: (pred rows, GT frames).

    Each sequence's frame ids shift by the lengths of the sequences before
    it; its track ids and its GT ids each shift past the largest id before
    it, so identities never collide across sequences.
    """
    pred: list[tuple] = []
    gt_frames: list[FrameSample] = []
    frame_offset = id_offset = gt_id_offset = 0
    for k, frames in enumerate(sequences):
        rows = rows_per_seq[k] if rows_per_seq is not None else []
        pred += [(fid + frame_offset, tid + id_offset, *rest)
                 for fid, tid, *rest in rows]
        gt_frames += [FrameSample(frame_id=f.frame_id + frame_offset,
                                  time_s=f.time_s, detections=f.detections,
                                  gt=[(gid + gt_id_offset, box, cid)
                                      for gid, box, cid in f.gt or []])
                      for f in frames]
        frame_offset += len(frames)
        id_offset += 1 + max((tid for _, tid, *_ in rows), default=-1)
        gt_id_offset += 1 + max((gid for f in frames for gid, _, _ in f.gt or []),
                                default=-1)
    return pred, gt_frames


def kde(samples: list[float], bandwidth: float,
        grid: np.ndarray) -> np.ndarray:
    """Gaussian-kernel density estimate on the given grid."""
    if len(samples) == 0:
        raise MetricsError("kde needs at least one sample")
    if bandwidth <= 0:
        raise MetricsError("bandwidth must be positive")
    x = np.asarray(samples, dtype=np.float64)
    g = np.asarray(grid, dtype=np.float64)
    z = (g[:, None] - x[None, :]) / bandwidth
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (len(x) * bandwidth * np.sqrt(2 * np.pi))
    return dens


def silverman_bandwidth(samples: list[float]) -> float:
    x = np.asarray(samples, dtype=np.float64)
    std = x.std(ddof=1) if len(x) > 1 else 1.0
    if std == 0:
        std = max(1e-3, abs(x[0]) * 1e-2) if len(x) else 1.0
    return 1.06 * std * len(x) ** (-1 / 5)


@dataclass
class ClassMotionSummary:
    class_id: int
    mean_displacement: float
    mean_arc: float
    displacement_kde: tuple[np.ndarray, np.ndarray]  # (grid, density)
    arc_kde: tuple[np.ndarray, np.ndarray]


def class_motion_report(sequences: list[list[FrameSample]],
                        grid_points: int = 128,
                        log_grid: bool = False) -> list[ClassMotionSummary]:
    """Per-class displacement/ARC means and KDE curves over
    per-instance trajectory means."""
    per_class_disp: dict[int, list[float]] = defaultdict(list)
    per_class_arc: dict[int, list[float]] = defaultdict(list)
    for frames in sequences:
        tracks: dict[int, list[tuple[int, Box]]] = defaultdict(list)
        classes: dict[int, int] = {}
        for fr in frames:
            for tid, box, cid in fr.gt or []:
                tracks[tid].append((fr.frame_id, box))
                classes[tid] = cid
        for tid, traj in tracks.items():
            if len(traj) < 2:
                continue
            disp, arc = motion_stats(sorted(traj))
            per_class_disp[classes[tid]].append(disp)
            per_class_arc[classes[tid]].append(arc)

    out = []
    for cid in sorted(per_class_disp):
        summaries = []
        for samples in (per_class_disp[cid], per_class_arc[cid]):
            bw = silverman_bandwidth(samples)
            lo = min(samples) - 3 * bw
            hi = max(samples) + 3 * bw
            if log_grid and lo > 0:
                grid = np.geomspace(lo, hi, grid_points)
            else:
                grid = np.linspace(lo, hi, grid_points)
            summaries.append((grid, kde(samples, bw, grid)))
        out.append(ClassMotionSummary(
            class_id=cid,
            mean_displacement=float(np.mean(per_class_disp[cid])),
            mean_arc=float(np.mean(per_class_arc[cid])),
            displacement_kde=summaries[0],
            arc_kde=summaries[1]))
    return out


def format_accuracy(acc: float, spec: str = ".6f") -> str:
    """An association accuracy in ``spec``, or "undefined" for the NaN of
    a scene with nothing to score."""
    return "undefined" if math.isnan(acc) else format(acc, spec)


def write_report(report: EvalReport, path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["association_accuracy", "id_switches",
                         "track_count", "gt_count"])
        writer.writerow([format_accuracy(report.association_accuracy),
                         report.id_switches, report.track_count,
                         report.gt_count])


def write_kde_curves(summaries: list[ClassMotionSummary], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for s in summaries:
        for name, (grid, dens) in (("displacement", s.displacement_kde),
                                   ("arc", s.arc_kde)):
            path = os.path.join(out_dir, f"class_{s.class_id}_{name}_kde.csv")
            with open(path, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["x", "density"])
                for x, d in zip(grid, dens):
                    writer.writerow([f"{x:.8f}", f"{d:.8f}"])
    summary_path = os.path.join(out_dir, "class_motion_summary.csv")
    with open(summary_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["class_id", "mean_displacement", "mean_arc"])
        for s in summaries:
            writer.writerow([s.class_id, f"{s.mean_displacement:.6f}",
                             f"{s.mean_arc:.6f}"])

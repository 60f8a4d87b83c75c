"""Detection-aware training: match detections to sparse ground truth,
build dustbin-augmented target matrices with per-multiplicity marginals,
sample frame pairs, and run the SGD loop."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import matching
from .autodiff import Tensor
from .geometry import Box, iou
from .model import AssocModel
from .simulator import Detection, FrameSample


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 12
    batch_pairs: int = 16
    learning_rate: float = 0.008
    weight_decay: float = 1e-4
    max_interval_s: float = 3.0
    iou_match_thr: float = 0.7
    gt_only: bool = False   # ablation: train on clean GT boxes, no DAT channel
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_pairs) < 1 or self.learning_rate < 0:
            raise TrainingError("invalid training configuration")
        if self.max_interval_s <= 0:
            raise TrainingError("max_interval_s must be positive")
        if not 0 < self.iou_match_thr <= 1:
            raise TrainingError("iou_match_thr must be in (0, 1]")
        if self.weight_decay < 0:
            raise TrainingError("weight_decay must not be negative")


@dataclass
class TargetMatrix:
    values: np.ndarray          # (M+1, N+1) binary
    row_marginals: np.ndarray   # length M+1
    col_marginals: np.ndarray   # length N+1


def dat_match(det_boxes: list[Box], gt: list[tuple[int, Box]],
              iou_thr: float) -> list[int | None]:
    """Assign each detection the id of its best-IoU GT box when that IoU
    reaches the threshold; several detections may share one GT id."""
    if not 0 < iou_thr <= 1:
        raise TrainingError("iou_thr must be in (0, 1]")
    ids: list[int | None] = []
    for box in det_boxes:
        best_id, best_iou = None, 0.0
        for gid, gbox in gt:
            v = iou(box, gbox)
            if v > best_iou:
                best_id, best_iou = gid, v
        ids.append(best_id if best_iou >= iou_thr else None)
    return ids


def build_target(key_ids: list[int | None],
                 ref_ids: list[int | None]) -> TargetMatrix:
    """Binary (M+1, N+1) target with dustbin assignments and marginals.

    A shared id marks all its (key, ref) cells as matches; a GT-matched
    detection with no counterpart goes to the dustbin. Detections with no
    GT id get no target cells at all (loss-masked) but keep unit marginal
    mass, which the opposite dustbin absorbs.
    """
    m, n = len(key_ids), len(ref_ids)
    t = np.zeros((m + 1, n + 1))
    for i, kid in enumerate(key_ids):
        if kid is None:
            continue
        hits = [j for j, rid in enumerate(ref_ids) if rid == kid]
        if hits:
            for j in hits:
                t[i, j] = 1.0
        else:
            t[i, n] = 1.0
    for j, rid in enumerate(ref_ids):
        if rid is None:
            continue
        if not any(kid == rid for kid in key_ids):
            t[m, j] = 1.0
    rows = np.ones(m + 1)
    cols = np.ones(n + 1)
    rows[:m] = np.maximum(1.0, t[:m, :n].sum(axis=1))
    cols[:n] = np.maximum(1.0, t[:m, :n].sum(axis=0))
    # each dustbin absorbs whatever the opposite side cannot place
    rows[m] = cols[:n].sum()
    cols[n] = rows[:m].sum()
    return TargetMatrix(values=t, row_marginals=rows, col_marginals=cols)


def sample_pair(sequence: list[FrameSample], max_interval_s: float,
                rng: np.random.Generator) -> tuple[FrameSample, FrameSample]:
    """Uniform ordered pair of frames with 0 < |dt| <= max_interval_s.

    The eligible pairs are listed in row-major order of the |dt| matrix,
    the order of a loop over i and then j, so a seed draws the same pair
    as such a loop's list would give."""
    times = np.array([fr.time_s for fr in sequence], dtype=np.float64)
    dt = np.abs(times[:, None] - times[None, :])
    rows, cols = np.nonzero((dt > 0) & (dt <= max_interval_s))
    if not rows.size:
        raise TrainingError("no eligible frame pair within the interval")
    k = rng.integers(rows.size)
    return sequence[rows[k]], sequence[cols[k]]


def _pair_loss(asm: AssocModel, key: FrameSample, ref: FrameSample,
               cfg: TrainConfig, image_h: float, image_w: float,
               leaves) -> Tensor | None:
    if key.gt is None or ref.gt is None:
        raise TrainingError("training frames require ground truth")

    def frame_dets(fr: FrameSample) -> list:
        return _gt_channel(fr) if cfg.gt_only else fr.detections

    key_dets = frame_dets(key)
    ref_dets = frame_dets(ref)
    if not key_dets or not ref_dets:
        return None
    key_ids = dat_match([d.box for d in key_dets],
                        [(tid, box) for tid, box, _ in key.gt], cfg.iou_match_thr)
    ref_ids = dat_match([d.box for d in ref_dets],
                        [(tid, box) for tid, box, _ in ref.gt], cfg.iou_match_thr)
    target = build_target(key_ids, ref_ids)
    if target.values.sum() == 0:
        return None

    def loss_of_pair() -> Tensor:
        log_plan = asm.forward_pair(key_dets, ref_dets, image_h, image_w,
                                    marginals=(target.row_marginals,
                                               target.col_marginals),
                                    leaves=leaves)
        return matching.association_loss(log_plan, target.values)

    try:
        loss = loss_of_pair()
        fault = None if np.isfinite(loss.data).all() else "non-finite loss"
    except ad.AutodiffError as exc:  # the attention's own logits check
        fault = str(exc)
    if fault:
        # the pair again, with every tensor checked: the AutodiffError
        # names the first op that made the value
        with ad.checked():
            loss_of_pair()
        raise TrainingError(fault)
    return loss


def _gt_channel(fr: FrameSample) -> list:
    """Clean channel for GT-only training: boxes come verbatim from the
    annotation; cue vectors are borrowed from the best-overlapping
    detection. GT boxes with no overlapping detection are skipped."""
    out = []
    for tid, box, cid in fr.gt:
        best, best_iou = None, 0.0
        for d in fr.detections:
            v = iou(box, d.box)
            if v > best_iou:
                best, best_iou = d, v
        if best is None or best_iou <= 0:
            continue
        out.append(Detection(box, 1.0, best.semantic_vec, best.appearance_vec, cid))
    return out


def train(dataset: list[list[FrameSample]], cfg: TrainConfig, asm: AssocModel,
          image_h: float, image_w: float,
          log_every: int = 0) -> list[tuple[int, int, float]]:
    """SGD (no momentum) with decoupled weight decay; returns the loss
    history as (step, epoch, loss) rows.

    Each pair's loss is checked for a value that is not finite before its
    backward pass, and each step's gradients before its update, so a step
    that fails changes no parameter. A pair whose loss fails, or whose
    attention logits do, is run again under ``autodiff.checked()``,
    whose ``AutodiffError`` names the first op that made the value;
    otherwise ``TrainingError`` names the step."""
    if not dataset:
        raise TrainingError("empty dataset")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    history: list[tuple[int, int, float]] = []
    step = 0
    for epoch in range(cfg.epochs):
        for batch in _epoch_batches(dataset, cfg, rng):
            try:
                loss_val = _train_step(asm, batch, cfg, image_h, image_w)
            except TrainingError as exc:
                raise TrainingError(f"step {step}: {exc}") from None
            if loss_val is None:
                continue
            history.append((step, epoch, loss_val))
            if log_every and step % log_every == 0:
                print(f"step {step} epoch {epoch} loss {loss_val:.4f}")
            step += 1
    return history


def _epoch_batches(dataset: list[list[FrameSample]], cfg: TrainConfig,
                   rng: np.random.Generator):
    """One pair per sequence, in a fresh sequence order, yielded in batches
    of ``cfg.batch_pairs`` as they fill; the last batch may be shorter.
    Sequences with no eligible pair are skipped."""
    batch: list[tuple[FrameSample, FrameSample]] = []
    for seq_idx in rng.permutation(len(dataset)):
        try:
            batch.append(sample_pair(dataset[seq_idx], cfg.max_interval_s, rng))
        except TrainingError:
            continue
        if len(batch) == cfg.batch_pairs:
            yield batch
            batch = []
    if batch:
        yield batch


def _train_step(asm: AssocModel, batch, cfg: TrainConfig,
                image_h: float, image_w: float) -> float | None:
    store = asm.store
    store.zero_grads()
    leaves = store.leaves()
    total_loss = 0.0
    n_used = 0
    for key, ref in batch:
        loss = _pair_loss(asm, key, ref, cfg, image_h, image_w, leaves)
        if loss is None:
            continue
        loss.backward(np.ones((1, 1)))
        store.harvest(leaves)
        total_loss += float(loss.data[0, 0])
        n_used += 1
    if n_used == 0:
        return None
    for name in store.names():
        if not np.isfinite(store.grads[name]).all():
            raise TrainingError(f"non-finite gradient of parameter {name}")
    lr = cfg.learning_rate
    for name in store.entries:
        store.entries[name] -= lr * (store.grads[name] / n_used)
        store.entries[name] -= lr * cfg.weight_decay * store.entries[name]
    return total_loss / n_used


def write_loss_history(history: list[tuple[int, int, float]], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "epoch", "loss"])
        for step, epoch, loss in history:
            writer.writerow([step, epoch, f"{loss:.8f}"])

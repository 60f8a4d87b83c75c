"""Synthetic multi-class scene simulator.

Generates reproducible tracking sequences: class-conditioned motion
(linear / sinusoidal / random walk), aspect-ratio dynamics, class-stable
semantic vectors, identity-stable appearance vectors, optional absence
windows, and a noisy detection channel (jitter, drops, false positives)
feeding detection-aware training.

Every generated sequence is a fixed function of its seed, down to the
last bit. The per-object and per-detection scalar arithmetic (positions,
velocities, reflections, box corners, jitter and clipped scores) runs on
Python floats, each step the IEEE operation numpy does on one float64, in
the same order: ``_clip`` is ``np.clip``'s ``minimum(maximum(x, lo), hi)``,
and ``math.sqrt``, like ``np.sqrt``, is correctly rounded. ``np.exp``,
``np.cos`` and ``np.sin`` stay numpy, because ``math.exp`` rounds some
arguments differently from numpy's. The random draws stay as they are:
each comes from a ``_hash_rng`` stream in a fixed order and shape. The cue
vectors are numpy arrays.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, GeometryError, class_agnostic_nms


class SimulatorError(Exception):
    pass


def _finite_positive(x: float) -> bool:
    return 0.0 < x < math.inf        # NaN fails too


def _finite_non_negative(x: float) -> bool:
    return 0.0 <= x < math.inf


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float: ``minimum(maximum(x, lo), hi)``."""
    return min(max(x, lo), hi)


@dataclass
class Detection:
    box: Box
    score: float
    semantic_vec: np.ndarray
    appearance_vec: np.ndarray
    class_id: int = -1


@dataclass
class FrameSample:
    frame_id: int
    time_s: float
    detections: list[Detection]
    gt: list[tuple[int, Box, int]] | None = None  # (track id, box, class id)


@dataclass(frozen=True)
class ClassProfile:
    class_id: int
    motion_kind: str = "linear"          # linear | sinusoidal | random_walk
    speed_px_per_s: float = 10.0
    arc_rate: float = 0.05               # expected |d(w/h)| per second
    size_px: tuple[float, float] = (60.0, 60.0)

    def __post_init__(self):
        if self.motion_kind not in ("linear", "sinusoidal", "random_walk"):
            raise SimulatorError(f"unknown motion kind {self.motion_kind!r}")
        if not (_finite_non_negative(self.speed_px_per_s)
                and _finite_non_negative(self.arc_rate)):
            raise SimulatorError(
                "speed and arc rate must be finite and non-negative")
        if not all(_finite_positive(v) for v in self.size_px):
            raise SimulatorError(
                f"size_px must be positive and finite, got {self.size_px}")


@dataclass(frozen=True)
class NoiseConfig:
    semantic_sigma: float = 0.05
    appearance_sigma: float = 0.05
    box_jitter_sigma: float = 0.0
    drop_prob: float = 0.0
    fp_rate: float = 0.0

    def __post_init__(self):
        for name in ("semantic_sigma", "appearance_sigma",
                     "box_jitter_sigma", "fp_rate"):
            if not _finite_non_negative(getattr(self, name)):
                raise SimulatorError(f"{name} must be finite and "
                                     f"non-negative, got {getattr(self, name)}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise SimulatorError("drop_prob must be in [0, 1]")


@dataclass(frozen=True)
class AbsenceWindow:
    object_index: int
    start_s: float
    duration_s: float


@dataclass
class SceneConfig:
    image_h: float = 600.0
    image_w: float = 800.0
    fps: float = 2.0
    duration_s: float = 12.0
    profiles: tuple[ClassProfile, ...] = (ClassProfile(0),)
    objects_per_class: int = 3
    semantic_dim: int = 16
    appearance_dim: int = 16
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    lookalike_appearance: bool = False
    absence_windows: tuple[AbsenceWindow, ...] = ()
    gt_annotated_fraction: float = 1.0
    max_detections: int = 50
    nms_iou_thr: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (_finite_positive(self.fps)
                and _finite_positive(self.duration_s)):
            raise SimulatorError("fps and duration must be positive")
        if self.num_frames < 1:
            raise SimulatorError(
                f"duration_s {self.duration_s} at fps {self.fps} gives no frame")
        if not (_finite_positive(self.image_h)
                and _finite_positive(self.image_w)):
            raise SimulatorError("image sides must be positive and finite")
        if not self.profiles or self.objects_per_class < 1:
            raise SimulatorError("need at least one profile and one object")
        if self.semantic_dim < 1 or self.appearance_dim < 1:
            raise SimulatorError("cue dims must be at least 1")
        if self.max_detections < 1:
            raise SimulatorError("max_detections must be at least 1")
        if not 0.0 < self.nms_iou_thr <= 1.0:
            raise SimulatorError("nms_iou_thr must be in (0, 1]")
        n_objects = len(self.profiles) * self.objects_per_class
        for a in self.absence_windows:
            if not 0 <= a.object_index < n_objects:
                raise SimulatorError(
                    f"absence window object_index {a.object_index} is not "
                    f"one of the scene's {n_objects} objects")
            if not _finite_non_negative(a.start_s):
                raise SimulatorError(f"absence window start_s {a.start_s} "
                                     f"must be finite and non-negative")
            if not _finite_positive(a.duration_s):
                raise SimulatorError(f"absence window duration_s "
                                     f"{a.duration_s} must be positive and finite")
        if not 0.0 < self.gt_annotated_fraction <= 1.0:
            raise SimulatorError("gt_annotated_fraction must be in (0, 1]")

    @property
    def num_frames(self) -> int:
        """``duration_s * fps`` to the nearest whole frame, a half frame
        rounding up: one rule for every duration, where ``round`` would
        take halves to the even count."""
        return math.floor(self.duration_s * self.fps + 0.5)


def _hash_rng(*parts) -> np.random.Generator:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


@functools.cache
def _unit_vector(kind: str, class_id: int, dim: int) -> np.ndarray:
    v = _hash_rng(kind, class_id, dim).normal(size=dim)
    v /= np.linalg.norm(v)
    v.flags.writeable = False   # cached: shared by every caller
    return v


def class_prototype(class_id: int, dim: int) -> np.ndarray:
    """Deterministic unit semantic prototype, stable across scenes
    (read-only)."""
    return _unit_vector("semantic_prototype", class_id, dim)


class _ObjectState:
    """Trajectory generator for one simulated object."""

    def __init__(self, track_id: int, profile: ClassProfile, cfg: SceneConfig,
                 rng: np.random.Generator):
        self.track_id = track_id
        self.profile = profile
        w, h = cfg.image_w, cfg.image_h
        self.image_w, self.image_h = float(w), float(h)
        self.x = rng.uniform(0.15 * w, 0.85 * w)
        self.y = rng.uniform(0.15 * h, 0.85 * h)
        theta = rng.uniform(0, 2 * np.pi)
        self.dx, self.dy = float(np.cos(theta)), float(np.sin(theta))
        self.phase = rng.uniform(0, 2 * np.pi)
        self.sin_amp = rng.uniform(0.5, 1.5) * profile.speed_px_per_s
        self.sin_freq = rng.uniform(0.3, 0.8)  # Hz
        mean_w, mean_h = profile.size_px
        self.area = mean_w * mean_h
        self.aspect = mean_w / mean_h
        self.rng = rng
        # identity appearance vector, optionally near the class anchor
        raw = rng.normal(size=cfg.appearance_dim)
        raw /= np.linalg.norm(raw)
        if cfg.lookalike_appearance:
            anchor = _unit_vector("appearance_anchor", profile.class_id,
                                  cfg.appearance_dim)
            raw = anchor + 0.15 * raw
            raw /= np.linalg.norm(raw)
        self.appearance = raw

    def step(self, dt: float, t: float) -> None:
        kind = self.profile.motion_kind
        speed = self.profile.speed_px_per_s
        if kind == "linear":
            vx, vy = speed * self.dx, speed * self.dy
        elif kind == "sinusoidal":
            # the wobble runs along the perpendicular (-dy, dx)
            omega = 2 * np.pi * self.sin_freq
            wobble = self.sin_amp * omega * float(np.cos(omega * t + self.phase))
            vx = speed * self.dx - wobble * self.dy
            vy = speed * self.dy + wobble * self.dx
        else:  # random walk
            theta = self.rng.uniform(0, 2 * np.pi)
            vx, vy = speed * float(np.cos(theta)), speed * float(np.sin(theta))
        self.x += vx * dt
        self.y += vy * dt
        # reflect at image borders to keep the object in view
        if self.x < 0:
            self.x, self.dx = -self.x, -self.dx
        elif self.x > self.image_w:
            self.x, self.dx = 2 * self.image_w - self.x, -self.dx
        if self.y < 0:
            self.y, self.dy = -self.y, -self.dy
        elif self.y > self.image_h:
            self.y, self.dy = 2 * self.image_h - self.y, -self.dy
        # aspect-ratio random walk at the profile's deformation rate
        self.aspect = _clip(self.aspect * float(np.exp(self.rng.normal(
            0.0, self.profile.arc_rate * dt))), 0.2, 5.0)

    def box(self) -> Box:
        w = math.sqrt(self.area * self.aspect)
        h = math.sqrt(self.area / self.aspect)
        x0 = _clip(self.x - w / 2, 0.0, self.image_w - 1)
        y0 = _clip(self.y - h / 2, 0.0, self.image_h - 1)
        x1 = _clip(self.x + w / 2, x0 + 1e-3, self.image_w)
        y1 = _clip(self.y + h / 2, y0 + 1e-3, self.image_h)
        return Box(x0, y0, x1, y1)


def generate(cfg: SceneConfig, sequence_seed: int | None = None) -> list[FrameSample]:
    """One sequence of frames with full ground truth and noisy detections."""
    seed = cfg.seed if sequence_seed is None else sequence_seed
    rng = _hash_rng("scene", seed)
    objects: list[_ObjectState] = []
    tid = 0
    for profile in cfg.profiles:
        for _ in range(cfg.objects_per_class):
            objects.append(_ObjectState(tid, profile, cfg, _hash_rng("object", seed, tid)))
            tid += 1
    absences: dict[int, list[AbsenceWindow]] = {}
    for a in cfg.absence_windows:
        absences.setdefault(a.object_index, []).append(a)
    # sparse annotation: only a deterministic subset of tracks carries GT
    annotated = {obj.track_id for obj in objects
                 if cfg.gt_annotated_fraction >= 1.0
                 or _hash_rng("annotated", seed, obj.track_id).uniform()
                 < cfg.gt_annotated_fraction}
    appearance_by_id = {o.track_id: o.appearance for o in objects}
    dt = 1.0 / cfg.fps
    frames: list[FrameSample] = []
    for fi in range(cfg.num_frames):
        t = fi * dt
        if fi > 0:
            for obj in objects:
                obj.step(dt, t)
        visible = []
        for idx, obj in enumerate(objects):
            windows = absences.get(idx)
            if windows and any(a.start_s <= t < a.start_s + a.duration_s
                               for a in windows):
                continue
            visible.append((obj.track_id, obj.box(), obj.profile.class_id))
        detections = detect(visible, cfg, _hash_rng("detect", seed, fi),
                            appearance_by_id)
        gt = [g for g in visible if g[0] in annotated]
        frames.append(FrameSample(frame_id=fi, time_s=t, detections=detections, gt=gt))
    return frames


def detect(gt: list[tuple[int, Box, int]], cfg: SceneConfig,
           rng: np.random.Generator,
           appearance_by_id: dict[int, np.ndarray]) -> list[Detection]:
    """Noisy detection channel over one frame's ground truth."""
    noise = cfg.noise
    raw: list[Detection] = []
    for track_id, box, class_id in gt:
        if rng.uniform() < noise.drop_prob:
            continue
        if noise.box_jitter_sigma > 0:
            j = rng.normal(0, noise.box_jitter_sigma, size=4).tolist()
            x0, y0 = box.x_min + j[0], box.y_min + j[1]
            x1, y1 = box.x_max + j[2], box.y_max + j[3]
            box = Box(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        sem = class_prototype(class_id, cfg.semantic_dim) \
            + rng.normal(0, noise.semantic_sigma, size=cfg.semantic_dim)
        app = appearance_by_id[track_id] \
            + rng.normal(0, noise.appearance_sigma, size=cfg.appearance_dim)
        score = _clip(rng.normal(0.85, 0.08), 1e-3, 1.0)
        raw.append(Detection(box, score, sem, app, class_id))
    n_fp = rng.poisson(noise.fp_rate) if noise.fp_rate > 0 else 0
    for _ in range(n_fp):
        cx = rng.uniform(0, cfg.image_w)
        cy = rng.uniform(0, cfg.image_h)
        w = rng.uniform(20, 100)
        h = rng.uniform(20, 100)
        box = Box(max(0.0, cx - w / 2), max(0.0, cy - h / 2),
                  min(cfg.image_w, cx + w / 2), min(cfg.image_h, cy + h / 2))
        sem = rng.normal(size=cfg.semantic_dim)
        sem /= np.linalg.norm(sem)
        app = rng.normal(size=cfg.appearance_dim)
        app /= np.linalg.norm(app)
        score = _clip(rng.normal(0.4, 0.1), 1e-3, 1.0)
        raw.append(Detection(box, score, sem, app,
                             int(rng.integers(0, max(1, len(cfg.profiles))))))
    kept = class_agnostic_nms([(d.box, d.score) for d in raw],
                              cfg.nms_iou_thr, cfg.max_detections)
    return [raw[i] for i in kept]


# -- JSONL serialization ----------------------------------------------------

def write_sequence(frames: list[FrameSample], path: str) -> None:
    with open(path, "w") as f:
        for fr in frames:
            rec = {
                "frame": fr.frame_id,
                "time_s": fr.time_s,
                "gt": None if fr.gt is None else
                      [{"id": tid, "box": box.as_list(), "class": cid}
                       for tid, box, cid in fr.gt],
                "detections": [{
                    "box": d.box.as_list(),
                    "score": d.score,
                    "semantic_vec": d.semantic_vec.tolist(),
                    "appearance_vec": d.appearance_vec.tolist(),
                    "class": d.class_id,
                } for d in fr.detections],
            }
            f.write(json.dumps(rec) + "\n")


def _finite_rows(values: list, width: int | None, what: str) -> np.ndarray:
    """``values`` as a finite (N, width) array; ``width`` None takes any."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2:
        raise ValueError(f"{what} must be numeric vectors of one width")
    if width is not None and arr.shape[1] != width:
        raise ValueError(f"{what} has width {arr.shape[1]}, expected {width}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _class_of(obj: dict) -> int:
    """The integer ``class`` of a ground-truth or detection entry; -1 when
    it has none."""
    cid = obj.get("class", -1)
    if type(cid) is not int:
        raise ValueError(f"class {cid!r} is not an integer")
    return cid


def _read_frame(rec, widths: dict[str, int]) -> FrameSample:
    """One JSONL record, checked; ``widths`` keeps each cue vector's width
    from the first record that has detections."""
    if not isinstance(rec, dict):
        raise ValueError("a record must be a JSON object")
    gt = rec.get("gt")
    raw = rec.get("detections", [])
    boxes = [g["box"] for g in gt or ()] + [d["box"] for d in raw]
    if boxes:
        _finite_rows(boxes, 4, "box")
    if gt is not None:
        ids: set[int] = set()
        for g in gt:
            tid = g["id"]
            # ``metrics.pool_sequences`` shifts ids past the previous
            # sequence's largest, so a negative id could collide there
            if type(tid) is not int or tid < 0:
                raise ValueError(f"ground-truth id {tid!r} is not a "
                                 f"non-negative integer")
            if tid in ids:
                raise ValueError(f"ground-truth id {tid} repeats in the frame")
            ids.add(tid)
        gt = [(g["id"], Box(*g["box"]), _class_of(g)) for g in gt]
    dets = []
    if raw:
        scores = np.array([d["score"] for d in raw], dtype=np.float64)
        if not ((scores >= 0.0) & (scores <= 1.0)).all():  # NaN fails too
            raise ValueError("detection score must lie in [0, 1]")
        sem, app = (_finite_rows([d[key] for d in raw], widths.get(key), key)
                    for key in ("semantic_vec", "appearance_vec"))
        widths.setdefault("semantic_vec", sem.shape[1])
        widths.setdefault("appearance_vec", app.shape[1])
        dets = [Detection(Box(*d["box"]), float(d["score"]), s, a,
                          _class_of(d))
                for d, s, a in zip(raw, sem, app)]
    time_s = float(rec["time_s"])
    if not np.isfinite(time_s):
        raise ValueError("time_s must be finite")
    return FrameSample(frame_id=int(rec["frame"]), time_s=time_s,
                       detections=dets, gt=gt)


def read_sequence(path: str) -> list[FrameSample]:
    """Frames of one JSONL file; a malformed record raises
    ``SimulatorError`` naming ``path:line``."""
    frames: list[FrameSample] = []
    widths: dict[str, int] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                frame = _read_frame(json.loads(line), widths)
                if frames and frame.time_s <= frames[-1].time_s:
                    raise ValueError(f"time_s {frame.time_s} does not follow "
                                     f"{frames[-1].time_s}")
            except KeyError as exc:
                raise SimulatorError(f"{path}:{lineno}: missing key {exc}") from None
            except (TypeError, ValueError, GeometryError) as exc:
                raise SimulatorError(f"{path}:{lineno}: {exc}") from None
            frames.append(frame)
    return frames


def write_dataset(sequences: list[list[FrameSample]], out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, frames in enumerate(sequences):
        path = os.path.join(out_dir, f"seq_{i:04d}.jsonl")
        write_sequence(frames, path)
        paths.append(path)
    return paths


def read_dataset(data_dir: str) -> list[list[FrameSample]]:
    names = sorted(n for n in os.listdir(data_dir) if n.endswith(".jsonl"))
    if not names:
        raise SimulatorError(f"no .jsonl sequences under {data_dir}")
    return [read_sequence(os.path.join(data_dir, n)) for n in names]


def generate_dataset(cfg: SceneConfig, num_sequences: int,
                     seed: int | None = None) -> list[list[FrameSample]]:
    base = cfg.seed if seed is None else seed
    return [generate(cfg, sequence_seed=base + i) for i in range(num_sequences)]

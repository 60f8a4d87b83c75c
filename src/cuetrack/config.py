"""Run configuration: defaults, presets, file loading with strict key
checking, and flag overrides."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Any

import yaml

from .model import ModelConfig
from .simulator import (AbsenceWindow, ClassProfile, NoiseConfig, SceneConfig)
from .tracker import TrackerConfig
from .training import TrainConfig


class ConfigError(Exception):
    pass


_DESK_DEFAULTS: dict[str, Any] = {
    "preset": "desk",
    "seed": 0,
    "mode": "open",           # open | closed
    "num_sequences": 10,
    "cues": {
        "semantic": True,
        "location": True,
        "appearance": True,
        "temporal": True,
    },
    "model": {
        "descriptor_dim": 32,
        "num_layers": 4,
        "num_heads": 4,
        "head_hidden": 64,
        "refine_widths": None,
        "sinkhorn_iters": 100,
    },
    "scene": {
        "image_h": 600.0,
        "image_w": 800.0,
        "fps": 2.0,
        "duration_s": 12.0,
        "objects_per_class": 3,
        "semantic_dim": 16,
        "appearance_dim": 16,
        "lookalike_appearance": False,
        "gt_annotated_fraction": 1.0,
        "max_detections": 50,
        "nms_iou_thr": 0.5,
        "profiles": [
            {"class_id": 0, "motion_kind": "linear", "speed_px_per_s": 10.0,
             "arc_rate": 0.05, "size_px": [60.0, 60.0]},
        ],
        "noise": {
            "semantic_sigma": 0.05,
            "appearance_sigma": 0.05,
            "box_jitter_sigma": 0.0,
            "drop_prob": 0.0,
            "fp_rate": 0.0,
        },
        "absence_windows": [],
    },
    "train": {
        "epochs": 12,
        "batch_pairs": 16,
        "learning_rate": 0.008,
        "weight_decay": 1e-4,
        "max_interval_s": 3.0,
        "iou_match_thr": 0.7,
        "sinkhorn_iters": 100,
        "gt_only": False,
    },
    "tracker": {
        "match_score_thr": 0.2,
        "memo_length_s": 10.0,
        "sinkhorn_iters": 100,
    },
}

# appendix values the "paper" preset pins down
_PAPER_FORCED = {
    "model": {
        "descriptor_dim": 256,
        "num_layers": 4,
        "num_heads": 4,
        "head_hidden": 256,
        "refine_widths": [512, 512, 256],
        "sinkhorn_iters": 100,
    },
    "tracker": {
        "match_score_thr": 0.2,
        "memo_length_s": 10.0,
        "sinkhorn_iters": 100,
    },
}


@dataclass
class RunConfig:
    data: dict[str, Any]

    def __getitem__(self, key):
        return self.data[key]

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    def scene_config(self) -> SceneConfig:
        s = self.data["scene"]
        profiles = tuple(
            ClassProfile(class_id=int(p["class_id"]),
                         motion_kind=p.get("motion_kind", "linear"),
                         speed_px_per_s=float(p.get("speed_px_per_s", 10.0)),
                         arc_rate=float(p.get("arc_rate", 0.05)),
                         size_px=tuple(p.get("size_px", (60.0, 60.0))))
            for p in s["profiles"])
        noise = NoiseConfig(**{k: float(v) for k, v in s["noise"].items()})
        windows = tuple(AbsenceWindow(int(w["object_index"]), float(w["start_s"]),
                                      float(w["duration_s"]))
                        for w in s["absence_windows"])
        return SceneConfig(
            image_h=float(s["image_h"]), image_w=float(s["image_w"]),
            fps=float(s["fps"]), duration_s=float(s["duration_s"]),
            profiles=profiles, objects_per_class=int(s["objects_per_class"]),
            semantic_dim=int(s["semantic_dim"]),
            appearance_dim=int(s["appearance_dim"]), noise=noise,
            lookalike_appearance=bool(s["lookalike_appearance"]),
            absence_windows=windows,
            gt_annotated_fraction=float(s["gt_annotated_fraction"]),
            max_detections=int(s["max_detections"]),
            nms_iou_thr=float(s["nms_iou_thr"]), seed=self.seed)

    def model_config(self) -> ModelConfig:
        m = self.data["model"]
        cues = self.data["cues"]
        refine = m["refine_widths"]
        return ModelConfig(
            descriptor_dim=int(m["descriptor_dim"]),
            semantic_dim=int(self.data["scene"]["semantic_dim"]),
            appearance_dim=int(self.data["scene"]["appearance_dim"]),
            head_hidden=int(m["head_hidden"]),
            num_layers=int(m["num_layers"]), num_heads=int(m["num_heads"]),
            refine_widths=tuple(int(w) for w in refine) if refine else None,
            use_semantic=bool(cues["semantic"]),
            use_location=bool(cues["location"]),
            use_appearance=bool(cues["appearance"]),
            use_temporal=bool(cues["temporal"]),
            closed_set=self.data["mode"] == "closed",
            sinkhorn_iters=int(m["sinkhorn_iters"]),
            seed=self.seed)

    def train_config(self) -> TrainConfig:
        t = self.data["train"]
        return TrainConfig(
            epochs=int(t["epochs"]), batch_pairs=int(t["batch_pairs"]),
            learning_rate=float(t["learning_rate"]),
            weight_decay=float(t["weight_decay"]),
            max_interval_s=float(t["max_interval_s"]),
            iou_match_thr=float(t["iou_match_thr"]),
            sinkhorn_iters=int(t["sinkhorn_iters"]),
            gt_only=bool(t["gt_only"]), seed=self.seed)

    def tracker_config(self) -> TrackerConfig:
        t = self.data["tracker"]
        return TrackerConfig(
            match_score_thr=float(t["match_score_thr"]),
            memo_length_s=float(t["memo_length_s"]),
            sinkhorn_iters=int(t["sinkhorn_iters"]))


def _merge_checked(base: dict, update: dict, path: str = "") -> None:
    # list-valued keys (profiles, noise fields inside them, ...) replace wholesale
    for key, value in update.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge_checked(base[key], value, where)
        else:
            base[key] = value


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path: str | None = None,
                overrides: dict[str, Any] | None = None) -> RunConfig:
    """Defaults + optional config file + dotted-path flag overrides.

    Unknown keys are rejected with the offending key named. The "paper"
    preset pins the published model/tracker values after merging.
    """
    data = copy.deepcopy(_DESK_DEFAULTS)
    if path is not None:
        with open(path) as f:
            loaded = yaml.safe_load(f) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        _merge_checked(data, loaded)
    for dotted, value in (overrides or {}).items():
        node = data
        parts = dotted.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown key {dotted!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown key {dotted!r}")
        node[parts[-1]] = _parse_scalar(value) if isinstance(value, str) else value

    if data["preset"] not in ("desk", "paper"):
        raise ConfigError(f"unknown preset {data['preset']!r}")
    if data["mode"] not in ("open", "closed"):
        raise ConfigError(f"unknown mode {data['mode']!r}")
    if data["preset"] == "paper":
        for section, forced in _PAPER_FORCED.items():
            data[section].update(copy.deepcopy(forced))
    cues = data["cues"]
    if not (cues["semantic"] or cues["location"] or cues["appearance"]):
        raise ConfigError("all cues disabled: nothing to match on")
    return RunConfig(data)

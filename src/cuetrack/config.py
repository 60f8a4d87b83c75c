"""Run configuration: defaults, presets, file loading with strict key
checking, and flag overrides.

Each section's keys, defaults and value types are the fields of its
dataclass (``ModelConfig``, ``SceneConfig``, ``TrainConfig``,
``TrackerConfig``). The ``cues``, ``mode``, top-level ``seed`` and
``scene.*_dim`` keys fill the ``ModelConfig`` fields of the same meaning.
"""

from __future__ import annotations

import copy
import json
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Any

import yaml

from .model import ModelConfig, paper_preset
from .simulator import SceneConfig
from .tracker import TrackerConfig
from .training import TrainConfig


class ConfigError(Exception):
    pass


_CUES = ("semantic", "location", "appearance", "temporal")
# ModelConfig fields that other keys set: the cue switches, the mode, the
# scene's input widths and the top-level seed
_MODEL_ELSEWHERE = {f"use_{c}" for c in _CUES} | {
    "closed_set", "semantic_dim", "appearance_dim", "seed"}


def _section(cfg, drop=frozenset({"seed"})) -> dict[str, Any]:
    return {k: v for k, v in asdict(cfg).items() if k not in drop}


_DESK_DEFAULTS: dict[str, Any] = {
    "preset": "desk",
    "seed": 0,
    "mode": "open",           # open | closed
    "num_sequences": 10,
    "cues": {c: getattr(ModelConfig(), f"use_{c}") for c in _CUES},
    "model": _section(ModelConfig(), _MODEL_ELSEWHERE),
    "scene": _section(SceneConfig()),
    "train": _section(TrainConfig()),
    "tracker": _section(TrackerConfig()),
}

# appendix values the "paper" preset pins down
_PAPER_FORCED = {
    "model": {k: v for k, v in asdict(paper_preset()).items()
              if k in _DESK_DEFAULTS["model"]},
    "tracker": _section(TrackerConfig()),
}


def _cast(hint, value, where: str):
    """``value`` as the annotated type: nested dataclasses from mappings,
    tuples element by element, a bool only from a bool, an int only from
    an integral number, other scalars through their constructor."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if not value:   # an empty or null value leaves an optional field unset
            return None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if is_dataclass(hint):
        return _build(hint, value, where)
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise ConfigError(f"{where} needs {len(args)} values")
        return tuple(_cast(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
        return value
    if hint is int:
        if isinstance(value, bool) or not (
                isinstance(value, int)
                or isinstance(value, float) and value.is_integer()):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(value)
    return hint(value)


def _build(cls, values: dict[str, Any], where: str):
    """``cls`` from a config mapping whose keys name its fields."""
    if not isinstance(values, dict):
        raise ConfigError(f"{where} must be a mapping")
    hints = typing.get_type_hints(cls)
    unknown = sorted(values.keys() - hints.keys())
    if unknown:
        raise ConfigError(f"unknown key {where + '.' + unknown[0]!r}")
    missing = [f.name for f in fields(cls) if f.name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing key {where + '.' + missing[0]!r}")
    return cls(**{k: _cast(hints[k], v, f"{where}.{k}")
                  for k, v in values.items()})


@dataclass
class RunConfig:
    data: dict[str, Any]

    def __getitem__(self, key):
        return self.data[key]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def scene_config(self) -> SceneConfig:
        return _build(SceneConfig, dict(self.data["scene"], seed=self.seed),
                      "scene")

    def model_config(self) -> ModelConfig:
        d = self.data
        values = dict(d["model"], semantic_dim=d["scene"]["semantic_dim"],
                      appearance_dim=d["scene"]["appearance_dim"],
                      closed_set=d["mode"] == "closed", seed=self.seed,
                      **{f"use_{c}": d["cues"][c] for c in _CUES})
        return _build(ModelConfig, values, "model")

    def train_config(self) -> TrainConfig:
        return _build(TrainConfig, dict(self.data["train"], seed=self.seed),
                      "train")

    def tracker_config(self) -> TrackerConfig:
        return _build(TrackerConfig, self.data["tracker"], "tracker")


def _merge_checked(base: dict, update: dict, path: str = "") -> None:
    # list-valued keys (profiles, absence windows) replace wholesale
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
    for key in ("seed", "num_sequences"):
        data[key] = _cast(int, data[key], key)
    cues = {c: _cast(bool, data["cues"][c], f"cues.{c}") for c in _CUES}
    if not (cues["semantic"] or cues["location"] or cues["appearance"]):
        raise ConfigError("all cues disabled: nothing to match on")
    return RunConfig(data)

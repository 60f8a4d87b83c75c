"""Run configuration in layers, with strict key checking: the preset's
defaults, then an optional config file, then flag overrides.

Each section's keys, defaults and value types are the fields of its
dataclass (``ModelConfig``, ``SceneConfig``, ``TrainConfig``,
``TrackerConfig``). The ``cues``, ``mode``, top-level ``seed`` and
``scene.*_dim`` keys fill the ``ModelConfig`` fields of the same meaning.
``load_config`` builds and checks all four sections before it returns.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Any

import yaml

from .model import ModelConfig, ModelError, paper_preset
from .simulator import SceneConfig, SimulatorError
from .tracker import TrackerConfig, TrackerError
from .training import TrainConfig, TrainingError


class ConfigError(Exception):
    pass


_CUES = ("semantic", "location", "appearance", "temporal")
# ModelConfig fields that other keys set: the cue switches, the mode, the
# scene's input widths and the top-level seed
_MODEL_ELSEWHERE = {f"use_{c}" for c in _CUES} | {
    "closed_set", "semantic_dim", "appearance_dim", "seed"}


def _section(cfg, drop=frozenset({"seed"})) -> dict[str, Any]:
    return {k: v for k, v in asdict(cfg).items() if k not in drop}


def _defaults(preset: str) -> dict[str, Any]:
    """Every key's default; the "paper" preset's model section is
    ``paper_preset()``."""
    model = paper_preset() if preset == "paper" else ModelConfig()
    return {
        "preset": preset,
        "seed": 0,
        "mode": "open",           # open | closed
        "num_sequences": 10,
        "cues": {c: getattr(model, f"use_{c}") for c in _CUES},
        "model": _section(model, _MODEL_ELSEWHERE),
        "scene": _section(SceneConfig()),
        "train": _section(TrainConfig()),
        "tracker": _section(TrackerConfig()),
    }


def _cast(hint, value, where: str):
    """``value`` as the annotated type: nested dataclasses from mappings,
    tuples element by element from a list only, a bool only from a bool,
    an int only from an integral number, a float only from a finite
    number, other scalars through their constructor."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        # a null or empty value leaves an optional field unset
        if value is None or value == "" or value == []:
            return None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if is_dataclass(hint):
        return _build(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
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
    try:
        cast = hint(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{where} must be a {hint.__name__}, got {value!r}") from None
    if hint is float and not math.isfinite(cast):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return cast


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
    kwargs = {k: _cast(hints[k], v, f"{where}.{k}") for k, v in values.items()}
    try:
        return cls(**kwargs)
    except (ModelError, SimulatorError, TrainingError, TrackerError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    preset: str
    seed: int
    num_sequences: int
    scene: SceneConfig
    model: ModelConfig
    train: TrainConfig
    tracker: TrackerConfig


def _merge_checked(base: dict, update: dict, path: str = "") -> None:
    # list-valued keys (profiles, absence windows) replace wholesale
    for key, value in update.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge_checked(base[key], value, where)
        elif isinstance(value, dict):
            raise ConfigError(f"{where} is not a section")
        else:
            base[key] = value


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path: str | None = None,
                overrides: dict[str, Any] | None = None) -> RunConfig:
    """The preset's defaults, then the optional config file, then each
    dotted-path flag override, built into every section's dataclass.

    Each later layer overrides the earlier ones; the preset itself is read
    from the last layer that sets it. Unknown keys and bad values raise
    ``ConfigError`` naming the key or the section.
    """
    layers = []
    if path is not None:
        with open(path) as f:
            loaded = yaml.safe_load(f) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        layers.append(loaded)
    for dotted, value in (overrides or {}).items():
        layer = _parse_scalar(value) if isinstance(value, str) else value
        for part in reversed(dotted.split(".")):
            layer = {part: layer}
        layers.append(layer)
    preset = next((layer["preset"] for layer in reversed(layers)
                   if "preset" in layer), "desk")
    if preset not in ("desk", "paper"):
        raise ConfigError(f"unknown preset {preset!r}")
    data = _defaults(preset)
    for layer in layers:
        _merge_checked(data, layer)
    if data["mode"] not in ("open", "closed"):
        raise ConfigError(f"unknown mode {data['mode']!r}")
    seed = _cast(int, data["seed"], "seed")
    cues = {c: _cast(bool, data["cues"][c], f"cues.{c}") for c in _CUES}
    scene = data["scene"]
    model = dict(data["model"], semantic_dim=scene["semantic_dim"],
                 appearance_dim=scene["appearance_dim"],
                 closed_set=data["mode"] == "closed", seed=seed,
                 **{f"use_{c}": on for c, on in cues.items()})
    return RunConfig(
        preset, seed,
        _cast(int, data["num_sequences"], "num_sequences"),
        scene=_build(SceneConfig, dict(scene, seed=seed), "scene"),
        model=_build(ModelConfig, model, "model"),
        train=_build(TrainConfig, dict(data["train"], seed=seed), "train"),
        tracker=_build(TrackerConfig, data["tracker"], "tracker"))

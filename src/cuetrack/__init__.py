"""Multi-object association engine: semantic/location/appearance cue
fusion through a spatial-temporal attention graph, resolved by
dustbin-augmented Sinkhorn optimal transport, with a built-in synthetic
scene simulator for training and evaluation."""

from .autodiff import ParameterStore, Tensor, grad_check, load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .geometry import Box, NormalizedBox, iou, normalize_box
from .model import AssocModel, ModelConfig
from .simulator import ClassProfile, Detection, FrameSample, SceneConfig
from .tracker import Tracker, TrackerConfig, Tracklet, dynamic_threshold, track_sequence
from .training import TrainConfig, train

__all__ = [
    "AssocModel", "Box", "ClassProfile", "Detection", "FrameSample",
    "ModelConfig", "NormalizedBox", "ParameterStore", "RunConfig",
    "SceneConfig", "Tensor", "Tracker", "TrackerConfig", "Tracklet", "TrainConfig",
    "dynamic_threshold", "grad_check", "iou", "load_checkpoint",
    "load_config", "normalize_box", "save_checkpoint", "track_sequence",
    "train",
]

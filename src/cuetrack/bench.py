"""Shared benchmark scene used by the ablation experiments and tests.

Three object classes with distinct motion statistics share a crowded scene;
appearance vectors are drawn in lookalike mode so they separate identities
within a class but not across classes. The detection channel is deliberately
noisy (box jitter, dropped objects, a high false-positive rate) and only half
of the tracks carry annotations, which is the regime where training on the
detection channel pays off over training on annotated boxes alone.
"""
from __future__ import annotations

from dataclasses import dataclass

from .metrics import EvalReport, association_accuracy, pool_sequences
from .model import AssocModel, ModelConfig
from .simulator import (ClassProfile, FrameSample, NoiseConfig, SceneConfig,
                        generate_dataset)
from .tracker import TrackerConfig, track_sequence
from .training import TrainConfig, train

IMAGE_H = 600.0
IMAGE_W = 800.0

TRAIN_SEED = 100
TEST_SEED = 900
MODEL_SEED = 3
OPT_SEED = 7

NUM_TRAIN_SEQUENCES = 100
NUM_TEST_SEQUENCES = 20
EPOCHS = 10


def benchmark_scene(seed: int) -> SceneConfig:
    return SceneConfig(
        image_h=IMAGE_H, image_w=IMAGE_W, fps=2.0, duration_s=12.0,
        profiles=(ClassProfile(0, "linear", 40.0, 0.02, (70.0, 50.0)),
                  ClassProfile(1, "sinusoidal", 25.0, 0.05, (50.0, 80.0)),
                  ClassProfile(2, "random_walk", 15.0, 0.1, (60.0, 60.0))),
        objects_per_class=3, semantic_dim=16, appearance_dim=16,
        noise=NoiseConfig(semantic_sigma=0.05, appearance_sigma=0.05,
                          box_jitter_sigma=2.5, drop_prob=0.08, fp_rate=1.2),
        lookalike_appearance=True, gt_annotated_fraction=0.5, seed=seed)


def benchmark_data() -> tuple[list[list[FrameSample]], list[list[FrameSample]]]:
    """(train, test) sequence sets for the standard benchmark."""
    train_set = generate_dataset(benchmark_scene(TRAIN_SEED),
                                 NUM_TRAIN_SEQUENCES, TRAIN_SEED)
    test_set = generate_dataset(benchmark_scene(TEST_SEED),
                                NUM_TEST_SEQUENCES, TEST_SEED)
    return train_set, test_set


def evaluate_tracker(asm: AssocModel,
                     test_set: list[list[FrameSample]]) -> EvalReport:
    """Track every test sequence and pool them into one evaluation."""
    rows = [track_sequence([(f.time_s, f.detections) for f in seq],
                           asm, TrackerConfig(), IMAGE_H, IMAGE_W)
            for seq in test_set]
    return association_accuracy(*pool_sequences(test_set, rows))


@dataclass(frozen=True)
class ArmResult:
    name: str
    report: EvalReport


# Each ablation arm's ModelConfig and TrainConfig settings over run_arm's
# defaults; gt_only trains on annotated ground-truth boxes alone.
ARMS: dict[str, tuple[dict, dict]] = {
    "full": ({}, {}),
    "loc_only": ({"use_semantic": False, "use_appearance": False}, {}),
    "app_only": ({"use_semantic": False, "use_location": False}, {}),
    "gt_only": ({}, {"gt_only": True}),
}


def run_arm(name: str,
            train_set: list[list[FrameSample]],
            test_set: list[list[FrameSample]],
            epochs: int = EPOCHS) -> ArmResult:
    """Train the ``ARMS`` arm ``name`` on the benchmark and evaluate it."""
    model_settings, train_settings = ARMS[name]
    mcfg = ModelConfig(descriptor_dim=32, semantic_dim=16, appearance_dim=16,
                       seed=MODEL_SEED, **model_settings)
    asm = AssocModel(mcfg)
    tcfg = TrainConfig(epochs=epochs, batch_pairs=16, seed=OPT_SEED,
                       **train_settings)
    train(train_set, tcfg, asm, IMAGE_H, IMAGE_W)
    return ArmResult(name, evaluate_tracker(asm, test_set))

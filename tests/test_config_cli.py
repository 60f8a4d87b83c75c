"""Config loading (defaults, file merge, overrides, presets) and the
command-line surface, including the full simulate -> train -> track ->
eval pipeline with byte-identical determinism."""
import json
import os

import pytest
import yaml

from cuetrack.cli import main
from cuetrack.config import ConfigError, load_config
from cuetrack.model import ModelConfig, paper_preset
from cuetrack.simulator import ClassProfile, SceneConfig
from cuetrack.tracker import TrackerConfig
from cuetrack.training import TrainConfig


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg["preset"] == "desk"
        assert cfg.model_config().descriptor_dim == 32
        assert cfg.tracker_config().match_score_thr == 0.2
        assert cfg.train_config().epochs == 12
        assert cfg.train_config().learning_rate == 0.008
        assert cfg.train_config().weight_decay == 1e-4
        assert cfg.train_config().batch_pairs == 16
        assert cfg.train_config().max_interval_s == 3.0
        assert cfg.model_config() == ModelConfig()
        assert cfg.scene_config() == SceneConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.tracker_config() == TrackerConfig()

    def test_one_sinkhorn_iteration_count(self):
        assert load_config(overrides={"model.sinkhorn_iters": "30"}) \
            .model_config().sinkhorn_iters == 30
        for key in ("train.sinkhorn_iters", "tracker.sinkhorn_iters"):
            with pytest.raises(ConfigError, match=key):
                load_config(overrides={key: "30"})

    def test_profile_entry_keys_checked(self):
        cfg = load_config(overrides={
            "scene.profiles": '[{"class_id": 1, "speed_px_per_s": 5}]'})
        assert cfg.scene_config().profiles == (
            ClassProfile(1, speed_px_per_s=5.0),)
        cfg = load_config(overrides={
            "scene.profiles": '[{"class_id": 0, "sped": 99}]'})
        with pytest.raises(ConfigError, match=r"scene\.profiles\[0\]\.sped"):
            cfg.scene_config()

    def test_absence_window_keys_checked(self):
        cfg = load_config(overrides={"scene.absence_windows":
                                     '[{"object_index": 0, "start": 1.0,'
                                     ' "duration_s": 2.0}]'})
        with pytest.raises(ConfigError,
                           match=r"scene\.absence_windows\[0\]\.start"):
            cfg.scene_config()

    def test_yaml_file_merge(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(
            {"seed": 5, "scene": {"fps": 4.0},
             "train": {"epochs": 2}}))
        cfg = load_config(str(path))
        assert cfg.seed == 5
        assert cfg.scene_config().fps == 4.0
        assert cfg.train_config().epochs == 2
        assert cfg.train_config().batch_pairs == 16  # untouched default

    def test_json_file_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"num_sequences": 3}))
        assert load_config(str(path))["num_sequences"] == 3

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"scene": {"pfs": 4.0}}))
        with pytest.raises(ConfigError, match="scene.pfs"):
            load_config(str(path))

    def test_dotted_overrides(self):
        cfg = load_config(overrides={"tracker.match_score_thr": "0.35",
                                     "scene.noise.fp_rate": "0.4"})
        assert cfg.tracker_config().match_score_thr == 0.35
        assert cfg.scene_config().noise.fp_rate == 0.4

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"tracker.threshold": "0.3"})

    def test_paper_preset_forces_published_values(self):
        cfg = load_config(overrides={"preset": "paper",
                                     "model.descriptor_dim": "8"})
        m = cfg.model_config()
        assert m.descriptor_dim == 256
        assert m.refine_widths == (512, 512, 256)
        assert m == paper_preset()
        assert cfg.tracker_config().match_score_thr == 0.2
        assert cfg.tracker_config().memo_length_s == 10.0

    def test_bool_field_takes_only_a_bool(self):
        cfg = load_config(overrides={"train.gt_only": "False"})
        with pytest.raises(ConfigError, match=r"train\.gt_only must be true"):
            cfg.train_config()
        with pytest.raises(ConfigError, match=r"cues\.temporal must be true"):
            load_config(overrides={"cues.temporal": "False"})
        cfg = load_config(overrides={"train.gt_only": "true",
                                     "cues.temporal": "false"})
        assert cfg.train_config().gt_only
        assert not cfg.model_config().use_temporal

    def test_int_field_takes_only_an_integral_number(self):
        for value in ("32.5", "true", '"32"'):
            cfg = load_config(overrides={"model.descriptor_dim": value})
            with pytest.raises(ConfigError,
                               match=r"model\.descriptor_dim must be an integer"):
                cfg.model_config()
        cfg = load_config(overrides={"model.descriptor_dim": "16.0"})
        assert cfg.model_config().descriptor_dim == 16
        for key in ("seed", "num_sequences"):
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                load_config(overrides={key: "3.5"})

    def test_all_cues_disabled_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"cues.semantic": "false",
                                   "cues.location": "false",
                                   "cues.appearance": "false"})

    def test_closed_mode_widens_location_input(self):
        cfg = load_config(overrides={"mode": '"closed"'})
        assert cfg.model_config().closed_set
        assert cfg.model_config().location_width == 5


FAST = [
    "--set", "scene.duration_s=6",
    "--set", "train.epochs=2",
    "--set", "model.sinkhorn_iters=30",
    "--set", "model.descriptor_dim=8",
    "--set", "model.head_hidden=16",
    "--set", "model.num_layers=2",
    "--set", "model.num_heads=2",
    "--set", "model.refine_widths=[16,8]",
]


def _pipeline(tmp, seed="3"):
    data = str(tmp / "data")
    ckpt = str(tmp / "model.ckpt")
    results = str(tmp / "results.csv")
    report = str(tmp / "report.csv")
    assert main(["simulate", "--out", data, "--seed", seed,
                 "--num-sequences", "4", *FAST]) == 0
    assert main(["train", "--data", data, "--out", ckpt, "--seed", seed,
                 *FAST]) == 0
    assert main(["track", "--ckpt", ckpt, "--data", data, "--out", results,
                 "--seed", seed, *FAST]) == 0
    assert main(["eval", "--pred", results, "--gt", data,
                 "--out", report]) == 0
    return data, ckpt, results, report


class TestCli:
    def test_full_pipeline(self, tmp_path, capsys):
        data, ckpt, results, report = _pipeline(tmp_path)
        assert len(os.listdir(data)) == 4
        assert os.path.getsize(ckpt) > 0
        assert open(results).readline().startswith("frame,id")
        body = open(report).read()
        assert body.startswith("association_accuracy")
        assert "tracked 4 sequences" in capsys.readouterr().out

    def test_pipeline_is_byte_deterministic(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        files_a = _pipeline(out_a)
        files_b = _pipeline(out_b)
        for fa, fb in zip(files_a[1:], files_b[1:]):  # ckpt, results, report
            assert open(fa, "rb").read() == open(fb, "rb").read(), fa
        for name in sorted(os.listdir(files_a[0])):
            assert open(os.path.join(files_a[0], name), "rb").read() == \
                open(os.path.join(files_b[0], name), "rb").read()

    def test_track_without_checkpoint_fails(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        assert main(["simulate", "--out", data, "--num-sequences", "1",
                     *FAST]) == 0
        rc = main(["track", "--ckpt", str(tmp_path / "missing.ckpt"),
                   "--data", data, "--out", str(tmp_path / "r.csv"), *FAST])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_bad_override_exits_2(self, tmp_path, capsys):
        for override in ("scene.sped=3",
                         'scene.profiles=[{"class_id": 0, "sped": 99}]',
                         'scene.absence_windows=[{"object_index": 0,'
                         ' "start": 1.0, "duration_s": 2.0}]'):
            rc = main(["simulate", "--out", str(tmp_path / "d"),
                       "--set", override])
            assert rc == 2
            assert "unknown key" in capsys.readouterr().err

    def test_malformed_set_flag(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "d"),
                   "--set", "justakey"])
        assert rc == 2

    def test_analyze_writes_kde_curves(self, tmp_path):
        data = str(tmp_path / "data")
        out = str(tmp_path / "kde")
        assert main(["simulate", "--out", data, "--num-sequences", "2",
                     *FAST]) == 0
        assert main(["analyze", "--gt", data, "--out", out]) == 0
        names = os.listdir(out)
        assert "class_motion_summary.csv" in names
        assert any(n.endswith("_displacement_kde.csv") for n in names)

    def test_track_rejects_checkpoint_of_another_width(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["simulate", "--out", data, "--num-sequences", "2",
                     *FAST]) == 0
        assert main(["train", "--data", data, "--out", ckpt, *FAST]) == 0
        capsys.readouterr()
        rc = main(["track", "--ckpt", ckpt, "--data", data,
                   "--out", str(tmp_path / "r.csv"), *FAST,
                   "--set", "model.descriptor_dim=16"])
        assert rc == 1
        assert "parameter sem.l4.W has shape (16, 8), the model needs " \
            "(16, 16)" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r.csv")

    def test_mistyped_bool_or_int_exits_2(self, tmp_path, capsys):
        for override, message in (
                ("cues.temporal=False", "cues.temporal must be true or false"),
                ("scene.objects_per_class=2.5",
                 "scene.objects_per_class must be an integer")):
            rc = main(["simulate", "--out", str(tmp_path / "d"),
                       "--set", override])
            assert rc == 2
            assert message in capsys.readouterr().err

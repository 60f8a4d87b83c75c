"""Config loading (defaults, file merge, overrides, presets) and the
command-line surface, including the full simulate -> train -> track ->
eval pipeline with byte-identical determinism."""
import dataclasses
import json
import os
import struct
import subprocess
import sys
import textwrap

import pytest
import yaml

from cuetrack.cli import _build_config, build_parser, main
from cuetrack.config import ConfigError, load_config
from cuetrack.model import ModelConfig, paper_preset
from cuetrack.geometry import Box
from cuetrack.simulator import (ClassProfile, FrameSample, SceneConfig,
                                write_dataset)
from cuetrack.tracker import TrackerConfig, write_results
from cuetrack.training import TrainConfig


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.preset == "desk"
        assert cfg.model.descriptor_dim == 32
        assert cfg.tracker.match_score_thr == 0.2
        assert cfg.train.epochs == 12
        assert cfg.train.learning_rate == 0.008
        assert cfg.train.weight_decay == 1e-4
        assert cfg.train.batch_pairs == 16
        assert cfg.train.max_interval_s == 3.0
        assert cfg.model == ModelConfig()
        assert cfg.scene == SceneConfig()
        assert cfg.train == TrainConfig()
        assert cfg.tracker == TrackerConfig()

    def test_one_sinkhorn_iteration_count(self):
        assert load_config(overrides={"model.sinkhorn_iters": "30"}) \
            .model.sinkhorn_iters == 30
        for key in ("train.sinkhorn_iters", "tracker.sinkhorn_iters"):
            with pytest.raises(ConfigError, match=key):
                load_config(overrides={key: "30"})

    def test_profile_entry_keys_checked(self):
        cfg = load_config(overrides={
            "scene.profiles": '[{"class_id": 1, "speed_px_per_s": 5}]'})
        assert cfg.scene.profiles == (
            ClassProfile(1, speed_px_per_s=5.0),)
        with pytest.raises(ConfigError, match=r"scene\.profiles\[0\]\.sped"):
            load_config(overrides={
                "scene.profiles": '[{"class_id": 0, "sped": 99}]'})

    def test_absence_window_keys_checked(self):
        with pytest.raises(ConfigError,
                           match=r"scene\.absence_windows\[0\]\.start"):
            load_config(overrides={"scene.absence_windows":
                                   '[{"object_index": 0, "start": 1.0,'
                                   ' "duration_s": 2.0}]'})

    def test_yaml_file_merge(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(
            {"seed": 5, "scene": {"fps": 4.0},
             "train": {"epochs": 2}}))
        cfg = load_config(str(path))
        assert cfg.seed == 5
        assert cfg.scene.fps == 4.0
        assert cfg.train.epochs == 2
        assert cfg.train.batch_pairs == 16  # untouched default

    def test_json_file_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"num_sequences": 3}))
        assert load_config(str(path)).num_sequences == 3

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"scene": {"pfs": 4.0}}))
        with pytest.raises(ConfigError, match="scene.pfs"):
            load_config(str(path))

    def test_dotted_overrides(self):
        cfg = load_config(overrides={"tracker.match_score_thr": "0.35",
                                     "scene.noise.fp_rate": "0.4"})
        assert cfg.tracker.match_score_thr == 0.35
        assert cfg.scene.noise.fp_rate == 0.4

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"tracker.threshold": "0.3"})
        for key in ("seed", "scene.profiles"):
            with pytest.raises(ConfigError, match=f"{key} is not a section"):
                load_config(overrides={f"{key}.x": "1"})

    def test_paper_preset_sets_the_defaults(self):
        cfg = load_config(overrides={"preset": "paper"})
        assert cfg.model == paper_preset()
        assert cfg.tracker == TrackerConfig()
        cfg = load_config(overrides={"preset": "paper",
                                     "model.sinkhorn_iters": "30",
                                     "tracker.match_score_thr": "0.3"})
        assert cfg.model.sinkhorn_iters == 30
        assert cfg.model.descriptor_dim == 256
        assert cfg.tracker.match_score_thr == 0.3
        # the preset's refine widths end at 256
        with pytest.raises(ConfigError, match="refine_widths"):
            load_config(overrides={"preset": "paper",
                                   "model.descriptor_dim": "64"})

    def test_layers_preset_then_file_then_flags(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(
            {"preset": "paper", "model": {"sinkhorn_iters": 30},
             "tracker": {"match_score_thr": 0.3}}))
        cfg = load_config(str(path))
        assert cfg.preset == "paper"
        assert cfg.model == dataclasses.replace(paper_preset(),
                                                sinkhorn_iters=30)
        assert cfg.tracker.match_score_thr == 0.3
        cfg = load_config(str(path), {"model.sinkhorn_iters": "40"})
        assert cfg.model.sinkhorn_iters == 40
        assert cfg.model.descriptor_dim == 256
        # the last layer that names a preset picks the defaults
        cfg = load_config(str(path), {"preset": "desk"})
        assert cfg.preset == "desk"
        assert cfg.model == dataclasses.replace(ModelConfig(),
                                                sinkhorn_iters=30)

    def test_bool_field_takes_only_a_bool(self):
        with pytest.raises(ConfigError, match=r"train\.gt_only must be true"):
            load_config(overrides={"train.gt_only": "False"})
        with pytest.raises(ConfigError, match=r"cues\.temporal must be true"):
            load_config(overrides={"cues.temporal": "False"})
        cfg = load_config(overrides={"train.gt_only": "true",
                                     "cues.temporal": "false"})
        assert cfg.train.gt_only
        assert not cfg.model.use_temporal

    def test_int_field_takes_only_an_integral_number(self):
        for value in ("32.5", "true", '"32"'):
            with pytest.raises(ConfigError,
                               match=r"model\.descriptor_dim must be an integer"):
                load_config(overrides={"model.descriptor_dim": value})
        cfg = load_config(overrides={"model.descriptor_dim": "16.0"})
        assert cfg.model.descriptor_dim == 16
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
        assert cfg.model.closed_set
        assert cfg.model.location_width == 5


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

    def test_eval_with_nothing_to_score(self, tmp_path, capsys):
        # one annotated frame: no GT track appears in two consecutive frames
        gt = [[(0, Box(10.0, 10.0, 50.0, 50.0), 0)], []]
        write_dataset([[FrameSample(k, 0.5 * k, [], g) for k, g in enumerate(gt)]],
                      str(tmp_path / "data"))
        write_results([], str(tmp_path / "r.csv"))
        report = str(tmp_path / "report.csv")
        assert main(["eval", "--pred", str(tmp_path / "r.csv"),
                     "--gt", str(tmp_path / "data"), "--out", report]) == 0
        assert capsys.readouterr().out.startswith(
            "association_accuracy undefined id_switches 0")
        assert open(report).read().splitlines()[1] == "undefined,0,0,1"

    def test_eval_iou_threshold_outside_unit_interval_exits_2(self, tmp_path, capsys):
        # the flag is checked before any file is read: these files do not exist
        for thr in ("0", "-1", "nan", "1.5"):
            rc = main(["eval", "--pred", str(tmp_path / "missing.csv"),
                       "--gt", str(tmp_path / "missing"),
                       "--out", str(tmp_path / "report.csv"),
                       f"--iou-thr={thr}"])
            assert rc == 2
            err = capsys.readouterr().err
            assert "--iou-thr" in err and "missing" not in err

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
                   "--set", "model.descriptor_dim=16",
                   "--set", "model.refine_widths=[32,16]"])
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

    def test_bad_value_exits_2_before_any_data(self, tmp_path, capsys):
        out = tmp_path / "d"
        for override, message in (
                ("model.num_heads=3",
                 "model: descriptor_dim 32 not divisible by 3 heads"),
                ("tracker.match_score_thr=1.5",
                 "tracker: match_score_thr must be in (0, 1)"),
                ("train.epochs=0", "train: invalid training configuration"),
                ("tracker.match_score_thr=abc",
                 "tracker.match_score_thr must be a float, got 'abc'"),
                ("scene.fps=abc", "scene.fps must be a float, got 'abc'"),
                ("scene.fps=0", "scene: fps and duration must be positive"),
                ('scene.profiles=[{"class_id": 0, "motion_kind": "spin"}]',
                 "scene.profiles[0]: unknown motion kind 'spin'"),
                ("model.refine_widths=16",
                 "model.refine_widths must be a list, got 16"),
                ("model.refine_widths=abc",
                 "model.refine_widths must be a list, got 'abc'"),
                ("model.num_heads=0", "model: num_heads must be at least 1, got 0"),
                ("model.descriptor_dim=0",
                 "model: descriptor_dim must be at least 1, got 0"),
                ("model.head_hidden=0", "model: head_hidden must be at least 1, got 0"),
                ("model.num_layers=-1", "model: num_layers must be at least 1, got -1"),
                ("model.sinkhorn_iters=0",
                 "model: sinkhorn_iters must be at least 1, got 0"),
                ("model.refine_widths=[0,32]",
                 "model: refine_widths[0] must be at least 1, got 0"),
                ("train.iou_match_thr=1.5", "train: iou_match_thr must be in (0, 1]"),
                ("train.iou_match_thr=0", "train: iou_match_thr must be in (0, 1]"),
                ("train.weight_decay=-0.1", "train: weight_decay must not be negative"),
                ("seed=-1", "seed must not be negative, got -1"),
                ("num_sequences=0", "num_sequences must be at least 1, got 0")):
            assert main(["simulate", "--out", str(out),
                         "--set", override]) == 2, override
            assert message in capsys.readouterr().err
            assert not out.exists()
            # train checks the config before it reads the (missing) data
            assert main(["train", "--data", str(tmp_path / "none"),
                         "--out", str(tmp_path / "m.ckpt"),
                         "--set", override]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "m.ckpt").exists()

    def test_bad_scene_value_exits_2_naming_the_scene(self, tmp_path, capsys):
        out = tmp_path / "d"
        for override, message in (
                ("scene.noise.semantic_sigma=-1",
                 "scene.noise: semantic_sigma must be finite and non-negative"),
                ("scene.noise.box_jitter_sigma=-0.5",
                 "scene.noise: box_jitter_sigma must be finite"),
                ("scene.noise.fp_rate=-1", "scene.noise: fp_rate must be finite"),
                ('scene.profiles=[{"class_id": 0, "size_px": [0, 10]}]',
                 "scene.profiles[0]: size_px must be positive and finite"),
                ('scene.profiles=[{"class_id": 0, "speed_px_per_s": NaN}]',
                 "scene.profiles[0].speed_px_per_s must be a finite number"),
                ("scene.image_w=0",
                 "scene: image sides must be positive and finite"),
                ("scene.semantic_dim=0", "scene: cue dims must be at least 1"),
                ("scene.max_detections=0",
                 "scene: max_detections must be at least 1"),
                ("scene.nms_iou_thr=0", "scene: nms_iou_thr must be in (0, 1]"),
                ("scene.duration_s=0.1",
                 "scene: duration_s 0.1 at fps 2.0 gives no frame"),
                ('scene.absence_windows=[{"object_index": 3, "start_s": 1.0,'
                 ' "duration_s": 2.0}]',
                 "scene: absence window object_index 3 is not one of the "
                 "scene's 3 objects"),
                ('scene.absence_windows=[{"object_index": 0, "start_s": -1.0,'
                 ' "duration_s": 2.0}]',
                 "scene: absence window start_s -1.0 must be finite and "
                 "non-negative"),
                ('scene.absence_windows=[{"object_index": 0, "start_s": 1.0,'
                 ' "duration_s": 0}]',
                 "scene: absence window duration_s 0.0 must be positive and "
                 "finite"),
                ('scene.absence_windows=[{"object_index": 0, "start_s": 1.0,'
                 ' "duration_s": -2.0}]',
                 "scene: absence window duration_s -2.0 must be positive"),
                ('scene.absence_windows=[{"object_index": 0, "start_s": NaN,'
                 ' "duration_s": 2.0}]',
                 "scene.absence_windows[0].start_s must be a finite number"),
                ('scene.absence_windows=[{"object_index": 0, "start_s": 1.0,'
                 ' "duration_s": Infinity}]',
                 "scene.absence_windows[0].duration_s must be a finite "
                 "number")):
            assert main(["simulate", "--out", str(out),
                         "--set", override]) == 2, override
            assert message in capsys.readouterr().err, override
            assert not out.exists()

    def test_yaml_loads_only_when_a_config_file_is_read(self, tmp_path):
        """Importing the package, simulating from flags, training and
        tracking never load yaml; reading a config file does. Run in a
        fresh interpreter, since this one has yaml loaded already."""
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text("scene:\n  fps: 4.0\n")
        code = textwrap.dedent(f"""
            import sys
            import cuetrack, cuetrack.bench, cuetrack.cli
            from cuetrack.config import load_config
            from cuetrack.model import AssocModel, ModelConfig
            from cuetrack.simulator import SceneConfig, generate_dataset
            from cuetrack.tracker import TrackerConfig, track_sequence
            from cuetrack.training import TrainConfig, train

            assert cuetrack.cli.main(["simulate", "--out", {str(tmp_path / "d")!r},
                                      "--num-sequences", "1",
                                      "--set", "scene.duration_s=2"]) == 0
            scene = SceneConfig(duration_s=3.0, seed=1)
            frames = generate_dataset(scene, 1)[0]
            asm = AssocModel(ModelConfig(descriptor_dim=8, head_hidden=16,
                                         num_layers=1, num_heads=2,
                                         sinkhorn_iters=10))
            history = train([frames], TrainConfig(epochs=1, batch_pairs=64),
                            asm, scene.image_h, scene.image_w)
            assert len(history) == 1, history
            rows = track_sequence([(f.time_s, f.detections) for f in frames],
                                  asm, TrackerConfig(), scene.image_h,
                                  scene.image_w)
            assert rows
            assert "yaml" not in sys.modules, "yaml loaded without a config file"
            assert load_config({str(cfg_file)!r}).scene.fps == 4.0
            assert "yaml" in sys.modules, "reading a config file did not load yaml"
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_flags_override_the_file_and_the_preset(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"model": {"sinkhorn_iters": 50}}))
        args = build_parser().parse_args([
            "simulate", "--out", str(tmp_path / "d"), "--config", str(path),
            "--preset", "paper", "--set", "tracker.match_score_thr=0.3"])
        cfg = _build_config(args)
        assert cfg.model == dataclasses.replace(paper_preset(),
                                                sinkhorn_iters=50)
        assert cfg.tracker.match_score_thr == 0.3
        args.overrides.append("model.sinkhorn_iters=30")
        assert _build_config(args).model.sinkhorn_iters == 30

    def test_refine_widths_must_end_at_descriptor_dim(self, tmp_path, capsys):
        out = tmp_path / "d"
        for widths in ("[16,4]", "[16,1]"):
            rc = main(["simulate", "--out", str(out), *FAST,
                       "--set", f"model.refine_widths={widths}"])
            assert rc == 2, widths
            assert "refine_widths" in capsys.readouterr().err
            assert not out.exists()

    def test_float_field_takes_only_a_finite_number(self, tmp_path, capsys):
        out = tmp_path / "d"
        cfg_file = tmp_path / "nan.yaml"
        cfg_file.write_text("tracker:\n  match_score_thr: .nan\n")
        for args, key in (
                (["--set", "tracker.memo_length_s=NaN"], "tracker.memo_length_s"),
                (["--set", "scene.fps=Infinity"], "scene.fps"),
                (["--config", str(cfg_file)], "tracker.match_score_thr")):
            assert main(["simulate", "--out", str(out), *args]) == 2, key
            assert f"{key} must be a finite number" in capsys.readouterr().err
            assert not out.exists()

    def test_track_rejects_checkpoint_without_a_cue_head(self, tmp_path,
                                                        capsys):
        data = str(tmp_path / "data")
        ckpt = str(tmp_path / "model.ckpt")
        results = tmp_path / "r.csv"
        assert main(["simulate", "--out", data, "--num-sequences", "2",
                     *FAST]) == 0
        assert main(["train", "--data", data, "--out", ckpt, *FAST,
                     "--set", "cues.semantic=false"]) == 0
        capsys.readouterr()
        assert main(["track", "--ckpt", ckpt, "--data", data,
                     "--out", str(results), *FAST]) == 1
        assert ("parameter sem.l0.W is missing from the checkpoint"
                in capsys.readouterr().err)
        assert not results.exists()

    def test_track_rejects_non_finite_checkpoint_value(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        ckpt = tmp_path / "model.ckpt"
        results = tmp_path / "r.csv"
        assert main(["simulate", "--out", data, "--num-sequences", "2",
                     *FAST]) == 0
        assert main(["train", "--data", data, "--out", str(ckpt), *FAST]) == 0
        capsys.readouterr()
        raw = ckpt.read_bytes()
        header_len = raw.index(b"\n") + 1
        rec = json.loads(raw[:header_len])["params"][3]
        at = header_len + rec["offset"] + 4
        ckpt.write_bytes(raw[:at] + struct.pack("<f", float("nan"))
                         + raw[at + 4:])
        assert main(["track", "--ckpt", str(ckpt), "--data", data,
                     "--out", str(results), *FAST]) == 1
        assert (f"checkpoint parameter {rec['name']} has non-finite values"
                in capsys.readouterr().err)
        assert not results.exists()

    def test_track_rejects_a_damaged_checkpoint(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        ckpt = tmp_path / "model.ckpt"
        results = tmp_path / "r.csv"
        assert main(["simulate", "--out", data, "--num-sequences", "2",
                     *FAST]) == 0
        assert main(["train", "--data", data, "--out", str(ckpt), *FAST]) == 0
        raw = ckpt.read_bytes()
        header, blob = raw.split(b"\n", 1)
        manifest = json.loads(header)
        bad_shape = json.loads(header)
        bad_shape["params"][0]["shape"] = [2.5, 8]
        name = bad_shape["params"][0]["name"]
        for damaged, fault in (
                (raw[:-4], f"blob is {len(blob) - 4} bytes, its parameters "
                           f"need {len(blob)}"),
                (bytes([raw[0] ^ 0xFF]) + raw[1:],
                 "header is not a JSON object with a params list"),
                (json.dumps({"seed": manifest["seed"]}).encode() + b"\n" + blob,
                 "header is not a JSON object with a params list"),
                (json.dumps(bad_shape).encode() + b"\n" + blob,
                 f"parameter {name} shape [2.5, 8] is not a list of "
                 f"non-negative integers"),
                (raw + b"\0\0\0\0", f"blob is {len(blob) + 4} bytes, its "
                                    f"parameters need {len(blob)}")):
            ckpt.write_bytes(damaged)
            capsys.readouterr()
            assert main(["track", "--ckpt", str(ckpt), "--data", data,
                         "--out", str(results), *FAST]) == 1, fault
            assert f"error: {ckpt}: checkpoint {fault}" in capsys.readouterr().err
            assert not results.exists()

    def test_track_rejects_checkpoint_of_another_layer_count(self, tmp_path,
                                                              capsys):
        data = str(tmp_path / "data")
        ckpt = str(tmp_path / "model.ckpt")
        results = tmp_path / "r.csv"
        assert main(["simulate", "--out", data, "--num-sequences", "2",
                     *FAST]) == 0
        assert main(["train", "--data", data, "--out", ckpt, *FAST]) == 0
        capsys.readouterr()
        for layers, message in (
                ("4", "parameter stog.l2.Wk is missing from the checkpoint"),
                ("1", "checkpoint parameter stog.l1.Wk is not a parameter "
                      "of the model")):
            rc = main(["track", "--ckpt", ckpt, "--data", data,
                       "--out", str(results), *FAST,
                       "--set", f"model.num_layers={layers}"])
            assert rc == 1
            assert message in capsys.readouterr().err
            assert not results.exists()


def _edit_record(rec, case):
    det = rec["detections"][0]
    if case == "nan box":
        det["box"][2] = float("nan")
    elif case == "nan vector":
        det["appearance_vec"][3] = float("nan")
    elif case == "score":
        det["score"] = 1.7
    elif case == "missing box":
        del det["box"]
    elif case == "ragged vector":
        det["semantic_vec"] = det["semantic_vec"][:15]
    elif case == "time order":
        rec["time_s"] = 0.0
    elif case.startswith("gt id "):
        rec["gt"][0]["id"] = json.loads(case[len("gt id "):])
    elif case == "repeated gt id":
        rec["gt"][1]["id"] = rec["gt"][0]["id"] = 4
    elif case == "gt class":
        rec["gt"][0]["class"] = 1.5
    elif case == "detection class":
        det["class"] = "2"
    elif case.startswith("frame "):
        rec["frame"] = json.loads(case[len("frame "):])


class TestJsonlInput:
    @pytest.fixture
    def sequence(self, tmp_path):
        data = tmp_path / "data"
        assert main(["simulate", "--out", str(data), "--num-sequences", "1",
                     *FAST]) == 0
        return (data / "seq_0000.jsonl").read_text().splitlines()

    @pytest.mark.parametrize("case, message", [
        ("nan box", "box must be finite"),
        ("nan vector", "appearance_vec must be finite"),
        ("score", "detection score must lie in [0, 1]"),
        ("missing box", "missing key 'box'"),
        ("ragged vector", "semantic_vec must be numeric vectors of one width"),
        ("time order", "time_s 0.0 does not follow 0.0"),
        ("gt id 1.5", "ground-truth id 1.5 is not a non-negative integer"),
        ('gt id "a"', "ground-truth id 'a' is not a non-negative integer"),
        ("gt id true", "ground-truth id True is not a non-negative integer"),
        ("gt id -1", "ground-truth id -1 is not a non-negative integer"),
        ("repeated gt id", "ground-truth id 4 repeats in the frame"),
        ("gt class", "class 1.5 is not an integer"),
        ("detection class", "class '2' is not an integer"),
        ("frame 2.5", "frame 2.5 is not 1, the record's 0-based position"),
        ("frame true", "frame True is not 1, the record's 0-based position"),
        ("frame 5", "frame 5 is not 1, the record's 0-based position"),
    ])
    def test_bad_record_names_file_and_line(self, tmp_path, capsys, sequence,
                                            case, message):
        rec = json.loads(sequence[1])
        _edit_record(rec, case)
        bad = tmp_path / "bad"
        bad.mkdir()
        path = bad / "seq_0000.jsonl"
        path.write_text("\n".join([sequence[0], json.dumps(rec),
                                   *sequence[2:]]) + "\n")
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert main(["train", "--data", str(bad), "--out", str(ckpt),
                     *FAST]) == 1
        assert f"error: {path}:2: {message}" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_vector_width_must_match_the_model(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        ckpt = tmp_path / "m.ckpt"
        assert main(["simulate", "--out", data, "--num-sequences", "1",
                     *FAST]) == 0
        capsys.readouterr()
        assert main(["train", "--data", data, "--out", str(ckpt), *FAST,
                     "--set", "scene.appearance_dim=8"]) == 1
        assert "appearance vector of width 16, the model needs 8" \
            in capsys.readouterr().err
        assert not ckpt.exists()

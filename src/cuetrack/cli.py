"""Command-line surface: simulate, train, track, eval, analyze."""

from __future__ import annotations

import argparse
import os
import sys

from . import autodiff, metrics, simulator, tracker, training
from .config import ConfigError, RunConfig, load_config
from .model import AssocModel


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="YAML/JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="dotted-path config override, e.g. tracker.match_score_thr=0.3")
    p.add_argument("--preset", choices=["desk", "paper"], default=None)
    p.add_argument("--num-sequences", type=int, default=None)


def _build_config(args) -> RunConfig:
    overrides: dict[str, str] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, value = item.split("=", 1)
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.preset is not None:
        overrides["preset"] = args.preset
    if args.num_sequences is not None:
        overrides["num_sequences"] = args.num_sequences
    return load_config(args.config, overrides)


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    sequences = simulator.generate_dataset(cfg.scene, cfg.num_sequences,
                                           seed=cfg.seed)
    simulator.write_dataset(sequences, args.out)
    print(f"wrote {len(sequences)} sequences to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args)
    dataset = simulator.read_dataset(args.data)
    asm = AssocModel(cfg.model)
    history = training.train(dataset, cfg.train, asm,
                             cfg.scene.image_h, cfg.scene.image_w,
                             log_every=args.log_every)
    autodiff.save_checkpoint(asm.store, args.out)
    loss_path = args.loss_csv or (os.path.splitext(args.out)[0] + "_loss.csv")
    training.write_loss_history(history, loss_path)
    final = history[-1][2] if history else float("nan")
    print(f"trained {len(history)} steps, final loss {final:.4f}; "
          f"checkpoint -> {args.out}, losses -> {loss_path}")
    return 0


def cmd_track(args) -> int:
    cfg = _build_config(args)
    if not os.path.exists(args.ckpt):
        print(f"checkpoint not found: {args.ckpt}", file=sys.stderr)
        return 2
    store = autodiff.load_checkpoint(args.ckpt)
    asm = AssocModel(cfg.model, store=store)
    dataset = simulator.read_dataset(args.data)
    seq_rows = [tracker.track_sequence([(f.time_s, f.detections) for f in frames],
                                       asm, cfg.tracker, cfg.scene.image_h,
                                       cfg.scene.image_w)
                for frames in dataset]
    rows, _ = metrics.pool_sequences(dataset, seq_rows)
    tracker.write_results(rows, args.out)
    print(f"tracked {len(dataset)} sequences -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if not 0 < args.iou_thr <= 1:
        raise ConfigError(f"--iou-thr must be in (0, 1], got {args.iou_thr}")
    pred = tracker.read_results(args.pred)
    dataset = simulator.read_dataset(args.gt)
    # sequences were concatenated the same way during tracking
    _, gt_frames = metrics.pool_sequences(dataset)
    report = metrics.association_accuracy(pred, gt_frames, iou_thr=args.iou_thr)
    metrics.write_report(report, args.out)
    print(f"association_accuracy "
          f"{metrics.format_accuracy(report.association_accuracy, '.4f')} "
          f"id_switches {report.id_switches} -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    dataset = simulator.read_dataset(args.gt)
    summaries = metrics.class_motion_report(dataset, log_grid=args.log_grid)
    metrics.write_kde_curves(summaries, args.out)
    for s in summaries:
        print(f"class {s.class_id}: mean displacement {s.mean_displacement:.3f}, "
              f"mean ARC {s.mean_arc:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuetrack",
        description="Multi-object association: simulate, train, track, eval, analyze")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic JSONL sequences")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the association model")
    _add_common(p)
    p.add_argument("--data", required=True, help="directory of JSONL sequences")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="run the online tracker")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score tracking results against GT")
    p.add_argument("--pred", required=True, help="results CSV")
    p.add_argument("--gt", required=True, help="directory of JSONL sequences")
    p.add_argument("--iou-thr", type=float, default=0.5)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="per-class motion KDE analysis")
    p.add_argument("--gt", required=True, help="directory of JSONL sequences")
    p.add_argument("--out", required=True, help="output directory for KDE CSVs")
    p.add_argument("--log-grid", action="store_true",
                   help="log-spaced KDE evaluation grid")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # simulator/training/tracker errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

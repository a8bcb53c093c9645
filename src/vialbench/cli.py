"""Command-line entry points: train, detect, calibrate, run, report."""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import bench, control, pgm
from .core import (ConfigError, PACKAGE_VERSION, WorkspaceConfig, load_config,
                   radius_sweep_error, read_utf8)
from .perception import (check_weights, cht_params_for, detect_circles,
                         load_weights, save_weights, score_candidates,
                         train_discriminator)
from .simworld import make_rig


_BATCHES = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for runtime)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vialbench",
                     description="Desk-scale vial insertion benchmark")
    parser.add_argument("--version", action="version",
                        version=f"vialbench {PACKAGE_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override one config key")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("train", help="train the slot classifier")
    p.set_defaults(handler=_cmd_train)
    add_config_args(p)
    p.add_argument("--out", type=Path, default=Path("slot_cnn.weights"))
    p.add_argument("--dump-dataset", type=Path, default=None, metavar="DIR",
                   help="also write the training crops as PGMs plus an index")

    p = sub.add_parser("detect", help="run slot detection on a PGM image")
    p.set_defaults(handler=_cmd_detect)
    add_config_args(p)
    p.add_argument("--image", type=Path, required=True)
    p.add_argument("--weights", type=Path, required=True)
    p.add_argument("--camera-z", type=float, default=None,
                   help="camera height used for the shot (default: config)")

    p = sub.add_parser("calibrate", help="print the tactile fingertip fit")
    p.set_defaults(handler=_cmd_calibrate)
    add_config_args(p)

    p = sub.add_parser("run", help="run a benchmark campaign")
    p.set_defaults(handler=_cmd_run)
    add_config_args(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--batches", type=int, default=_BATCHES)
    p.add_argument("--modality", choices=[*control.MODALITIES, "all"],
                   default="all")
    p.add_argument("--weights", type=Path, default=None,
                   help="pre-trained weights (default: train first)")
    p.add_argument("--out", type=Path, default=Path("results"))

    p = sub.add_parser("report", help="rebuild report CSVs from records.jsonl")
    p.set_defaults(handler=_cmd_report)
    p.add_argument("--records", type=Path, required=True)
    p.add_argument("--batches", type=int, default=_BATCHES)
    p.add_argument("--out", type=Path, default=Path("results"))
    return parser


def _load_config_from(args) -> WorkspaceConfig:
    text, source = "", None
    if args.config is not None:
        source = str(args.config)
        text = read_utf8(args.config)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed = {args.seed}")
    return load_config(text, overrides, source)


def _check_out(flag: str, path: Path, *, directory: bool = False) -> None:
    """Refuse an output path before any work: a file's parent, or a
    directory's nearest existing ancestor (itself included), must be a
    writable directory, and a file must not be a directory."""
    base = (next(p for p in (path, *path.parents) if p.exists())
            if directory else path.parent)
    if not directory and path.is_dir():
        raise ValueError(f"{flag} {path}: is a directory")
    if not (base.is_dir() and os.access(base, os.W_OK)):
        raise ValueError(f"{flag} {path}: {base} is not a writable directory")


def _cmd_train(args) -> int:
    config = _load_config_from(args)
    _check_out("--out", args.out)
    if args.dump_dataset is not None:
        _check_out("--dump-dataset", args.dump_dataset, directory=True)
    weights, history, n_examples = train_discriminator(
        config, dump_dir=args.dump_dataset)
    save_weights(args.out, weights)
    print(f"trained on {n_examples} crops, "
          f"epoch loss {history[0]:.4f} -> {history[-1]:.4f}")
    if args.dump_dataset is not None:
        print(f"dumped {n_examples} crops to {args.dump_dataset}")
    print(f"wrote {args.out}")
    return 0


def _cmd_detect(args) -> int:
    config = _load_config_from(args)
    cam_z = config.camera.z if args.camera_z is None else args.camera_z
    if not math.isfinite(cam_z):
        raise ValueError(f"--camera-z must be finite, got {cam_z}")
    image = pgm.read_pgm(args.image)
    weights = load_weights(args.weights)
    check_weights(weights, config.cnn)
    problem = radius_sweep_error(config, cam_z, image.shape)
    if problem is not None:
        raise ValueError(f"--camera-z {cam_z}: {problem}")
    candidates = detect_circles(image, cht_params_for(config, cam_z))
    scored = score_candidates(image, candidates, weights, config.cnn.crop_size)
    print(f"{len(scored)} candidates")
    for s in scored:
        c = s.candidate
        print(f"  u={c.u:7.2f} v={c.v:7.2f} r={c.r:5.2f} votes={c.votes:6.1f} "
              f"p_rack={s.p_rack:.3f} p_occupied={s.p_occupied:.3f}")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load_config_from(args)
    cals = control.calibrate_rig(config, make_rig(config, "tactile"))
    for finger, cal in cals.items():
        print(f"{finger}: residual rms {cal.residual_rms * 1e6:.1f} um")
    return 0


def _cmd_run(args) -> int:
    config = _load_config_from(args)
    _check_out("--out", args.out, directory=True)
    modalities = (control.MODALITIES if args.modality == "all"
                  else (args.modality,))
    weights = None
    if args.weights is not None:
        weights = load_weights(args.weights)
    result = bench.run_experiment(config, args.trials, args.batches,
                                  weights=weights, modalities=modalities,
                                  progress=lambda msg: print(msg, flush=True))
    paths = bench.emit_report(result, args.out)
    print(f"campaign: {args.trials} trials x {len(modalities)} modalities "
          f"in {result.campaign_wall_s:.1f}s")
    for m in modalities:
        s = bench.summarize_modality(result.records[m], result.batches)
        att = "-" if s.attempts.mean is None else f"{s.attempts.mean:.2f}"
        print(f"  {m:8s} success {100 * s.success_rate:5.1f}%  "
              f"first-time {100 * s.first_time_rate:5.1f}%  "
              f"attempts {att}")
    print(f"report in {paths['summary'].parent}")
    return 0


def _cmd_report(args) -> int:
    records = bench.load_records(args.records)
    paths = bench.write_report(records, args.batches, args.out)
    print(f"rebuilt report for {sum(len(v) for v in records.values())} records "
          f"in {paths['summary'].parent}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"vialbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

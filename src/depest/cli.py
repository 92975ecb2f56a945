"""Command-line surface for the whole pipeline.

Subcommands: synth-data, preprocess, train, eval, aggregate,
inspect-checkpoint. Exit codes: 0 success, 1 usage/config error, 2
data, file-format or OS file error, 3 numeric failure; each toolkit
error class carries its own code.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .data import map_sessions, preprocess_session, read_clips, read_manifest, write_clips
from .errors import ConfigError, DepestError, FormatError, ShapeError
from .model import FUSION_MODES, MODALITY_SETS, MultiModalClassifier
from .synthetic import generate_synthetic_corpus
from .tensorio import load_checkpoint, save_checkpoint
from .training import evaluate_clips, report, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="depest", description="Multi-modal depression estimation pipeline.")
    sub = p.add_subparsers(dest="command", required=True)

    # a flag not given is left out, so generate_synthetic_corpus's own default applies
    sd = sub.add_parser("synth-data", help="generate a synthetic corpus", argument_default=argparse.SUPPRESS)
    sd.add_argument("--out-dir", required=True)
    sd.add_argument("--seed", type=int)
    sd.add_argument("--participants", type=int, dest="n_participants")
    sd.add_argument("--duration-s", type=float)
    sd.add_argument("--depressed-fraction", type=float)

    pp = sub.add_parser("preprocess", help="manifest -> clip bundles")
    pp.add_argument("--manifest", required=True)
    pp.add_argument("--out-dir", required=True)
    pp.add_argument("--config")

    tr = sub.add_parser("train", help="train on preprocessed clips")
    tr.add_argument("--clips-dir", required=True)
    tr.add_argument("--out-dir", required=True)
    tr.add_argument("--config")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--modality", choices=MODALITY_SETS)
    tr.add_argument("--fusion", choices=FUSION_MODES)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--stop-accuracy", type=float)

    ev = sub.add_parser("eval", help="clip-level metrics for a checkpoint")
    ev.add_argument("--clips-dir", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--config", help="must match the config the checkpoint stores")
    ev.add_argument("--out-dir")

    ag = sub.add_parser("aggregate", help="participant-level + gender-split report")
    ag.add_argument("--clips-dir", required=True)
    ag.add_argument("--checkpoint", required=True)
    ag.add_argument("--config", help="must match the config the checkpoint stores")
    ag.add_argument("--out-dir")

    ic = sub.add_parser("inspect-checkpoint", help="print checkpoint contents")
    ic.add_argument("--checkpoint", required=True)
    return p


def _load_cfg(args) -> dict:
    keys = ("seed", "modality", "fusion", "epochs")
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    return cfgmod.parse_config(getattr(args, "config", None), overrides)


def _restore_model(args) -> tuple:
    """Rebuild the checkpoint's model under the config it stores; a given --config must equal it."""
    ckpt = load_checkpoint(args.checkpoint)
    try:
        cfg = cfgmod.parse_config(None, dict(line.partition("=")[::2] for line in ckpt.config_text.splitlines()))
    except ConfigError as exc:
        raise FormatError(f"{args.checkpoint}: stored config: {exc}") from exc
    if args.config is not None:
        given = _load_cfg(args)
        differ = [key for key in sorted(cfg) if given[key] != cfg[key]]
        if differ:
            raise ConfigError(f"checkpoint was trained under a different config; --config differs in {', '.join(differ)}")
    model = MultiModalClassifier(cfgmod.model_config(cfg), rng=np.random.default_rng(cfg["seed"]))
    try:
        model.load_state(ckpt.state)
    except ShapeError as exc:  # names or shapes of another model layout
        raise FormatError(f"{args.checkpoint}: {exc}") from exc
    return model, cfg


def cmd_synth_data(args) -> int:
    manifest = generate_synthetic_corpus(**{key: value for key, value in vars(args).items() if key != "command"})
    print(f"wrote corpus manifest: {manifest}")
    return EXIT_OK


def _preprocess_entry(entry, *, cfg: dict, out_dir) -> int:
    return len(write_clips(out_dir, preprocess_session(entry, cfg)))


def cmd_preprocess(args) -> int:
    cfg = _load_cfg(args)
    entries = read_manifest(args.manifest)
    total = sum(map_sessions(partial(_preprocess_entry, cfg=cfg, out_dir=args.out_dir), entries))
    print(f"wrote {total} clip bundles from {len(entries)} participants to {args.out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    clips = read_clips(args.clips_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = MultiModalClassifier(cfgmod.model_config(cfg), rng=np.random.default_rng(cfg["seed"]))
    with open(out_dir / "epoch_log.txt", "w") as log_fh:
        history = train(
            model,
            clips,
            musdl_cfg=cfgmod.musdl_config(cfg),
            sam_cfg=cfgmod.sam_config(cfg),
            epochs=cfg["epochs"],
            batch_size=cfg["batch_size"],
            sampler_mode=cfg["sampler_mode"],
            gender_balance=bool(cfg["gender_balance"]),
            dynamic_weights=bool(cfg["dynamic_weights"]),
            seed=cfg["seed"],
            stop_accuracy=args.stop_accuracy,
            log_fh=log_fh,
        )
    save_checkpoint(
        out_dir / "model.ckpt",
        epoch=history[-1].epoch,
        config_text=cfgmod.canonical_text(cfg),
        state=model.state(),
    )
    last = history[-1]
    print(f"trained {last.epoch} epochs; loss {last.loss:.4f}; clip accuracy {last.clip_accuracy:.4f}")
    print(f"checkpoint: {out_dir / 'model.ckpt'}")
    return EXIT_OK


def _evaluate(args, file_name: str, report_lines) -> int:
    """Restore the checkpoint, evaluate every clip, print and write the report."""
    model, cfg = _restore_model(args)
    clips = read_clips(args.clips_dir)
    ev = evaluate_clips(model, clips, cfgmod.musdl_config(cfg), cfg["batch_size"])
    text = "\n".join(report_lines(clips, ev))
    print(text)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / file_name).write_text(text + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    return _evaluate(args, "clip_metrics.txt", lambda clips, ev: ["[clip-level]"] + ev.report.overall.lines())


def cmd_aggregate(args) -> int:
    return _evaluate(
        args, "participant_report.txt", lambda clips, ev: report(clips, ev.records, by_participant=True).lines()
    )


def cmd_inspect_checkpoint(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    print(f"epoch {ckpt.epoch}")
    print(f"config sha256 {ckpt.config_hash}")
    print(f"tensors {len(ckpt.state)}")
    for name in sorted(ckpt.state):
        arr = ckpt.state[name]
        print(f"  {name} {list(arr.shape)}")
    return EXIT_OK


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "eval": cmd_eval,
    "aggregate": cmd_aggregate,
    "inspect-checkpoint": cmd_inspect_checkpoint,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DepestError, OSError) as exc:  # OS file errors (missing, wrong kind, permissions) are data errors
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())

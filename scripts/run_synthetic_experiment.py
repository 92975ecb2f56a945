"""Full synthetic-corpus experiment: generate, preprocess, train, report.

Drives the `depest` CLI through synth-data, preprocess, train, eval and
aggregate. The run config is written once to <out-dir>/run.cfg, which
preprocess and train read; the checkpoint stores it, so eval and
aggregate need only the checkpoint. The built-in settings are a reduced
model that converges on a laptop CPU in well under a minute; pass
--config to replace them entirely.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from depest import cli
from depest import config as cfgmod
from depest.model import MODALITY_SETS

REDUCED = {
    "feature_dim": 64, "lstm_hidden": 32,
    "audio_channels": "16,32", "audio_strides": "4,1", "audio_pools": "2,2",
    "visual_channels": "16", "visual_strides": "4", "visual_pools": "2",
    "text_channels": "16",
    "batch_size": 16, "lr": 0.05, "momentum": 0.9, "sam_rho": 0.05,
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out-dir", default="runs/synthetic")
    p.add_argument("--participants", type=int, default=20)
    p.add_argument("--duration-s", type=float, default=160.0)
    p.add_argument("--depressed-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--stop-accuracy", type=float, default=0.95)
    p.add_argument("--modality", choices=MODALITY_SETS)
    p.add_argument("--fusion")
    p.add_argument("--config", help="run config file; replaces the built-in reduced settings")
    return p.parse_args()


def main() -> int:
    args = parse_args()
    out = Path(args.out_dir)
    overrides = {} if args.config else dict(REDUCED)
    overrides["seed"] = args.seed
    overrides["epochs"] = args.epochs
    if args.modality:
        overrides["modality"] = args.modality
    if args.fusion:
        overrides["fusion"] = args.fusion
    cfg = cfgmod.parse_config(args.config, overrides)
    out.mkdir(parents=True, exist_ok=True)
    run_cfg = out / "run.cfg"
    run_cfg.write_text(cfgmod.canonical_text(cfg))

    raw, clips, run = out / "raw", out / "clips", out / "run"
    conf = ["--config", run_cfg]
    restore = ["--clips-dir", clips, "--checkpoint", run / "model.ckpt", "--out-dir", run]
    steps = [
        ["synth-data", "--out-dir", raw, "--participants", args.participants, "--seed", args.seed,
         "--duration-s", args.duration_s, "--depressed-fraction", args.depressed_fraction],
        ["preprocess", "--manifest", raw / "manifest.csv", "--out-dir", clips, *conf],
        ["train", "--clips-dir", clips, "--out-dir", run, "--stop-accuracy", args.stop_accuracy, *conf],
        ["eval", *restore],
        ["aggregate", *restore],
    ]
    for step in steps:
        code = cli.main([str(a) for a in step])
        if code:
            return code
    print(f"artifacts in {run}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

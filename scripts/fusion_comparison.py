"""Train every fusion method on the same corpus and tabulate the results.

Runs all eight late-fusion variants (six fixed operators, the single
attentional block, and the eight-head bank) for audio+visual and
audio+visual+text inputs, then prints one table of clip accuracy, F1,
MAE, and RMSE per row. Models are kept small so the sweep finishes in
minutes; nothing about the ordering of methods is asserted anywhere.
Without --clips-dir the corpus is made by `depest synth-data` and
`depest preprocess` into <out-dir>/clips.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from depest import cli
from depest import config as cfgmod
from depest.data import read_clips
from depest.model import FUSION_MODES, MultiModalClassifier
from depest.training import comparison_table, fusion_comparison

SMALL = {
    "feature_dim": 16, "lstm_hidden": 8,
    "audio_channels": "8", "audio_strides": "8", "audio_pools": "2",
    "visual_channels": "8", "visual_strides": "8", "visual_pools": "2",
    "text_channels": "8",
    "lr": 0.05, "momentum": 0.9, "sam_rho": 0.05,
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--clips-dir", help="reuse preprocessed clip bundles instead of generating")
    p.add_argument("--out-dir", default="runs/fusion")
    p.add_argument("--participants", type=int, default=20)
    p.add_argument("--duration-s", type=float, default=160.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--clips-per-participant", type=int, default=1,
                   help="subsample the corpus to bound the sweep's runtime")
    return p.parse_args()


def main() -> int:
    args = parse_args()
    t0 = time.time()
    out = Path(args.out_dir)

    clips_dir = args.clips_dir
    if not clips_dir:
        # SMALL only changes model keys, so the default preprocessing applies
        clips_dir = out / "clips"
        for step in (
            ["synth-data", "--out-dir", out / "raw", "--participants", args.participants,
             "--seed", args.seed, "--duration-s", args.duration_s],
            ["preprocess", "--manifest", out / "raw" / "manifest.csv", "--out-dir", clips_dir],
        ):
            code = cli.main([str(a) for a in step])
            if code:
                return code
    clips = read_clips(clips_dir)
    print(f"[{time.time() - t0:6.1f}s] {len(clips)} clips loaded")

    if args.clips_per_participant > 0:
        kept = {}
        for c in clips:
            kept.setdefault(c.participant_id, [])
            if len(kept[c.participant_id]) < args.clips_per_participant:
                kept[c.participant_id].append(c)
        clips = [c for group in kept.values() for c in group]
        print(f"[{time.time() - t0:6.1f}s] subsampled to {len(clips)} clips")

    ccfg = cfgmod.parse_config(None, SMALL)

    def make_model(fusion, modality):
        mc = cfgmod.model_config(cfgmod.parse_config(None, {**SMALL, "fusion": fusion, "modality": modality}))
        return MultiModalClassifier(mc, rng=np.random.default_rng(args.seed))

    rows = fusion_comparison(
        clips,
        make_model,
        fusion_modes=FUSION_MODES,
        modalities=("av", "avt"),
        musdl_cfg=cfgmod.musdl_config(ccfg),
        sam_cfg=cfgmod.sam_config(ccfg),
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    table = comparison_table(rows)
    print(table)

    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.txt").write_text(table + "\n")
    print(f"[{time.time() - t0:6.1f}s] table written to {out / 'comparison.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte-for-byte output of a fixed CLI pipeline, checked against tests/golden.txt.

One subprocess runs synth-data (8 participants of 70 s, one clip each),
preprocess, train (tiny model, batch 8, 2 epochs), eval and aggregate,
then one more train per other fusion rule and one audio-only train, each
into its own run_<name>/. With 8 sessions on two or more CPUs the
sessions run on forked processes; the tiny model's batch of 8 x
lstm_hidden 4 is below the branch-thread gate, so its branches run
serially (tests/test_model.py trains on branch threads against serial
bit for bit). The sha256 digests of the raw/ and
clips/ trees and of every run file must equal the recorded ones, with
the subprocess's environment at 1 and at 2 BLAS threads alike: the first
forward pins OpenBLAS to one thread whatever the environment sets.

The digests hold for one numpy and one BLAS build (checkpoints differ in
the last bits across BLAS kernels), so golden.txt records both and the
test fails on any other. Regenerate the file, at the same numpy and BLAS,
only when an output is meant to change; it prints the keys whose digest
changed:

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.txt")

TINY_CFG = """\
feature_dim = 8
lstm_hidden = 4
audio_channels = 8
audio_strides = 4
audio_pools = 2
visual_channels = 8
visual_strides = 4
visual_pools = 2
text_channels = 8
epochs = 2
batch_size = 8
lr = 0.05
momentum = 0.9
"""

PIPELINE = """\
import sys
from depest.cli import main

root = sys.argv[1]
cfg = f"{root}/tiny.cfg"
steps = [
    ["synth-data", "--out-dir", f"{root}/raw", "--participants", "8", "--duration-s", "70", "--seed", "5"],
    ["preprocess", "--manifest", f"{root}/raw/manifest.csv", "--out-dir", f"{root}/clips", "--config", cfg],
    ["train", "--clips-dir", f"{root}/clips", "--out-dir", f"{root}/run", "--config", cfg],
    ["eval", "--clips-dir", f"{root}/clips", "--checkpoint", f"{root}/run/model.ckpt", "--out-dir", f"{root}/run"],
    ["aggregate", "--clips-dir", f"{root}/clips", "--checkpoint", f"{root}/run/model.ckpt", "--out-dir", f"{root}/run"],
]
# every other fusion rule, and the audio-only model, each trained into run_<name>/
for flag, name in [("--fusion", r) for r in ("mult", "concat", "median", "max", "sum", "mean", "atten")] + [("--modality", "a")]:
    steps.append(["train", "--clips-dir", f"{root}/clips", "--out-dir", f"{root}/run_{name}", "--config", cfg, flag, name])
for argv in steps:
    rc = main(argv)
    if rc:
        sys.exit(f"{argv[0]} exited {rc}")
"""


def _blas() -> str:
    """Name and version of numpy's BLAS, and the kernel set OpenBLAS picked for this CPU."""
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        from numpy._core import _multiarray_umath

        core = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
        core.argtypes, core.restype = [], ctypes.c_char_p
        kernels = core().decode()
    except (ImportError, OSError, AttributeError):
        kernels = "unknown"
    return f"{info['name']} {info['version']} {kernels}"


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _run_pipeline(root: Path, blas_threads: str = "1") -> dict:
    """Record name -> value: the versions, then one digest per tree and per run file."""
    (root / "tiny.cfg").write_text(TINY_CFG)
    threads = {k: blas_threads for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", PIPELINE, str(root)], env=env, check=True, capture_output=True, text=True)
    record = {"numpy": np.__version__, "blas": _blas(), "raw": _tree_digest(root / "raw"), "clips": _tree_digest(root / "clips")}
    for run in sorted(root.glob("run*")):
        for p in sorted(run.iterdir()):
            record[f"{run.name}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return record


def _read_golden() -> dict:
    lines = [ln for ln in GOLDEN.read_text().splitlines() if ln and not ln.startswith("#")]
    return dict(ln.split(" ", 1) for ln in lines)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_pipeline_outputs_match_golden(tmp_path, blas_threads):
    golden = _read_golden()
    here = {"numpy": np.__version__, "blas": _blas()}
    for key, value in here.items():
        assert golden[key] == value, (
            f"golden.txt was written with numpy {golden['numpy']} and BLAS {golden['blas']}; "
            f"this is numpy {here['numpy']} and BLAS {here['blas']}: regenerate it at a known-good commit"
        )
    assert _run_pipeline(tmp_path, blas_threads) == golden


if __name__ == "__main__":
    old = _read_golden() if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        record = _run_pipeline(Path(tmp))
    header = "# sha256 of a fixed CLI pipeline's outputs; regenerate with: PYTHONPATH=src python tests/test_golden.py\n"
    GOLDEN.write_text(header + "".join(f"{k} {v}\n" for k, v in record.items()))
    changed = sorted(k for k in old.keys() | record.keys() if old.get(k) != record.get(k))
    print(f"wrote {GOLDEN}; changed: {', '.join(changed) or 'nothing'}")

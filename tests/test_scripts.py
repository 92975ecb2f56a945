"""The experiment scripts, run as programs over a two-participant corpus.

Both scripts make their corpus through the CLI; the synthetic experiment
also trains, evaluates and aggregates through it and leaves the run
config it used as <out-dir>/run.cfg.
"""

import subprocess
import sys
from pathlib import Path

from depest.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SMALL_RUN = ["--participants", "2", "--duration-s", "70", "--epochs", "1"]
RUN_ARTIFACTS = ("epoch_log.txt", "model.ckpt", "clip_metrics.txt", "participant_report.txt")


def run_script(name, out_dir, *args):
    cmd = [sys.executable, str(SCRIPTS / name), "--out-dir", str(out_dir), *SMALL_RUN, *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_synthetic_experiment_leaves_a_reusable_run_cfg(tmp_path):
    proc = run_script("run_synthetic_experiment.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in RUN_ARTIFACTS:
        assert (tmp_path / "run" / name).is_file(), name
    assert (tmp_path / "run.cfg").is_file()
    # the checkpoint's config hash matches the written run config
    argv = ["eval", "--clips-dir", tmp_path / "clips", "--checkpoint", tmp_path / "run" / "model.ckpt",
            "--config", tmp_path / "run.cfg"]
    assert main([str(a) for a in argv]) == 0


def test_synthetic_experiment_stops_at_the_first_failing_step(tmp_path):
    proc = run_script("run_synthetic_experiment.py", tmp_path, "--fusion", "nope")
    assert proc.returncode == 1  # train refuses the config
    assert "fusion must be one of" in proc.stderr
    assert not (tmp_path / "run" / "model.ckpt").exists()
    assert not (tmp_path / "run" / "clip_metrics.txt").exists()


def test_fusion_comparison_writes_the_full_table(tmp_path):
    proc = run_script("fusion_comparison.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "comparison.txt").read_text().splitlines()
    assert len(lines) == 2 + 16  # header, rule, 8 fusion methods x {av, avt}

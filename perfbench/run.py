"""depest benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 14 --trace 0

Run it from the root of a depest source tree. The workload runs in a
fresh child process (``workloads.py``) with the BLAS thread count fixed
from outside the program. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload twice at the same seed, untraced and
traced, side by side, checks that both produce the same outputs, and
prints the per-layer metrics with the tracing overhead. The lines
before the last one are a readable report: environment, stage metrics
under their workload-specific names, and (traced) the per-op share
table. See README.md for the metrics and why they are paced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no caches in the checkout
sys.path.insert(0, str(HERE))
from pace import PACE_MAX_OP_S  # noqa: E402

WORKLOADS = ("ingest", "train_small", "train_full")
BLAS_THREADS = 1
DEADLINE_S = 170.0
LAYER_OPS = ("conv1d", "conv2d", "bilstm", "batch_norm", "max_pool1d")
# workload-specific names for the two stages behind stage1_* / stage2_*
STAGE_NAMES = {
    "ingest": ("synth_session_s_per_s", "preprocess_session_s_per_s", "synth_call_ms_p50"),
    "train_small": ("train_clips_per_s", "eval_clips_per_s", "step_ms_p50"),
    "train_full": ("train_clips_per_s", "eval_clips_per_s", "step_ms_p50"),
}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def start_child(args, trace: int, work: Path):
    out = work / f"result-{trace}.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--work-dir", str(work / f"run-{trace}"), "--out", str(out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_keypoints:
        cmd.append("--corrupt-keypoints")
    spawned = time.monotonic()
    return subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL), spawned, out


def finish_child(child, deadline: float) -> dict:
    proc, spawned, out = child
    code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")
    res = json.loads(out.read_text())
    # setup: interpreter start and imports up to the first probe, then the
    # workload's setup sections, each paced by the probes around it
    start_s = res["pace_created"] - spawned
    res["setup_s"] = start_s + sum(dt for dt, _ in res["setup"])
    res["setup_paced_s"] = pace_time(start_s, res["pace_first_factor"]) + sum(pace_time(*sec) for sec in res["setup"])
    return res


def pace_time(dt: float, f: float) -> float:
    # the probes around an operation say little about the machine's speed
    # in the middle of a long one (see PACE_MAX_OP_S in pace.py)
    return dt * f if dt < PACE_MAX_OP_S else dt


def op_times(stage: dict, paced: bool) -> list:
    return [pace_time(dt, f) if paced else dt for dt, f in stage["ops"]]


def rate(stage: dict, paced: bool) -> float:
    times = op_times(stage, paced)
    return stage["items"] / sum(times) if times else 0.0


def p50_ms(stage: dict, paced: bool) -> float:
    times = op_times(stage, paced)
    return statistics.median(times) * 1e3 if times else 0.0


def tail(values_s):
    """Highest percentile with at least ten samples above it, or None."""
    vals = sorted(values_s)
    if len(vals) < 20:
        return None
    return {"ms": vals[-11] * 1e3, "percentile": 100.0 * (len(vals) - 10) / len(vals), "beyond": 10, "n": len(vals)}


def end_to_end(res: dict) -> dict:
    """Gated metrics; times are rescaled to the reference machine speed."""
    s1, s2 = res["stage1"], res["stage2"]
    return {
        "setup_s": (res["setup_paced_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "stage1_per_s": (rate(s1, True), "1/s"),
        "stage1_op_ms_p50": (p50_ms(s1, True), "ms"),
        "stage2_per_s": (rate(s2, True), "1/s"),
    }


class Spans:
    """Lookups over the traced child's exported spans."""

    def __init__(self, trace: dict):
        self.rows = trace["spans"]

    def _sum(self, field, name, scope=None):
        return sum(r[field] for r in self.rows if r["name"] == name and (scope is None or r["scope"] == scope))

    def self_s(self, name, scope=None):
        return self._sum("self_s", name, scope)

    def total_s(self, name, scope=None):
        return self._sum("total_s", name, scope)

    def calls(self, name, scope=None):
        return self._sum("calls", name, scope)

    def per_call_ms(self, name, field="total_s"):
        n = self.calls(name)
        return 1e3 * self._sum(field, name) / n if n else 0.0


def per_layer(tr: dict, overhead_pct: float) -> dict:
    sp = Spans(tr)
    steps = sp.calls("sam.step", "step")
    per_step = (lambda s: 1e3 * s / steps) if steps else (lambda s: 0.0)
    loss_evals = sp.calls("sam.loss_eval", "step")
    m = {}
    for op in LAYER_OPS:
        m[f"layers.{op}.fwd_ms"] = (per_step(sp.self_s(f"layers.{op}.fwd", "step")), "ms")
        m[f"layers.{op}.bwd_ms"] = (per_step(sp.self_s(f"layers.{op}.bwd", "step")), "ms")
    m["autodiff.backward_ms"] = (per_step(sp.self_s("autodiff.backward", "step")), "ms")
    m["autodiff.ops_per_pass"] = (tr["nodes"].get("step", 0) / loss_evals if loss_evals else 0.0, "count")
    m["sam.step_ms"] = (per_step(sp.total_s("sam.step", "step")), "ms")
    m["sam.overhead_ms"] = (per_step(sp.self_s("sam.step", "step")), "ms")
    m["sam.loss_evals_per_step"] = (loss_evals / steps if steps else 0.0, "count")
    waits = tr["data_waits"]
    m["training.data_wait_ms"] = (1e3 * tr["data_wait_s"] / waits if waits else 0.0, "ms")
    m["training.eval_ms"] = (sp.per_call_ms("training.evaluate_clips"), "ms")
    m["model.forward_ms"] = (sp.per_call_ms("model.MultiModalClassifier.forward"), "ms")
    m["model.batch_inputs_ms"] = (sp.per_call_ms("model.batch_inputs"), "ms")
    m["fusion.bank_fwd_ms"] = (sp.per_call_ms("fusion.SubAttentionalBank.forward"), "ms")
    m["musdl.kl_rows_ms"] = (sp.per_call_ms("musdl.kl_rows"), "ms")
    m["musdl.decode_ms"] = (sp.per_call_ms("musdl.decode_prediction"), "ms")
    sampling = sum(r["total_s"] for r in sp.rows if r["name"].startswith("sampling."))
    m["sampling.ms_per_step"] = (per_step(sampling), "ms")
    evals = sp.calls("training.evaluate_clips")
    phq = sum(r["self_s"] for r in sp.rows if r["name"].startswith("phq."))
    m["phq.report_ms"] = (1e3 * phq / evals if evals else 0.0, "ms")
    for fn in ("synth_audio", "synth_keypoints", "synth_embeddings"):
        m[f"synthetic.{fn}_ms"] = (sp.per_call_ms(f"synthetic.{fn}"), "ms")
    for fn in ("write_keypoints", "read_keypoints", "write_embeddings", "ingest_embeddings",
               "normalize_keypoints", "sliding_window_clips"):
        field = "self_s" if fn == "sliding_window_clips" else "total_s"
        m[f"features.{fn}_ms"] = (sp.per_call_ms(f"features.{fn}", field), "ms")
    for io_dir in ("read", "write"):
        name = f"features.{io_dir}_keypoints"
        secs = sp.total_s(name)
        mbps = tr["text_bytes"].get(name, 0) / 1e6 / secs if secs else 0.0
        m[f"features.keypoint_text_{io_dir}_MBps"] = (mbps, "MB/s")
    m["dsp.write_wav_ms"] = (sp.per_call_ms("dsp.write_wav"), "ms")
    m["dsp.read_wav_ms"] = (sp.per_call_ms("dsp.read_wav"), "ms")
    m["dsp.log_mel_ms"] = (sp.per_call_ms("dsp.log_mel_spectrogram"), "ms")
    for fn in ("load_session", "write_clips", "read_clips"):
        m[f"data.{fn}_ms"] = (sp.per_call_ms(f"data.{fn}"), "ms")
    for fn in ("write_tensor", "read_tensor", "save_checkpoint", "load_checkpoint"):
        m[f"tensorio.{fn}_ms"] = (sp.per_call_ms(f"tensorio.{fn}"), "ms")
    subcommands = sp.calls("cli.main")
    cli_self = sum(r["self_s"] for r in sp.rows if r["name"].startswith("cli."))
    m["cli.self_ms"] = (1e3 * cli_self / subcommands if subcommands else 0.0, "ms")
    for key, value in shares(sp).items():
        m[f"share.{key}"] = (value, "%")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def shares(sp: Spans) -> dict:
    """The ROADMAP baseline shares, recomputed from one traced run."""
    pass_s = sp.total_s("sam.loss_eval", "step") + sp.total_s("autodiff.backward", "step")

    def of_pass(op):
        t = sp.self_s(f"layers.{op}.fwd", "step") + sp.self_s(f"layers.{op}.bwd", "step")
        return 100.0 * t / pass_s if pass_s else 0.0

    synth = sp.total_s("cli.cmd_synth_data")
    pre = sp.total_s("cli.cmd_preprocess")
    parse = sp.total_s("features.read_keypoints") + sp.total_s("features.ingest_embeddings")
    return {
        "bilstm_pct_of_pass": of_pass("bilstm"),
        "conv2d_pct_of_pass": of_pass("conv2d"),
        "write_keypoints_pct_of_synth": 100.0 * sp.total_s("features.write_keypoints") / synth if synth else 0.0,
        "text_parse_pct_of_preprocess": 100.0 * parse / pre if pre else 0.0,
    }


def environment(args) -> dict:
    import numpy as np

    try:
        # only a repository rooted here counts, not one that encloses the checkout
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.split()
        commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == Path.cwd().resolve() else ""
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
    }


def stage_report(workload: str, res: dict) -> dict:
    """The stages under their workload's names, in plain wall time."""
    first, second, p50 = STAGE_NAMES[workload]
    s1 = res["stage1"]
    rep = {
        "setup_s": res["setup_s"],
        first: rate(s1, False),
        second: rate(res["stage2"], False),
        p50: {"ms": p50_ms(s1, False), "n": len(s1["ops"])},
        "pace_factor_median": statistics.median(f for _, f in s1["ops"] + res["stage2"]["ops"]),
    }
    if workload != "ingest":
        rep["step_ms_tail"] = tail(op_times(s1, False))
    if "time_to_target_s" in res:
        rep["time_to_target_s"] = res["time_to_target_s"] if res["time_to_target_s"] is not None else "failed"
    for key in ("epochs", "checkpoint_s", "eval_cli_s"):
        if key in res:
            rep[key] = res[key]
    return rep


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="smallest sizes (smoke test only)")
    p.add_argument("--corrupt-keypoints", action="store_true", help="corrupt one keypoint file in ingest")
    args = p.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "depest" / "__init__.py").is_file():
        print("error: run from the root of a depest source tree (src/depest not found)", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    children = []
    try:
        # a traced run goes side by side with its untraced reference run,
        # one process per core, so that both fit the run's time limit
        for trace in (0, 1) if args.trace else (0,):
            children.append(start_child(args, trace, work))
        runs = [finish_child(c, started + DEADLINE_S) for c in children]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        for proc, _, _ in children:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    problems = [msg for r in runs for msg in r["problems"]]
    notes = [msg for r in runs for msg in r["notes"]]
    base = runs[0]
    if args.trace:
        traced = runs[1]
        n = min(len(base["digest"]), len(traced["digest"]))
        if base["digest"][:n] != traced["digest"][:n]:
            problems.append("traced run's outputs differ from the untraced run's")
        r0, r1 = rate(base["stage1"], True), rate(traced["stage1"], True)
        overhead = 100.0 * (r0 / r1 - 1.0) if r1 else 0.0
        metrics = per_layer(traced["trace"], overhead)
    else:
        metrics = end_to_end(base)

    report = {"environment": environment(args), "stages": stage_report(args.workload, base)}
    if args.trace:
        report["shares_pct"] = shares(Spans(runs[1]["trace"]))
    if problems:
        report["problems"] = problems
    if notes:
        report["failed_operations"] = notes
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

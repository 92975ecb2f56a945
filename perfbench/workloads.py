"""One benchmark workload in a fresh process; started by ``run.py``.

Writes a JSON record of raw timings, counts, checks and digests to the
file named by ``--out``; ``run.py`` turns it into metrics. Only the
timers that define end-to-end metrics are installed here (one per
subcommand, SAM step or eval call); ``--trace 1`` adds the span tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from depest import cli, config, data, features, sam, synthetic, tensorio, training
from depest.model import MultiModalClassifier

from pace import Pace
from spans import Tracer

SESSION_S = 160.0  # acceptance-corpus session length
FRAME_RATE = 30.0
INGEST_PARTICIPANTS = 2  # sessions per synth-data call
# criterion 7 of the acceptance suite: reduced model, AVT, subatten, SAM
SMALL_OVERRIDES = {
    "feature_dim": 64, "lstm_hidden": 32,
    "audio_channels": "16,32", "audio_strides": "4,1", "audio_pools": "2,2",
    "visual_channels": "16", "visual_strides": "4", "visual_pools": "2",
    "text_channels": "16",
    "batch_size": 16, "lr": 0.05, "momentum": 0.9, "sam_rho": 0.05,
}
SMALL_SESSIONS = 20  # 60 clips
SMALL_EPOCHS = 8
ACCEPTANCE_CORPUS_SEED = 0
FULL_SESSIONS = 6  # 18 clips, of which 16 are used
FULL_CLIPS = 16
FULL_STEPS = 1
TARGET_ACCURACY = 0.95
# --smoke: every stage at its smallest size, for the smoke test only
SMOKE_MODEL = {
    "feature_dim": 8, "lstm_hidden": 4,
    "audio_channels": "8", "audio_strides": "8", "audio_pools": "2",
    "visual_channels": "8", "visual_strides": "8", "visual_pools": "2",
    "text_channels": "8", "batch_size": 4, "lr": 0.05, "momentum": 0.9,
}
SMOKE_SESSION_S = 70.0

EXPECTED_SHAPES = {"audio.mft": (80, 1800), "visual.mft": (1800, 72, 3), "text.mft": (32, 512)}


def raw(fn):
    """The unwrapped function, so output checks add nothing to the trace."""
    return inspect.unwrap(fn)


class StageTimers:
    """The untraced run's only timers: SAM steps and eval calls."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.reset()

    def reset(self):
        self.steps = []  # (start, seconds, pace factor, loss)
        self.first_probed = 0.0  # probe seconds spent before the first step
        self.evals = []  # (clips, seconds, pace factor)
        self.sub_range = [np.inf, -np.inf]  # decoded subscore extremes

    def install(self):
        step = sam.SamOptimizer.step
        timers = self

        def timed_step(opt, loss_fn):
            if not timers.steps:
                timers.first_probed = timers.pace.spent
            t0 = time.perf_counter()
            loss = step(opt, loss_fn)
            dt = time.perf_counter() - t0
            timers.steps.append((t0, dt, timers.pace.factor(), loss))
            return loss

        sam.SamOptimizer.step = timed_step

        evaluate = training.evaluate_clips

        def timed_eval(model, clips, *args, **kwargs):
            clips = list(clips)
            t0 = time.perf_counter()
            ev = evaluate(model, clips, *args, **kwargs)
            dt = time.perf_counter() - t0
            timers.evals.append((len(clips), dt, timers.pace.factor()))
            timers.sub_range[0] = min(timers.sub_range[0], float(ev.subscores.min()))
            timers.sub_range[1] = max(timers.sub_range[1], float(ev.subscores.max()))
            return ev

        for mod in (training, cli):
            if mod.evaluate_clips is evaluate:
                mod.evaluate_clips = timed_eval


class EpochLog(io.StringIO):
    """Epoch log that also notes when each line was written."""

    def __init__(self, pace: Pace):
        super().__init__()
        self.pace = pace
        self.stamps = []  # (time, seconds spent probing by then)

    def write(self, text):
        self.stamps.append((time.perf_counter(), self.pace.spent))
        return super().write(text)


def run_cli(argv) -> tuple[int, float]:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, time.perf_counter() - t0


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def state_digest(model) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(model.state().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# -- ingest ----------------------------------------------------------------


def corrupt_keypoints(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[len(lines) // 2] = "corrupt line\n"
    path.write_text("".join(lines))


def check_bundles(clips_dir: Path, n_sessions: int, session_s: float, cfg: dict, problems: list) -> None:
    per_session = raw(features.clip_count)(session_s, cfg["clip_window_s"], cfg["clip_overlap_s"])
    bundles = sorted(p for p in clips_dir.iterdir() if p.is_dir())
    if len(bundles) != n_sessions * per_session:
        problems.append(f"{clips_dir}: {len(bundles)} bundles, expected {n_sessions * per_session}")
    for b in bundles:
        for name, shape in EXPECTED_SHAPES.items():
            arr = raw(tensorio.read_tensor)(b / name)
            if arr.shape != shape or not np.all(np.isfinite(arr)):
                problems.append(f"{b / name}: shape {arr.shape} or non-finite values")


def ingest(args, work: Path, tracer, pace: Pace) -> dict:
    cfg = config.parse_config(None, {})
    session_s = SMOKE_SESSION_S if args.smoke else SESSION_S
    # warm-up on a throwaway pair of short sessions
    warm = work / "warm"
    setup = []
    with pace.section(setup):
        run_cli(["synth-data", "--out-dir", warm / "raw", "--participants", 2, "--duration-s", 60, "--seed", args.seed])
    with pace.section(setup):
        run_cli(["preprocess", "--manifest", warm / "raw" / "manifest.csv", "--out-dir", warm / "clips"])
        shutil.rmtree(warm)
    if tracer:
        tracer.reset()

    synth_s, pre_s, problems, notes, digests = [], [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - started < args.seconds:
        rdir = work / f"round{rnd}"
        seed = args.seed * 1000 + rnd
        attempted += 1
        code, dt = run_cli(["synth-data", "--out-dir", rdir / "raw", "--participants", INGEST_PARTICIPANTS,
                            "--duration-s", session_s, "--seed", seed])
        if code != 0:
            failed += 1
            problems.append(f"synth-data exit {code}")
            break
        synth_s.append((dt, pace.factor()))
        if args.corrupt_keypoints and rnd == 0:
            corrupt_keypoints(rdir / "raw" / "P000" / "keypoints.txt")
        attempted += 1
        code, dt = run_cli(["preprocess", "--manifest", rdir / "raw" / "manifest.csv", "--out-dir", rdir / "clips"])
        if code != 0:
            failed += 1
            msg = f"preprocess exit {code}"
            # a corrupted keypoint file must fail its preprocess call, not the run
            (notes if args.corrupt_keypoints and rnd == 0 else problems).append(msg)
        else:
            pre_s.append((dt, pace.factor()))
            check_bundles(rdir / "clips", INGEST_PARTICIPANTS, session_s, cfg, problems)
            digests.append(tree_digest(rdir / "clips"))
        shutil.rmtree(rdir)
        rnd += 1

    items = INGEST_PARTICIPANTS * session_s
    return {
        "setup": setup,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": notes,
        "stage1": {"items": items * len(synth_s), "ops": synth_s},
        "stage2": {"items": items * len(pre_s), "ops": pre_s},
        "digest": digests,
    }


# -- training --------------------------------------------------------------


def build_clips(seed: int, n_sessions: int, session_s: float, cfg: dict, pace: Pace, setup: list) -> list:
    """The acceptance corpus's sessions, cut in memory (no text round trip)."""
    n_dep = n_sessions // 2
    flags = synthetic._stratified_flags(n_sessions, n_dep)
    clips = []
    for j in range(n_sessions):
        with pace.section(setup):
            clips.extend(_session_clips(seed, j, flags[j], session_s, cfg))
    return clips


def _session_clips(seed: int, j: int, depressed: bool, session_s: float, cfg: dict) -> list:
    rng = np.random.default_rng([seed, 7919, j])
    subs = synthetic._sample_subscores(rng, depressed)
    total = sum(subs)
    session = features.SessionFeatures(
        audio=synthetic.synth_audio(rng, subs, session_s, cfg["sample_rate"]),
        frames=synthetic.synth_keypoints(rng, total, session_s, FRAME_RATE),
        sentences=synthetic.synth_embeddings(rng, depressed, total, session_s),
        phq_subscores=subs,
        participant_id=f"P{j:03d}",
        gender="female" if j % 2 == 0 else "male",
    )
    return features.sliding_window_clips(
        session,
        window_s=cfg["clip_window_s"],
        overlap_s=cfg["clip_overlap_s"],
        stft_cfg=config.stft_config(cfg),
        mel_cfg=config.mel_config(cfg),
        max_sentences=cfg["max_sentences"],
    )


def train_model(model, clips, cfg, epochs, log_fh=None):
    """The same call `depest train` makes."""
    return training.train(
        model,
        clips,
        musdl_cfg=config.musdl_config(cfg),
        sam_cfg=config.sam_config(cfg),
        epochs=epochs,
        batch_size=cfg["batch_size"],
        sampler_mode=cfg["sampler_mode"],
        gender_balance=bool(cfg["gender_balance"]),
        dynamic_weights=bool(cfg["dynamic_weights"]),
        seed=cfg["seed"],
        log_fh=log_fh,
    )


def run_training(args, work: Path, tracer, timers, full: bool) -> dict:
    if args.smoke:
        cfg = config.parse_config(None, {**SMOKE_MODEL, "seed": args.seed})
        n_sessions, session_s, epochs, n_clips = 2, SMOKE_SESSION_S, 1, 2
    elif full:
        cfg = config.parse_config(None, {"seed": args.seed})
        n_sessions, session_s, epochs, n_clips = FULL_SESSIONS, SESSION_S, FULL_STEPS, FULL_CLIPS
    else:
        cfg = config.parse_config(None, {**SMALL_OVERRIDES, "seed": args.seed})
        n_sessions, session_s, epochs, n_clips = SMALL_SESSIONS, SESSION_S, SMALL_EPOCHS, None
    # train_small trains on the acceptance corpus itself (corpus seed 0, as
    # in criterion 7); its workload seed drives model init and the sampler
    corpus_seed = ACCEPTANCE_CORPUS_SEED if not (full or args.smoke) else args.seed
    pace = timers.pace
    setup = []
    clips = build_clips(corpus_seed, n_sessions, session_s, cfg, pace, setup)[:n_clips]
    with pace.section(setup):
        if full:
            clips_dir = work / "clips"
            raw(data.write_clips)(clips_dir, clips)
            cfg_path = work / "run.cfg"
            cfg_path.write_text(config.canonical_text(cfg))
        # warm-up: a throwaway model and its own sampler, one step on two clips
        warm_cfg = {**cfg, "seed": cfg["seed"] + 1, "batch_size": 2}
        warm = MultiModalClassifier(config.model_config(warm_cfg), rng=np.random.default_rng(warm_cfg["seed"]))
        train_model(warm, clips[:2], warm_cfg, epochs=1)
        del warm
        model = MultiModalClassifier(config.model_config(cfg), rng=np.random.default_rng(cfg["seed"]))
    timers.reset()
    if tracer:
        tracer.reset()

    log = EpochLog(pace)
    history = train_model(model, clips, cfg, epochs, log_fh=log)

    failed = sum(1 for *_, loss in timers.steps if not np.isfinite(loss))
    problems = [f"{failed} non-finite step losses"] if failed else []
    out = {"setup": setup, "epochs": len(history)}

    if full:
        ckpt = work / "model.ckpt"
        t0 = time.perf_counter()
        tensorio.save_checkpoint(ckpt, epoch=history[-1].epoch, config_text=config.canonical_text(cfg), state=model.state())
        out["checkpoint_s"] = time.perf_counter() - t0
        code, out["eval_cli_s"] = run_cli(["eval", "--clips-dir", clips_dir, "--checkpoint", ckpt, "--config", cfg_path])
        if code != 0:
            failed += 1
            problems.append(f"depest eval exit {code}")
    else:
        # probe time is left out of the time to target
        first_step = timers.steps[0][0] - timers.first_probed
        hit = next(
            (t - probed for (t, probed), h in zip(log.stamps, history) if h.clip_accuracy >= TARGET_ACCURACY),
            None,
        )
        # a miss is reported as a failed time to target; it is a property of
        # the training run, not a failed operation
        out["time_to_target_s"] = None if hit is None else hit - first_step

    lo, hi = timers.sub_range
    if not (0 <= lo and hi <= 3):
        failed += 1
        problems.append(f"decoded subscores outside 0..3: [{lo}, {hi}]")
    batch = cfg["batch_size"]
    out.update(
        attempted=len(timers.steps) + len(timers.evals) + int(full),  # steps, evals, `depest eval`
        failed=failed,
        problems=problems,
        notes=[],
        stage1={"items": batch * len(timers.steps), "ops": [(dt, f) for _, dt, f, _ in timers.steps]},
        stage2={"items": sum(n for n, _, _ in timers.evals), "ops": [(dt, f) for _, dt, f in timers.evals]},
        digest=[state_digest(model), log.getvalue()],
    )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=["ingest", "train_small", "train_full"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--corrupt-keypoints", action="store_true")
    args = p.parse_args(argv)

    pace = Pace()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    timers = StageTimers(pace)
    timers.install()
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)

    if args.workload == "ingest":
        result = ingest(args, work, tracer, pace)
    else:
        result = run_training(args, work, tracer, timers, full=args.workload == "train_full")
    result["pace_created"] = pace.created
    result["pace_first_factor"] = pace.first_factor
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["trace"] = tracer.export() if tracer else None
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

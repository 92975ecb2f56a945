"""Training and evaluation loops over clip samples.

One step draws a weighted batch, builds the soft-label targets, and
runs a two-pass sharpness-aware update on the summed (optionally
class-weight scaled) KL loss. Epoch stats track the mean step loss plus
clip-level binary accuracy and per-item accuracy over the whole clip
set, split by gender for the epoch log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import EmptyInputError
from .model import MultiModalClassifier, batch_inputs
from .musdl import MusdlConfig, decode_prediction, kl_rows, transform_labels
from .phq import aggregate_participant, derive_phq
from .sam import SamConfig, SamOptimizer
from .sampling import compute_sampler_weights, draw_indices, dynamic_class_weights, row_weights_for_batch


@dataclass
class EpochStats:
    epoch: int
    loss: float
    clip_accuracy: float  # binary, over all clips
    subscore_accuracy: np.ndarray  # [n_items]
    female_accuracy: float
    male_accuracy: float

    def log_line(self) -> str:
        return (
            f"{self.epoch} {self.loss:.6f} {self.clip_accuracy:.4f} "
            f"{self.female_accuracy:.4f} {self.male_accuracy:.4f}"
        )


@dataclass
class EvalResult:
    subscores: np.ndarray  # [n_clips, n_items] predictions
    records: list  # PhqRecord per clip
    clip_accuracy: float
    subscore_accuracy: np.ndarray
    female_accuracy: float
    male_accuracy: float


def soft_targets(clips, musdl_cfg: MusdlConfig) -> np.ndarray:
    return np.stack([transform_labels(np.array(c.phq_subscores), musdl_cfg) for c in clips])


def evaluate_clips(model: MultiModalClassifier, clips, musdl_cfg: MusdlConfig, batch_size: int) -> EvalResult:
    """Eval-mode forward over all clips; accuracy against clip labels."""
    clips = list(clips)
    if not clips:
        raise EmptyInputError("no clips to evaluate")
    model.eval()
    preds = []
    for lo in range(0, len(clips), batch_size):
        chunk = clips[lo : lo + batch_size]
        dist = model.forward(**batch_inputs(chunk, model.cfg)).data  # [B, n_items, m']
        for row in dist:
            preds.append(decode_prediction(row, musdl_cfg))
    subs = np.stack(preds)  # [n, n_items]

    truth = np.array([c.phq_subscores for c in clips])
    records = [derive_phq(s) for s in subs]
    pred_bin = np.array([r.binary for r in records])
    true_bin = np.array([derive_phq(s).binary for s in truth])
    correct = pred_bin == true_bin

    genders = np.array([c.gender for c in clips])
    fem = genders == "female"
    male = genders == "male"
    return EvalResult(
        subscores=subs,
        records=records,
        clip_accuracy=float(correct.mean()),
        subscore_accuracy=(subs == truth).mean(axis=0),
        female_accuracy=float(correct[fem].mean()) if fem.any() else float("nan"),
        male_accuracy=float(correct[male].mean()) if male.any() else float("nan"),
    )


def train(
    model: MultiModalClassifier,
    clips,
    sam_cfg: SamConfig,
    musdl_cfg: MusdlConfig,
    epochs: int,
    batch_size: int,
    sampler_mode: str = "score",
    gender_balance: bool = True,
    dynamic_weights: bool = True,
    seed: int = 0,
    stop_accuracy: float = None,
    log_fh=None,
) -> list:
    """Full training run; returns per-epoch stats (last epoch may stop early).

    stop_accuracy halts once clip-level binary accuracy reaches the
    target. The epoch log (if log_fh given) gets one line per epoch:
    epoch, mean loss, clip accuracy, female accuracy, male accuracy.
    """
    clips = list(clips)
    if not clips:
        raise EmptyInputError("no training clips")
    n_expanded = musdl_cfg.n_expanded
    targets_all = soft_targets(clips, musdl_cfg)  # [n, n_items, m']
    weights = compute_sampler_weights(clips, sampler_mode, gender_balance)
    rng = np.random.default_rng(seed)
    opt = SamOptimizer(list(model.parameters()), sam_cfg)
    steps = max(1, (len(clips) + batch_size - 1) // batch_size)

    history = []
    for epoch in range(1, epochs + 1):
        model.train()
        losses = []
        for _ in range(steps):
            idx = draw_indices(rng, weights, min(batch_size, len(clips)))
            chunk = [clips[i] for i in idx]
            inputs = batch_inputs(chunk, model.cfg)
            flat_targets = targets_all[idx].reshape(-1, n_expanded)
            if dynamic_weights:
                gt = np.array([c.phq_subscores for c in chunk])
                roww = row_weights_for_batch(gt, dynamic_class_weights(gt, musdl_cfg.n_classes))
            else:
                roww = None
            scale = 1.0 / len(chunk)

            def loss_fn():
                preds = model.forward(**inputs)
                flat = ad.reshape(preds, (-1, n_expanded))
                return ad.mul(kl_rows(flat_targets, flat, roww), ad.tensor(scale))

            losses.append(opt.step(loss_fn))
            del inputs  # the next batch is built with this one freed

        ev = evaluate_clips(model, clips, musdl_cfg, batch_size)
        stats = EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)),
            clip_accuracy=ev.clip_accuracy,
            subscore_accuracy=ev.subscore_accuracy,
            female_accuracy=ev.female_accuracy,
            male_accuracy=ev.male_accuracy,
        )
        history.append(stats)
        if log_fh is not None:
            log_fh.write(stats.log_line() + "\n")
            log_fh.flush()
        if stop_accuracy is not None and stats.clip_accuracy >= stop_accuracy:
            break
    return history


def fusion_comparison(
    clips,
    make_model,
    fusion_modes,
    sam_cfg: SamConfig,
    musdl_cfg: MusdlConfig,
    epochs: int,
    batch_size: int,
    modalities=("av", "avt"),
    seed: int = 0,
) -> list:
    """Train one small model per (fusion, modality) pair and tabulate.

    make_model(fusion, modality) -> fresh MultiModalClassifier. Returns
    rows of dicts: fusion, modality, clip binary accuracy, f1, mae,
    rmse at participant level. No ordering among methods is implied.
    """
    from .phq import compute_metrics

    rows = []
    for modality in modalities:
        for mode in fusion_modes:
            model = make_model(mode, modality)
            train(
                model,
                clips,
                musdl_cfg=musdl_cfg,
                sam_cfg=sam_cfg,
                epochs=epochs,
                batch_size=batch_size,
                seed=seed,
            )
            ev = evaluate_clips(model, clips, musdl_cfg, batch_size)
            truth, preds = _aggregate_eval(clips, ev)
            rep = compute_metrics(
                [preds[r.participant_id][0] for r in truth],
                [r.binary for r in truth],
                [preds[r.participant_id][1] for r in truth],
                [r.score for r in truth],
            )
            rows.append(
                {
                    "fusion": mode,
                    "modality": modality,
                    "clip_accuracy": ev.clip_accuracy,
                    "f1": rep.f1,
                    "mae": rep.mae,
                    "rmse": rep.rmse,
                }
            )
    return rows


def comparison_table(rows) -> str:
    head = f"{'fusion':<10} {'modality':<8} {'clip_acc':>8} {'f1':>6} {'mae':>7} {'rmse':>7}"
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['fusion']:<10} {r['modality']:<8} {r['clip_accuracy']:>8.4f} "
            f"{r['f1']:>6.3f} {r['mae']:>7.3f} {r['rmse']:>7.3f}"
        )
    return "\n".join(lines)


def aggregate_predictions(model: MultiModalClassifier, clips, musdl_cfg: MusdlConfig, batch_size: int):
    """Participant-level truth results and predictions.

    Returns (truth_results, pred_by_id) suitable for the gender-split
    report: truths from the clip labels, predictions from the model's
    per-clip records aggregated by mean score / majority binary.
    """
    clips = list(clips)
    return _aggregate_eval(clips, evaluate_clips(model, clips, musdl_cfg, batch_size))


def _aggregate_eval(clips: list, ev: EvalResult):
    """aggregate_predictions on an existing evaluation of the same clips."""
    by_pid = {}
    for clip, rec in zip(clips, ev.records):
        by_pid.setdefault(clip.participant_id, {"gender": clip.gender, "true": [], "pred": []})
        by_pid[clip.participant_id]["true"].append(derive_phq(clip.phq_subscores))
        by_pid[clip.participant_id]["pred"].append(rec)

    truth_results = []
    pred_by_id = {}
    for pid in sorted(by_pid):
        info = by_pid[pid]
        truth_results.append(aggregate_participant(pid, info["gender"], info["true"]))
        pred_agg = aggregate_participant(pid, info["gender"], info["pred"])
        pred_by_id[pid] = (pred_agg.binary, pred_agg.score)
    return truth_results, pred_by_id

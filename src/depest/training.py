"""Training and evaluation loops over clip samples.

One step draws a weighted batch, builds the soft-label targets, and
runs a two-pass sharpness-aware update on the summed (optionally
class-weight scaled) KL loss. Epoch stats track the mean step loss plus
clip-level binary accuracy over the whole clip set, split by gender for
the epoch log. Every reported metric, per
clip or per participant, comes from one gender-split report over the
clips' predicted records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, EmptyInputError
from .model import MultiModalClassifier, batch_inputs
from .musdl import MusdlConfig, decode_prediction, kl_rows, transform_labels
from .phq import GenderSplitReport, aggregate_participant, derive_phq, gender_split_report
from .sam import SamConfig, SamOptimizer
from .sampling import compute_sampler_weights, draw_indices, dynamic_class_weights, row_weights_for_batch


@dataclass
class EpochStats:
    epoch: int
    loss: float
    clip_accuracy: float  # binary, over all clips
    female_accuracy: float
    male_accuracy: float
    evaluation: EvalResult = None  # the epoch's closing eval, on the weights it ends with

    def log_line(self) -> str:
        return (
            f"{self.epoch} {self.loss:.6f} {self.clip_accuracy:.4f} "
            f"{self.female_accuracy:.4f} {self.male_accuracy:.4f}"
        )


@dataclass
class EvalResult:
    subscores: np.ndarray  # [n_clips, n_items] predictions
    records: list  # PhqRecord per clip
    report: GenderSplitReport  # clip level


def soft_targets(clips, musdl_cfg: MusdlConfig) -> np.ndarray:
    return np.stack([transform_labels(np.array(c.phq_subscores), musdl_cfg) for c in clips])


def report(clips, records, by_participant: bool = False) -> GenderSplitReport:
    """Gender-split metrics of per-clip predicted records against clip labels.

    Clips group by participant id (in sorted order) or, by default, one
    group per clip in clip order. Truth and prediction of a group are
    each aggregated by mean score and strict-majority binary vote.
    """
    groups = {}
    for i, (clip, rec) in enumerate(zip(clips, records)):
        group = groups.setdefault(clip.participant_id if by_participant else i, (clip.gender, [], []))
        group[1].append(derive_phq(clip.phq_subscores))
        group[2].append(rec)
    truth, preds = [], {}
    for key in sorted(groups):
        gender, true_recs, pred_recs = groups[key]
        truth.append(aggregate_participant(key, gender, true_recs))
        pred = aggregate_participant(key, gender, pred_recs)
        preds[key] = (pred.binary, pred.score)
    return gender_split_report(truth, preds)


def evaluate_clips(model: MultiModalClassifier, clips, musdl_cfg: MusdlConfig, batch_size: int) -> EvalResult:
    """Eval-mode forward over all clips; clip-level report against clip labels."""
    clips = list(clips)
    if not clips:
        raise EmptyInputError("no clips to evaluate")
    model.eval()
    subs = np.concatenate([
        decode_prediction(model.forward(**batch_inputs(clips[lo : lo + batch_size], model.cfg)).data, musdl_cfg)
        for lo in range(0, len(clips), batch_size)
    ])  # [n, n_items]
    records = [derive_phq(s) for s in subs]
    return EvalResult(subscores=subs, records=records, report=report(clips, records))


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

    stop_accuracy (within [0, 1]) halts once clip-level binary accuracy
    reaches it. The epoch log (if log_fh given) gets one line per epoch:
    epoch, mean loss, clip accuracy, female accuracy, male accuracy.
    """
    clips = list(clips)
    if not clips:
        raise EmptyInputError("no training clips")
    if epochs < 1 or batch_size < 1:
        raise ConfigError(f"epochs and batch_size must be >= 1, got {epochs} and {batch_size}")
    if stop_accuracy is not None and not 0.0 <= stop_accuracy <= 1.0:
        raise ConfigError(f"stop accuracy must be within [0, 1], got {stop_accuracy}")
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
        rep = ev.report
        stats = EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)),
            clip_accuracy=rep.overall.accuracy,
            female_accuracy=rep.female.accuracy if rep.female else float("nan"),
            male_accuracy=rep.male.accuracy if rep.male else float("nan"),
            evaluation=ev,
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
    rows = []
    for modality in modalities:
        for mode in fusion_modes:
            history = train(
                make_model(mode, modality),
                clips,
                musdl_cfg=musdl_cfg,
                sam_cfg=sam_cfg,
                epochs=epochs,
                batch_size=batch_size,
                seed=seed,
            )
            ev = history[-1].evaluation
            rep = report(clips, ev.records, by_participant=True).overall
            rows.append(
                {
                    "fusion": mode,
                    "modality": modality,
                    "clip_accuracy": ev.report.overall.accuracy,
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


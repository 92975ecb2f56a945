"""PHQ-8 labels, scoring, participant-level aggregation, and evaluation metrics.

The one home of the label rule: 8 whole item subscores (each 0..3) and
a gender in GENDERS. The subscores sum to a total score in 0..24, with
the depressed/not-depressed binary cut at score >= 10; ``severity_band``
names a score's five-band severity tag. Clip-level records recombine
into a participant result by averaging scores and taking a
strict-majority vote on the binary.
Metrics cover binary classification (positive class = depressed) and
score regression, with an optional gender-split report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, EmptyInputError, ShapeError

N_ITEMS = 8
ITEM_MAX = 3
BINARY_CUTOFF = 10
GENDERS = ("female", "male")

SEVERITY_BANDS = (
    (0, 4, "not significant"),
    (5, 9, "mild"),
    (10, 14, "moderate"),
    (15, 19, "moderately severe"),
    (20, 24, "severe"),
)


@dataclass(frozen=True)
class PhqRecord:
    score: int
    binary: int


@dataclass
class ParticipantResult:
    participant_id: str
    gender: str
    score: float  # mean of clip scores
    binary: int  # strict-majority vote over clip binaries


@dataclass
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    mae: float
    rmse: float
    n: int
    zero_division_flags: tuple = ()

    def lines(self) -> list:
        out = [
            f"n {self.n}",
            f"accuracy {self.accuracy:.4f}",
            f"precision {self.precision:.4f}",
            f"recall {self.recall:.4f}",
            f"f1 {self.f1:.4f}",
            f"mae {self.mae:.4f}",
            f"rmse {self.rmse:.4f}",
        ]
        if self.zero_division_flags:
            out.append("zero-division " + ",".join(self.zero_division_flags))
        return out


def severity_band(score: int) -> str:
    for lo, hi, tag in SEVERITY_BANDS:
        if lo <= score <= hi:
            return tag
    raise DomainError(f"score {score} outside [0,24]")


def item_scores(subscores) -> tuple:
    """The N_ITEMS item subscores as ints in 0..ITEM_MAX, or DataError naming them; 1.5 is rejected, not truncated."""
    given = tuple(subscores)
    try:
        subs = tuple(int(s) for s in given)
    except (TypeError, ValueError, OverflowError):
        subs = None
    if subs != given or len(subs) != N_ITEMS or any(s < 0 or s > ITEM_MAX for s in subs):
        raise DataError(f"need {N_ITEMS} whole item subscores in [0,{ITEM_MAX}], got ({', '.join(map(str, given))})")
    return subs


def check_label(subscores, gender: str) -> tuple:
    """A sample's item subscores, as item_scores gives them, once its gender is one of GENDERS."""
    if gender not in GENDERS:
        raise DataError(f"gender must be one of {', '.join(GENDERS)}, got '{gender}'")
    return item_scores(subscores)


def derive_phq(subscores) -> PhqRecord:
    """8 item subscores -> total score and binary cut at 10."""
    score = sum(item_scores(subscores))
    return PhqRecord(score=score, binary=int(score >= BINARY_CUTOFF))


def aggregate_participant(participant_id: str, gender: str, clip_records) -> ParticipantResult:
    """Mean clip score; binary 1 iff strictly more than half the clips vote 1."""
    clip_records = list(clip_records)
    if not clip_records:
        raise EmptyInputError(f"participant {participant_id} has no clips")
    scores = [r.score for r in clip_records]
    votes = [r.binary for r in clip_records]
    return ParticipantResult(
        participant_id=participant_id,
        gender=gender,
        score=float(np.mean(scores)),
        binary=int(np.mean(votes) > 0.5),
    )


def compute_metrics(pred_binary, true_binary, pred_scores, true_scores) -> MetricReport:
    """Binary classification metrics plus MAE/RMSE over scores.

    Positive class is depressed (binary 1). Degenerate denominators
    (e.g. no positive predictions) yield 0 and are flagged rather than
    raising.
    """
    pb = np.asarray(pred_binary, dtype=int)
    tb = np.asarray(true_binary, dtype=int)
    if pb.shape != tb.shape or pb.ndim != 1:
        raise ShapeError(f"binary vectors must be equal-length 1-D, got {pb.shape} vs {tb.shape}")
    if pb.size == 0:
        raise EmptyInputError("no predictions to score")

    tp = int(np.sum((pb == 1) & (tb == 1)))
    fp = int(np.sum((pb == 1) & (tb == 0)))
    fn = int(np.sum((pb == 0) & (tb == 1)))
    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    accuracy = float(np.mean(pb == tb))
    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    f1 = ratio(2.0 * precision * recall, precision + recall, "f1")

    ps = np.asarray(pred_scores, dtype=np.float64)
    ts = np.asarray(true_scores, dtype=np.float64)
    if ps.shape != ts.shape:
        raise ShapeError(f"score vectors must match, got {ps.shape} vs {ts.shape}")
    mae = float(np.mean(np.abs(ps - ts)))
    rmse = float(np.sqrt(np.mean((ps - ts) ** 2)))

    return MetricReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        mae=mae,
        rmse=rmse,
        n=int(pb.size),
        zero_division_flags=tuple(flags),
    )


@dataclass
class GenderSplitReport:
    overall: MetricReport
    female: MetricReport | None
    male: MetricReport | None
    accuracy_gap: float | None
    f1_gap: float | None
    mae_gap: float | None

    def lines(self) -> list:
        out = ["[overall]"] + self.overall.lines()
        for tag, rep in zip(GENDERS, (self.female, self.male)):
            out.append(f"[{tag}]")
            out.extend(rep.lines() if rep is not None else ["absent"])
        out.append("[gap]")
        if self.accuracy_gap is None:
            out.append("absent (need both groups)")
        else:
            out.append(f"accuracy {self.accuracy_gap:.4f}")
            out.append(f"f1 {self.f1_gap:.4f}")
            out.append(f"mae {self.mae_gap:.4f}")
        return out


def gender_split_report(results, pred_by_id) -> GenderSplitReport:
    """Per-gender metrics and |female - male| gaps over participant results.

    results: ParticipantResult truths; pred_by_id: participant_id ->
    (pred_binary, pred_score). A gender with no participants is marked
    absent and the gap columns are dropped.
    """
    results = list(results)
    if not results:
        raise EmptyInputError("no participant results")

    def metrics_for(group):
        if not group:
            return None
        pb = [pred_by_id[r.participant_id][0] for r in group]
        ps = [pred_by_id[r.participant_id][1] for r in group]
        tb = [r.binary for r in group]
        ts = [r.score for r in group]
        return compute_metrics(pb, tb, ps, ts)

    female, male = (metrics_for([r for r in results if r.gender == g]) for g in GENDERS)
    both = female is not None and male is not None
    gaps = [abs(getattr(female, key) - getattr(male, key)) if both else None for key in ("accuracy", "f1", "mae")]
    return GenderSplitReport(metrics_for(results), female, male, *gaps)

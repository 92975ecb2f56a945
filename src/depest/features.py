"""Visual and text preprocessing plus the overlapped clip cutter.

A session's keypoints are one array pair, `Keypoints(times [T],
points [T, 72, 3])`: 68 landmark rows plus 4 gaze rows per frame, each a
3-vector. Landmarks are min-max normalized per coordinate axis over the
whole session; gaze rows stay untouched since they arrive as unit
vectors. Sentence embeddings are `Sentences(starts [S], stops [S],
vectors [S, 512])`. The clipper slices a session into fixed-length
overlapped windows with boolean masks on frame times and sentence
midpoints, and bundles per-clip audio/visual/text tensors with the
session labels, which ``phq.check_label`` checks.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .dsp import MelConfig, StftConfig, Waveform, log_mel_spectrogram, standardize
from .errors import ConfigError, DataError, EmptyInputError, EmptyOutputError, FormatError
from .phq import check_label

N_LANDMARKS = 68
N_GAZE = 4
FRAME_ROWS = N_LANDMARKS + N_GAZE  # 72
EMBED_DIM = 512


@dataclass
class Keypoints:
    """A session's keypoint track: one timestamp and one [72, 3] frame per row."""

    times: np.ndarray  # [T]
    points: np.ndarray  # [T, 72, 3]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.shape[1:] != (FRAME_ROWS, 3) or self.times.shape != self.points.shape[:1]:
            raise FormatError(
                f"keypoints must be [T,{FRAME_ROWS},3] with T timestamps, got {self.points.shape} and {self.times.shape}"
            )
        i = _first_bad(self.times, np.isfinite(self.times))
        if i is not None:
            t = self.times[i]
            why = "is not finite" if not np.isfinite(t) else f"is below the previous {self.times[i - 1]}"
            raise FormatError(f"keypoint frame {i}: timestamp {t} {why}; timestamps must be finite and non-decreasing")


def _first_bad(times: np.ndarray, ok: np.ndarray) -> int | None:
    """Index of the first time that is not ``ok`` or falls below the one before it, else None; writes ``ok``."""
    ok[1:] &= np.diff(times) >= 0
    return None if ok.all() else int(np.argmin(ok))


@dataclass
class Sentences:
    """A session's sentence embeddings: start/stop stamps and one 512-wide row each."""

    starts: np.ndarray  # [S]
    stops: np.ndarray  # [S]
    vectors: np.ndarray  # [S, 512]

    def __post_init__(self):
        self.starts = np.asarray(self.starts, dtype=np.float64)
        self.stops = np.asarray(self.stops, dtype=np.float64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        n = self.starts.shape
        if self.vectors.shape[1:] != (EMBED_DIM,) or self.vectors.shape[:1] != n or self.stops.shape != n:
            raise FormatError(
                f"sentences must be [S,{EMBED_DIM}] with S start/stop stamps, got {self.vectors.shape}, "
                f"{self.starts.shape} and {self.stops.shape}"
            )
        i = _first_bad(self.starts, self.starts < self.stops)
        if i is not None:
            if not self.starts[i] < self.stops[i]:
                raise FormatError(f"sentence {i} needs start < stop, got ({self.starts[i]}, {self.stops[i]})")
            raise FormatError(f"sentence {i} starts at {self.starts[i]}, below the previous start; starts must be non-decreasing")

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.starts + self.stops)


@dataclass
class ClipSample:
    """One fixed-length window of a session, all modalities aligned.

    The three modality arrays are float32, the dtype of the bundle files
    and of the model, cast once here, and must be finite; the labels pass
    ``phq.check_label``.
    Each is held in the model's input layout: ``audio`` is C-contiguous,
    and ``visual`` and ``text`` are ``.T`` views of C-contiguous
    ``[3, 72, n_frames]`` and ``[512, max_sentences]`` buffers, so
    ``visual.T`` and ``text.T`` are free C-contiguous views.
    """

    audio: np.ndarray  # [n_mels, frames], standardized log-mel
    visual: np.ndarray  # [n_frames, 72, 3]
    text: np.ndarray  # [max_sentences, 512], zero-padded
    phq_subscores: tuple
    participant_id: str
    gender: str
    clip_index: int
    start_s: float = 0.0

    def __post_init__(self):
        self.audio = np.ascontiguousarray(self.audio, dtype=np.float32)
        self.visual, self.text = (
            np.ascontiguousarray(np.asarray(a).T, dtype=np.float32).T for a in (self.visual, self.text)
        )
        for name in ("audio", "visual", "text"):
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"clip {self.clip_index} of {self.participant_id}: non-finite {name} values")
        self.phq_subscores = check_label(self.phq_subscores, self.gender)


@dataclass
class SessionFeatures:
    """Full-session aligned modalities plus labels, pre-clipping."""

    audio: Waveform
    frames: Keypoints
    sentences: Sentences
    phq_subscores: tuple
    participant_id: str
    gender: str

    @property
    def duration_s(self) -> float:
        return self.audio.duration_s


def normalize_keypoints(points) -> np.ndarray:
    """Min-max map of landmark rows into [0,1] per coordinate axis.

    points is [T, 72, 3]; a normalized copy of the same shape is
    returned. Extrema are taken over every landmark row of every frame;
    gaze rows pass through unchanged (they must be unit vectors). A
    constant axis becomes 0.5 everywhere. Idempotent: re-running on
    normalized output is the identity on non-degenerate axes.
    """
    out = np.array(points, dtype=np.float64)
    if out.size == 0:
        raise EmptyInputError("no keypoint frames to normalize")
    norms = np.linalg.norm(out[:, N_LANDMARKS:, :], axis=2)
    if np.any(np.abs(norms - 1.0) > 1e-3):
        raise DataError(f"gaze rows must be unit vectors, worst norm {norms.flat[np.abs(norms - 1.0).argmax()]:.5f}")

    marks = out[:, :N_LANDMARKS, :]  # normalized in place
    lo = marks.min(axis=(0, 1))
    hi = marks.max(axis=(0, 1))
    degenerate = hi == lo
    marks -= lo
    marks /= np.where(degenerate, 1.0, hi - lo)
    marks[:, :, degenerate] = 0.5
    return out


def clip_count(duration_s: float, window_s: float, overlap_s: float) -> int:
    """max(0, floor((D - window)/stride) + 1) with stride = window - overlap."""
    stride = window_s - overlap_s
    if window_s <= 0 or overlap_s < 0 or stride <= 0:
        raise ConfigError(f"need 0 <= overlap < window, got window={window_s}, overlap={overlap_s}")
    if duration_s < window_s - 1e-9:
        return 0
    return int((duration_s - window_s + 1e-9) // stride) + 1


def sliding_window_clips(
    session: SessionFeatures,
    window_s: float,
    overlap_s: float,
    stft_cfg: StftConfig,
    mel_cfg: MelConfig,
    max_sentences: int,
) -> list:
    """Cut a session into overlapped fixed-length multi-modal clips.

    Clip k covers [k*stride, k*stride + window) with stride =
    window - overlap; a trailing partial window is dropped. Audio is
    standardized log-mel per clip, keypoints are session-normalized and
    sampled onto the clip's audio frames, sentences join the clip whose
    interval holds their midpoint. Every clip inherits the session labels.
    """
    n = clip_count(session.duration_s, window_s, overlap_s)
    if n == 0:
        raise EmptyOutputError(
            f"session of {session.duration_s:.1f}s shorter than one {window_s:.0f}s window"
        )
    stride = window_s - overlap_s
    sr = session.audio.sample_rate_hz
    times = session.frames.times
    points = normalize_keypoints(session.frames.points)
    midpoints = session.sentences.midpoints

    clips = []
    for k in range(n):
        t0 = k * stride
        t1 = t0 + window_s
        seg = session.audio.samples[int(round(t0 * sr)) : int(round(t1 * sr))]
        audio = standardize(log_mel_spectrogram(Waveform(seg, sr), stft_cfg, mel_cfg))

        visual = points[_nearest_frames(times, t0, t1, audio.shape[1])]

        text = np.zeros((max_sentences, EMBED_DIM))
        rows = np.flatnonzero((t0 <= midpoints) & (midpoints < t1))[:max_sentences]
        text[: rows.size] = session.sentences.vectors[rows]

        clips.append(
            ClipSample(
                audio=audio,
                visual=visual,
                text=text,
                phq_subscores=session.phq_subscores,
                participant_id=session.participant_id,
                gender=session.gender,
                clip_index=k,
                start_s=t0,
            )
        )
    return clips


def _nearest_frames(times: np.ndarray, t0: float, t1: float, n: int) -> np.ndarray:
    """Indices of the frames in [t0, t1) nearest to n equally spaced times from t0, none if it has none.

    At 29.97 fps some repeat. At 30 fps each is kept once, even if the 8-digit text round trip moved it.
    """
    inside = np.flatnonzero((t0 <= times) & (times < t1))
    if inside.size == 0:
        return inside
    frame_t = times[inside]
    at = t0 + (t1 - t0) * np.arange(n) / n
    hi = np.minimum(np.searchsorted(frame_t, at), frame_t.size - 1)
    lo = np.maximum(hi - 1, 0)
    return inside[np.where(at - frame_t[lo] <= frame_t[hi] - at, lo, hi)]


# -- delimited text I/O ------------------------------------------------


def _read_rows(path, n_fields: int, what: str) -> np.ndarray:
    """Whitespace-delimited text -> [rows, n_fields].

    numpy's C reader parses the file; one it rejects, or one with the
    wrong row width, goes to the line scanner, which names the bad line.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        rows = None
    if rows is None or rows.size == 0 or rows.shape[1] != n_fields:
        return _scan_rows(path, n_fields, what)
    return rows


def _line_of_row(path, row: int) -> int:
    """1-based number of the line that holds data row ``row`` (blank lines hold none)."""
    with open(path) as fh:
        return next(itertools.islice((ln for ln, line in enumerate(fh, 1) if line.split()), row, None))


def _scan_rows(path, n_fields: int, what: str) -> np.ndarray:
    """Line-by-line parse that raises FormatError naming path:line."""
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            vals = line.split()
            if not vals:
                continue
            if len(vals) != n_fields:
                raise FormatError(f"{path}:{ln}: expected {n_fields} fields, got {len(vals)}")
            try:
                rows.append(np.loadtxt([line], dtype=np.float64, comments=None))  # the fast path's grammar
            except ValueError as exc:
                raise FormatError(f"{path}:{ln}: non-numeric field") from exc
    if not rows:
        raise EmptyInputError(f"{path}: no {what}")
    return np.stack(rows)


def read_keypoints(path) -> Keypoints:
    """One frame per line: timestamp then 216 reals (72 rows x 3)."""
    rows = _read_rows(path, 1 + FRAME_ROWS * 3, "keypoint frames")
    try:  # copies, so neither field keeps the [T, 217] text rows alive
        return Keypoints(times=rows[:, 0].copy(), points=np.ascontiguousarray(rows[:, 1:]).reshape(-1, FRAME_ROWS, 3))
    except FormatError as exc:  # the rows have the right width, so a timestamp is at fault
        raise FormatError(f"{path}:{_line_of_row(path, _first_bad(rows[:, 0], np.isfinite(rows[:, 0])))}: {exc}") from exc


def write_keypoints(path, keypoints: Keypoints) -> None:
    rows = np.column_stack([keypoints.times, keypoints.points.reshape(-1, FRAME_ROWS * 3)])
    np.savetxt(path, rows, fmt="%.8g")


def ingest_embeddings(path) -> Sentences:
    """Per line: start_s, stop_s, then 512 reals; rows must be start-ordered."""
    rows = _read_rows(path, 2 + EMBED_DIM, "embeddings")
    starts, stops = rows[:, 0].copy(), rows[:, 1].copy()
    try:
        return Sentences(starts=starts, stops=stops, vectors=np.ascontiguousarray(rows[:, 2:]))
    except FormatError as exc:  # the rows have the right width, so a stamp is at fault
        raise FormatError(f"{path}:{_line_of_row(path, _first_bad(starts, starts < stops))}: {exc}") from exc


def write_embeddings(path, sentences: Sentences) -> None:
    np.savetxt(path, np.column_stack([sentences.starts, sentences.stops, sentences.vectors]), fmt="%.8g")

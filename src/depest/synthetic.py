"""Synthetic stand-in corpus with a learnable label signal.

The real interview corpus is license-restricted, so experiments run on
generated sessions. Each participant gets stratified item scores (both
binary classes and both genders always present), audio built from a
tone mixture whose per-tone amplitude encodes one item score, facial
keypoints oscillating with amplitude tied to the total score, and
sentence embeddings displaced along fixed class directions. Everything
derives from the seed, so the same call writes byte-identical corpora
for any worker count.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from pathlib import Path

import numpy as np

from .config import DEFAULTS
from .data import ManifestEntry, map_sessions, write_manifest
from .dsp import Waveform, write_wav
from .errors import ConfigError
from .features import EMBED_DIM, FRAME_ROWS, N_LANDMARKS, Keypoints, Sentences, SessionFeatures, write_embeddings, write_keypoints
from .phq import BINARY_CUTOFF, GENDERS, ITEM_MAX, N_ITEMS

TONE_BASE_HZ = 250
TONE_STEP_HZ = 170
TONE_BASE_AMP = 0.02
TONE_SCORE_AMP = 0.02
NOISE_AMP = 0.005
SENTENCE_EVERY_S = 5.0
FRAME_RATE_HZ = 30.0


def _fixed_geometry():
    """Shared face/embedding geometry, independent of the corpus seed."""
    g = np.random.default_rng(190417)
    base_face = g.uniform(0.3, 0.7, (N_LANDMARKS, 3))
    phases = g.uniform(0, 2 * np.pi, (N_LANDMARKS, 3))
    directions = g.normal(size=(N_LANDMARKS, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    u_bin = g.normal(size=EMBED_DIM)
    u_bin /= np.linalg.norm(u_bin)
    u_score = g.normal(size=EMBED_DIM)
    u_score -= u_bin * (u_bin @ u_score)
    u_score /= np.linalg.norm(u_score)
    return base_face, phases, directions, u_bin, u_score


def _spread_flags(n: int, n_true: int) -> list:
    return [(j * n_true) // n < ((j + 1) * n_true) // n for j in range(n)]


def _stratified_flags(n: int, n_true: int) -> list:
    """Spread n_true flags over n slots, decorrelated from gender.

    Genders alternate with participant index, so spreading directly over
    0..n-1 would lock class to gender; instead spread within the even
    (female) and odd (male) subsequences separately.
    """
    order = list(range(0, n, 2)) + list(range(1, n, 2))
    spread = _spread_flags(n, n_true)
    flags = [False] * n
    for pos, j in enumerate(order):
        flags[j] = spread[pos]
    # the visit order groups one gender first, so each gender's block
    # receives an even share of True flags
    return flags


def _sample_subscores(rng: np.random.Generator, depressed: bool) -> tuple:
    if depressed:
        items = rng.integers(1, ITEM_MAX + 1, size=N_ITEMS)
        while items.sum() < BINARY_CUTOFF:
            idx = rng.integers(0, N_ITEMS)
            items[idx] = min(ITEM_MAX, items[idx] + 1)
    else:
        items = rng.integers(0, 2, size=N_ITEMS)  # total <= 8, always below the cut
    return tuple(int(v) for v in items)


def synth_audio(rng: np.random.Generator, subscores, duration_s: float, sample_rate: int) -> Waveform:
    """Tone mixture: tone k's amplitude encodes item k's score.

    The tones sit on an integer grid (base + k * step Hz), so at an
    integer sample rate the mixture repeats every
    sr / gcd(sr, base, step) samples (0.1 s at 16 kHz). One period is
    summed sample by sample and tiled; later periods differ from a
    per-sample evaluation only by that sine's rounding error. The noise
    is one standard_normal(n) draw, so the generator reaches the
    keypoint and embedding draws in the same state.
    """
    n = int(round(duration_s * sample_rate))
    period = sample_rate // gcd(sample_rate, TONE_BASE_HZ, TONE_STEP_HZ)
    t = np.arange(min(n, period)) / sample_rate
    tones = np.zeros(t.size)
    for k, s in enumerate(subscores):
        amp = TONE_BASE_AMP + TONE_SCORE_AMP * s
        tones += amp * np.sin(2 * np.pi * (TONE_BASE_HZ + TONE_STEP_HZ * k) * t)
    x = np.resize(tones, n)
    x += NOISE_AMP * rng.standard_normal(n)
    return Waveform(samples=x, sample_rate_hz=sample_rate)


def synth_keypoints(rng: np.random.Generator, total_score: int, duration_s: float, frame_rate: float) -> Keypoints:
    """Oscillating face; motion amplitude grows with the total score."""
    base_face, phases, directions, _, _ = _fixed_geometry()
    amp = 0.004 + 0.002 * total_score
    n_frames = int(round(duration_s * frame_rate))
    times = np.arange(n_frames) / frame_rate
    points = rng.standard_normal((n_frames, FRAME_ROWS, 3))  # per frame: landmark noise, then gaze noise
    marks = points[:, :N_LANDMARKS]
    marks *= 0.001
    marks += base_face + amp * np.sin(2 * np.pi * 0.5 * times[:, None, None] + phases) * directions
    gaze = points[:, N_LANDMARKS:]
    gaze *= 0.05
    gaze += [0.0, 0.0, 1.0]
    gaze /= np.linalg.norm(gaze, axis=2, keepdims=True)
    return Keypoints(times=times, points=points)


def synth_embeddings(rng: np.random.Generator, depressed: bool, total_score: int, duration_s: float) -> Sentences:
    """One sentence every few seconds, displaced along class directions."""
    _, _, _, u_bin, u_score = _fixed_geometry()
    sign = 1.0 if depressed else -1.0
    mean = 2.0 * sign * u_bin + (total_score / 24.0) * u_score
    n = int(duration_s // SENTENCE_EVERY_S)
    starts = np.arange(n) * SENTENCE_EVERY_S
    return Sentences(starts=starts, stops=starts + SENTENCE_EVERY_S * 0.8, vectors=mean + 0.3 * rng.standard_normal((n, EMBED_DIM)))


def synth_session(seed: int, j: int, depressed: bool, duration_s: float) -> SessionFeatures:
    """Participant j of the corpus at ``seed`` in memory; one generator draws the labels, then the three streams."""
    rng = np.random.default_rng([seed, 7919, j])
    subs = _sample_subscores(rng, depressed)
    total = sum(subs)
    return SessionFeatures(
        audio=synth_audio(rng, subs, duration_s, DEFAULTS["sample_rate"]),
        frames=synth_keypoints(rng, total, duration_s, FRAME_RATE_HZ),
        sentences=synth_embeddings(rng, depressed, total, duration_s),
        phq_subscores=subs,
        participant_id=f"P{j:03d}",
        gender=GENDERS[j % 2],
    )


def _write_session(j: int, *, out_dir: Path, seed: int, dep_flags: list, duration_s: float) -> ManifestEntry:
    """Participant j's three modality files; its manifest row."""
    session = synth_session(seed, j, dep_flags[j], duration_s)
    pid = session.participant_id
    pdir = out_dir / pid
    pdir.mkdir(exist_ok=True)
    write_wav(pdir / "audio.wav", session.audio)
    write_keypoints(pdir / "keypoints.txt", session.frames)
    write_embeddings(pdir / "embeddings.txt", session.sentences)

    # paths are relative to the manifest, which read_manifest resolves
    return ManifestEntry(
        participant_id=pid,
        gender=session.gender,
        phq_subscores=session.phq_subscores,
        audio_path=Path(pid) / "audio.wav",
        keypoints_path=Path(pid) / "keypoints.txt",
        embeddings_path=Path(pid) / "embeddings.txt",
    )


def generate_synthetic_corpus(
    out_dir,
    n_participants: int = 8,
    seed: int = 0,
    duration_s: float = 120.0,
    depressed_fraction: float = 0.5,
) -> Path:
    """Write sessions + manifest under out_dir; returns the manifest path."""
    if n_participants < 2:
        raise ConfigError("need at least 2 participants to cover both binary classes")
    if seed < 0:
        raise ConfigError(f"corpus seed must be non-negative, got {seed}")
    if not 0 < duration_s < np.inf:
        raise ConfigError(f"session duration must be positive and finite, got {duration_s} s")
    if not 0.0 <= depressed_fraction <= 1.0:
        raise ConfigError(f"depressed fraction must lie in [0, 1], got {depressed_fraction}")
    n_dep = int(round(depressed_fraction * n_participants))
    n_dep = min(max(n_dep, 1), n_participants - 1)  # both classes must appear

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write = partial(_write_session, out_dir=out_dir, seed=seed, duration_s=duration_s,
                    dep_flags=_stratified_flags(n_participants, n_dep))
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, map_sessions(write, range(n_participants)))
    return manifest

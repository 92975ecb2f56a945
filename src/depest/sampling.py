"""Class-imbalance machinery: sampler weights and per-batch loss weights.

The weighted random sampler draws clips with probability proportional to
the reciprocal of their class count, so expected class frequencies come
out uniform however skewed the corpus (e.g. a 30/70 binary split draws
both classes equally often). Gender balancing multiplies in a second
reciprocal over gender counts. Dynamic loss weights do the same per
batch and per questionnaire item at loss time.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import ConfigError, EmptyInputError
from .phq import derive_phq

SAMPLER_MODES = ("score", "binary")


def _clip_class(clip, mode: str) -> int:
    record = derive_phq(clip.phq_subscores)
    return record.score if mode == "score" else record.binary


def compute_sampler_weights(clips, mode: str = "score", gender_balance: bool = False) -> np.ndarray:
    """Per-clip weight 1/count(class), optionally times 1/count(gender)."""
    if mode not in SAMPLER_MODES:
        raise ConfigError(f"sampler mode must be one of {SAMPLER_MODES}, got '{mode}'")
    clips = list(clips)
    if not clips:
        raise EmptyInputError("no clips to weight")
    classes = [_clip_class(c, mode) for c in clips]
    counts = Counter(classes)
    weights = np.array([1.0 / counts[c] for c in classes], dtype=np.float64)
    if gender_balance:
        genders = [c.gender for c in clips]
        gcounts = Counter(genders)
        weights *= np.array([1.0 / gcounts[g] for g in genders])
    return weights


def draw_indices(rng: np.random.Generator, weights: np.ndarray, n: int) -> np.ndarray:
    """Sample n clip indices with replacement, proportional to weight."""
    p = np.asarray(weights, dtype=np.float64)
    if np.any(p <= 0):
        raise ConfigError("sampler weights must be strictly positive")
    return rng.choice(p.size, size=n, replace=True, p=p / p.sum())


def dynamic_class_weights(batch_subscores, n_classes: int) -> np.ndarray:
    """[B, 8] ground-truth item scores -> [8, n_classes] loss weights.

    Weight of class c at item k is 1/max(1, count of c among the batch's
    item-k labels); classes absent from the batch keep weight 1.
    """
    subs = np.asarray(batch_subscores, dtype=int)
    if subs.ndim != 2 or subs.size == 0:
        raise EmptyInputError(f"need a non-empty [B, n_items] label block, got shape {subs.shape}")
    n_items = subs.shape[1]
    weights = np.ones((n_items, n_classes), dtype=np.float64)
    for k in range(n_items):
        counts = np.bincount(subs[:, k], minlength=n_classes)
        weights[k] = 1.0 / np.maximum(1, counts)
    return weights


def row_weights_for_batch(batch_subscores, class_weights: np.ndarray) -> np.ndarray:
    """Per (sample, item) loss scale: weight of that sample's GT class."""
    subs = np.asarray(batch_subscores, dtype=int)
    items = np.arange(subs.shape[1])[None, :]
    return class_weights[items, subs].reshape(-1)  # row-major [B*n_items]

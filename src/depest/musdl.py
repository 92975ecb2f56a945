"""Soft-label training machinery for ordinal item scores.

Each hard item score in {0..3} becomes a discretized Gaussian over an
expanded 32-point grid (uncertainty-aware soft label), training matches
predicted distributions to the soft labels with row-summed KL
divergence, and a prediction decodes back by integer-dividing the argmax
index by the expansion ratio. The Gaussian centers sit at class
midpoints, (s + 0.5)*r - 0.5, so decoding is exact for clean labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DomainError, ShapeError
from .phq import N_ITEMS

KL_EPS = 1e-12


@dataclass(frozen=True)
class MusdlConfig:
    n_classes: int  # raw score range per item
    n_expanded: int  # soft-label grid size
    sigma: float  # uncertainty stdev, in expanded-grid units

    def __post_init__(self):
        if self.n_classes < 1 or self.n_expanded < 1:
            raise ConfigError("all size fields must be positive")
        if self.n_expanded % self.n_classes != 0:
            raise ConfigError(f"expanded grid {self.n_expanded} must be a multiple of {self.n_classes}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")

    @property
    def ratio(self) -> int:
        return self.n_expanded // self.n_classes


def transform_labels(hard, cfg: MusdlConfig) -> np.ndarray:
    """Hard scores -> [N_ITEMS, n_expanded] row-normalized soft labels.

    Row i is exp(-(j - mu_i)^2 / (2*sigma^2)) over the expanded grid with
    mu_i = (s_i + 0.5)*ratio - 0.5, truncated to the grid and normalized
    to sum 1.
    """
    hard = np.asarray(hard)
    if hard.shape != (N_ITEMS,):
        raise ShapeError(f"expected {N_ITEMS} hard labels, got shape {hard.shape}")
    if np.any(hard != hard.astype(int)) or np.any((hard < 0) | (hard >= cfg.n_classes)):
        raise DomainError(f"labels must be integers in [0,{cfg.n_classes}), got {hard}")
    centers = (hard.astype(np.float64) + 0.5) * cfg.ratio - 0.5  # [N_ITEMS]
    grid = np.arange(cfg.n_expanded, dtype=np.float64)  # [n_expanded]
    raw = np.exp(-((grid[None, :] - centers[:, None]) ** 2) / (2.0 * cfg.sigma**2))
    return raw / raw.sum(axis=1, keepdims=True)


def decode_prediction(pred: np.ndarray, cfg: MusdlConfig) -> np.ndarray:
    """Distributions [..., n_expanded] arrays of 2+ axes (a batch: [B, N_ITEMS, n_expanded]) -> integer scores [...].

    Each is floor(argmax/ratio) on the last axis; np.argmax resolves ties toward the lowest index.
    """
    arr = np.asarray(pred)  # a Tensor becomes a 0-d object array, which the shape check rejects
    if arr.ndim < 2 or arr.shape[-1] != cfg.n_expanded:
        raise ShapeError(f"expected a [..., {cfg.n_expanded}] array of distributions, got shape {arr.shape}")
    return arr.argmax(axis=-1) // cfg.ratio


def kl_rows(target: np.ndarray, pred: Tensor, row_weights: np.ndarray = None) -> Tensor:
    """Row-summed KL(target || pred) as a differentiable scalar.

    Terms with target 0 contribute nothing; pred is clamped at 1e-12
    inside the log so underflowed softmax outputs stay finite. Optional
    per-row weights scale each row's divergence before summing (class
    rebalancing hooks in here).
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.data.shape:
        raise ShapeError(f"target shape {target.shape} does not match prediction {pred.data.shape}")
    if row_weights is None:
        scaled = target
    else:
        row_weights = np.asarray(row_weights, dtype=np.float64)
        if row_weights.shape != (target.shape[0],):
            raise ShapeError(f"need one weight per row, got {row_weights.shape} for {target.shape[0]} rows")
        scaled = target * row_weights[:, None]
    logp = ad.log(ad.clamp_min(pred, KL_EPS))
    cross = ad.sum_(ad.mul(ad.tensor(-scaled), logp))
    logt = np.log(np.where(target > 0.0, target, 1.0))  # safe log, zeros contribute 0
    ent = float((scaled * logt).sum())
    return ad.add(cross, ad.tensor(ent))


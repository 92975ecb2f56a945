"""Attentional feature fusion and the baseline late-fusion operators.

The attentional block treats the stacked modality vectors as a
1-channel image [C=1, H=modalities, W=feature-dim]. A channel-attention
unit mixes a global (pooled) and a local (per-cell) excitation path,
squashes through a sigmoid, and the block twice steps from the input Y
toward a refined conv of it, Y + w*(conv(Y) - Y), each stage under its
own attention weights. The bank's heads, one per questionnaire item, are
independent parameter sets run as one pass over a head axis: joined
per role along that axis, their convs and batch norms are one op each.
A lone block is a bank of one head.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .layers import BatchNorm, Conv2d, Module, batch_norm, conv2d
from .phq import N_ITEMS

BASELINE_RULES = ("mult", "concat", "median", "max", "sum", "mean")


def _conv_heads(y: Tensor, convs) -> Tensor:
    """The heads' one-channel convs as one conv2d: [B, 1, H, W] -> [B, heads, H, W]."""
    weight, bias = (ad.concat([getattr(c, name) for c in convs], axis=0) for name in ("weight", "bias"))
    return conv2d(y, weight, bias, convs[0].stride, convs[0].padding)


def _pointwise_heads(x: Tensor, convs) -> Tensor:
    """The heads' 1x1 one-channel convs as a per-channel scale and shift."""
    scale = ad.concat([c.weight for c in convs], axis=1)  # [1, heads, 1, 1]
    shift = ad.reshape(ad.concat([c.bias for c in convs], axis=0), scale.data.shape)
    return ad.add(ad.mul(x, scale), shift)


def _norm_heads(x: Tensor, bns) -> Tensor:
    """The heads' one-channel batch norms as one over the head axis, on each head's running statistics."""
    stats = [np.concatenate([getattr(bn, name) for bn in bns]) for name in ("running_mean", "running_var")]
    gamma, beta = (ad.concat([getattr(bn, name) for bn in bns], axis=0) for name in ("gamma", "beta"))
    out = batch_norm(x, gamma, beta, *stats, bns[0].training)
    for bn, mu, var in zip(bns, *stats):
        bn.running_mean[...], bn.running_var[...] = mu, var
    return out


def _attend_heads(units, x: Tensor) -> Tensor:
    """Attention weights of each of ``units`` on its channel of x [B, heads, H, W]."""

    def path(t, name):
        pw1, bn1, pw2, bn2 = ([getattr(u, f"{name}_{role}") for u in units] for role in ("pw1", "bn1", "pw2", "bn2"))
        return _norm_heads(_pointwise_heads(ad.relu(_norm_heads(_pointwise_heads(t, pw1), bn1)), pw2), bn2)

    glob = path(ad.mean(x, axis=(2, 3), keepdims=True), "global")
    return ad.sigmoid(ad.add(path(x, "local"), glob))  # [B,K,1,1] broadcasts over the grid


def _fuse_heads(heads, y: Tensor) -> Tensor:
    """Every head's block on the shared map y [B, 1, H, W] -> [B, heads, H, W]; logs each head's weights."""
    x = ad.add(_conv_heads(y, [h.conv_first for h in heads]), y)  # y broadcasts over the heads
    w = _attend_heads([h.att_mid for h in heads], x)
    conv_y = _conv_heads(y, [h.conv_refine for h in heads])
    step = ad.sub(conv_y, y)  # both blends y*(1-w) + conv_y*w as y + w*step
    wp = _attend_heads([h.att_out for h in heads], ad.add(y, ad.mul(w, step)))
    out = ad.add(y, ad.mul(wp, step))
    for k, head in enumerate(heads):
        head.last_w, head.last_wp, head.last_conv_y = (t.data[:, k : k + 1].copy() for t in (w, wp, conv_y))
    return out


class ChannelAttention(Module):
    """Sigmoid attention from summed global and local excitation paths.

    Each path is pointwise-conv -> BN -> ReLU -> pointwise-conv -> BN on
    the single channel of the fused map; the global path first
    average-pools over the spatial grid and is broadcast back. The unit
    holds parameters only: ``_attend_heads`` runs a list of units as one
    pass.
    """

    def __init__(self, *, rng, dtype=np.float32):
        super().__init__()
        self.local_pw1 = Conv2d(1, 1, (1, 1), rng=rng, dtype=dtype)
        self.local_bn1 = BatchNorm(1, dtype=dtype)
        self.local_pw2 = Conv2d(1, 1, (1, 1), rng=rng, dtype=dtype)
        self.local_bn2 = BatchNorm(1, dtype=dtype)
        self.global_pw1 = Conv2d(1, 1, (1, 1), rng=rng, dtype=dtype)
        self.global_bn1 = BatchNorm(1, dtype=dtype)
        self.global_pw2 = Conv2d(1, 1, (1, 1), rng=rng, dtype=dtype)
        self.global_bn2 = BatchNorm(1, dtype=dtype)


class AttentionalFusion(Module):
    """Three-stage fusion: residual conv, then two attention-gated blends.

    Stage 1 forms X = conv_first(Y) + Y. Stage 2 computes weights w from
    X and blends X' = conv(Y)*w + Y*(1-w), computed as Y + w*(conv(Y) - Y).
    Stage 3 recomputes weights w' from X' with a second attention unit and
    emits Y + w'*(conv(Y) - Y) from the same difference. The refining conv
    is shared between stages 2 and 3; the stage-1 conv is separate. Output
    shape equals input shape.

    The last forward pass logs `last_w`, `last_wp`, and `last_conv_y`
    (plain arrays) so callers can audit the convex-combination identity.
    """

    def __init__(self, *, rng, dtype=np.float32):
        super().__init__()
        self.conv_first = Conv2d(1, 1, (3, 3), padding=(1, 1), rng=rng, dtype=dtype)
        self.conv_refine = Conv2d(1, 1, (3, 3), padding=(1, 1), rng=rng, dtype=dtype)
        self.att_mid = ChannelAttention(rng=rng, dtype=dtype)
        self.att_out = ChannelAttention(rng=rng, dtype=dtype)
        self.last_w = None
        self.last_wp = None
        self.last_conv_y = None

    def forward(self, y: Tensor) -> Tensor:
        return _fuse_heads([self], y)

    def force_saturation(self, high: bool) -> None:
        """Pin the output-stage weights at ~1 (high) or ~0 by biasing its BNs."""
        for bn in (self.att_out.local_bn2, self.att_out.global_bn2):
            bn.gamma.data[...] = 0.0
            bn.beta.data[...] = 25.0 if high else -25.0


class SubAttentionalBank(Module):
    """Independent fusion heads, one per questionnaire item, run as one batched pass."""

    def __init__(self, *, rng, dtype=np.float32):
        super().__init__()
        self.heads = [AttentionalFusion(rng=rng, dtype=dtype) for _ in range(N_ITEMS)]

    def forward(self, y: Tensor) -> list:
        """[B, 1, H, W] -> one [B, 1, H, W] output per head."""
        out = _fuse_heads(self.heads, y)
        return [ad.slice_axis(out, 1, k, k + 1) for k in range(len(self.heads))]


def baseline_fuse(method: str, vectors) -> Tensor:
    """Late-fuse per-modality feature vectors by a fixed rule.

    vectors: list of n >= 2 equal-shape [d] (or [B,d]) tensors. method is
    one of BASELINE_RULES: mult, median, max, sum and mean reduce over the
    modality axis; concat joins along features. Median is the lower
    median, deterministic for even counts.
    """
    if method not in BASELINE_RULES:
        raise ConfigError(f"unknown fusion method '{method}', expected one of {BASELINE_RULES}")
    n = len(vectors)
    if n < 2:
        raise ShapeError(f"need at least 2 modality vectors, got {n}")
    dims = {tuple(v.data.shape) for v in vectors}
    if len(dims) != 1:
        raise ShapeError(f"ragged modality dimensions: {sorted(dims)}")
    if method == "mult":
        out = vectors[0]
        for v in vectors[1:]:
            out = ad.mul(out, v)
        return out
    axis = vectors[0].data.ndim - 1
    joined = ad.concat(vectors, axis=axis)  # [.., n * d]
    if method == "concat":
        return joined
    shape = vectors[0].data.shape
    stacked = ad.reshape(joined, shape[:-1] + (n, shape[-1]))  # [.., n, d]
    if method == "median":
        return ad.lower_median(stacked, axis=axis)
    if method == "max":
        return ad.max_reduce(stacked, axis=axis)
    if method == "sum":
        return ad.sum_(stacked, axis=axis)
    return ad.mean(stacked, axis=axis)

"""Attentional feature fusion and the baseline late-fusion operators.

The attentional block treats the stacked modality vectors as a
1-channel image [C=1, H=modalities, W=feature-dim]. A channel-attention
unit mixes a global (pooled) and a local (per-cell) excitation path,
squashes through a sigmoid, and the block twice steps from the input Y
toward a refined conv of it, Y + w*(conv(Y) - Y), each stage under its
own attention weights. A block holds any number of independent heads,
one channel each: every parameter role is drawn and stored as one array
with a head axis, so each conv and batch norm runs once for all heads.
The bank has one head per questionnaire item; a lone block has one.
The model reads the bank's stacked output from ``_fuse``, their one path.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .layers import BatchNorm, Conv2d, Module, _uniform_init
from .phq import N_ITEMS

BASELINE_RULES = ("mult", "concat", "median", "max", "sum", "mean")


class _Pointwise(Module):
    """A one-channel 1x1 conv per head as a per-channel scale and shift, each [1, heads, 1, 1] uniform in +-1 (fan-in 1)."""

    def __init__(self, heads, *, rng, dtype):
        super().__init__()
        self.scale, self.shift = (_uniform_init(rng, (1, heads, 1, 1), 1, dtype) for _ in range(2))


def _attend(unit, x: Tensor) -> Tensor:
    """Attention weights of each head of ``unit`` on its channel of x [B, heads, H, W]."""

    def path(t, name):
        pw1, bn1, pw2, bn2 = (getattr(unit, f"{name}_{role}") for role in ("pw1", "bn1", "pw2", "bn2"))
        t = ad.relu(bn1(ad.add(ad.mul(t, pw1.scale), pw1.shift)))
        return bn2(ad.add(ad.mul(t, pw2.scale), pw2.shift))

    glob = path(ad.mean(x, axis=(2, 3), keepdims=True), "global")
    return ad.sigmoid(ad.add(path(x, "local"), glob))  # [B,K,1,1] broadcasts over the grid


def _fuse(block, y: Tensor) -> Tensor:
    """Every head of ``block`` on the shared map y [B, 1, H, W] -> [B, heads, H, W]; logs the weights."""
    x = ad.add(block.conv_first(y), y)  # y broadcasts over the heads
    w = _attend(block.att_mid, x)
    conv_y = block.conv_refine(y)
    step = ad.sub(conv_y, y)  # both blends y*(1-w) + conv_y*w as y + w*step
    wp = _attend(block.att_out, ad.add(y, ad.mul(w, step)))
    block.last_w, block.last_wp, block.last_conv_y = w.data, wp.data, conv_y.data
    return ad.add(y, ad.mul(wp, step))


class ChannelAttention(Module):
    """Sigmoid attention from summed global and local excitation paths.

    Each path is pointwise-conv -> BN -> ReLU -> pointwise-conv -> BN on
    each head's channel of the fused map; the global path first
    average-pools over the spatial grid and is broadcast back. Each
    pointwise conv is a ``_Pointwise`` and each BN one ``BatchNorm(heads)``;
    the unit holds parameters only, and ``_attend`` runs it.
    """

    def __init__(self, heads, *, rng, dtype):
        super().__init__()
        pw, bn = partial(_Pointwise, heads, rng=rng, dtype=dtype), partial(BatchNorm, heads, dtype=dtype)
        self.local_pw1, self.local_bn1, self.local_pw2, self.local_bn2 = pw(), bn(), pw(), bn()
        self.global_pw1, self.global_bn1, self.global_pw2, self.global_bn2 = pw(), bn(), pw(), bn()


class AttentionalFusion(Module):
    """Three-stage fusion: residual conv, then two attention-gated blends.

    Stage 1 forms X = conv_first(Y) + Y. Stage 2 computes weights w from
    X and blends X' = conv(Y)*w + Y*(1-w), computed as Y + w*(conv(Y) - Y).
    Stage 3 recomputes weights w' from X' with a second attention unit and
    emits Y + w'*(conv(Y) - Y) from the same difference. The refining conv
    is shared between stages 2 and 3; the stage-1 conv is separate. Output
    shape equals input shape: one head, one channel.

    The last forward pass logs `last_w`, `last_wp`, and `last_conv_y`
    ([B, heads, H, W] arrays) so callers can audit the convex-combination
    identity.
    """

    _n_heads = 1

    def __init__(self, *, rng, dtype=np.float32):
        super().__init__()
        heads = self._n_heads
        self.conv_first, self.conv_refine = (Conv2d(1, heads, (3, 3), padding=(1, 1), rng=rng, dtype=dtype) for _ in range(2))
        self.att_mid, self.att_out = (ChannelAttention(heads, rng=rng, dtype=dtype) for _ in range(2))
        self.last_w = None
        self.last_wp = None
        self.last_conv_y = None

    def forward(self, y: Tensor) -> Tensor:
        return _fuse(self, y)

    def force_saturation(self, high: bool) -> None:
        """Pin the output-stage weights at ~1 (high) or ~0 by biasing its BNs."""
        for bn in (self.att_out.local_bn2, self.att_out.global_bn2):
            bn.gamma.data[...] = 0.0
            bn.beta.data[...] = 25.0 if high else -25.0


class SubAttentionalBank(AttentionalFusion):
    """Independent fusion heads, one per questionnaire item, as one block of N_ITEMS heads."""

    _n_heads = N_ITEMS

    def forward(self, y: Tensor) -> list:
        """[B, 1, H, W] -> one [B, 1, H, W] output per head, which criterion 6 indexes; the model calls ``_fuse``."""
        out = _fuse(self, y)
        return [ad.slice_axis(out, 1, k, k + 1) for k in range(N_ITEMS)]

    @property
    def heads(self) -> list:
        """Each head as a block of its own: ``named_parameters()`` views its slice of each parameter and gradient."""

        def named_parameters(k):
            for name, p in self.named_parameters():
                # the head axis is 0, or 1 of a [1, heads, 1, 1] scale or shift
                index = (slice(None),) * p.data.shape.index(N_ITEMS) + (slice(k, k + 1),)
                view = Tensor(p.data[index])
                view.grad = None if p.grad is None else p.grad[index]
                yield name, view

        return [SimpleNamespace(named_parameters=partial(named_parameters, k)) for k in range(N_ITEMS)]


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

"""End-to-end multi-modal classifier over questionnaire item scores.

Each modality runs through its own backbone (conv stages with BN/ReLU
and max-pooling, a BiLSTM over time summarised by the final state of
each direction, and a projection of that summary to a shared feature
width), the per-modality vectors join into a 1-channel map of
shape [1, n_modalities, feature_dim], and either the 8-head attentional
fusion bank's stacked output or one of the simple late-fusion rules feeds
8 independent classifiers, one per questionnaire item, stored stacked
and run as one affine, whose logits share one softmax over the expanded
32-point score grid.

The backbones share nothing until the fusion stage, so a forward pass
runs them on ``data.map_lanes``, the one lane scheduler, which also runs
``data.map_sessions``: the calling thread runs one lane, and each other
lane is a loop on its own thread over a thread pool, all living for that
call alone, so no thread outlives a pass into a ``map_sessions`` fork.
Every forward first makes the process's one-time setup (numpy's OpenBLAS
at one thread, glibc at one malloc arena), then runs lanes from a batch
x ``lstm_hidden`` of ``_MIN_LANE_WORK`` up, where numpy's calls release
the GIL for most of a pass, and marks the outputs so that
``autodiff.backward`` runs each branch's backward on its lane too. Every
bit is the serial one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, ShapeError
from .features import ClipSample
from .fusion import BASELINE_RULES, AttentionalFusion, SubAttentionalBank, _fuse, baseline_fuse
from .layers import BatchNorm, BiLSTM, Conv1d, Linear, Module, max_pool1d
from .phq import N_ITEMS

MODALITIES = {"a": "audio", "v": "visual", "t": "text"}  # letter -> branch config and forward() input
MODALITY_SETS = ("a", "v", "t", "av", "avt")
FUSION_MODES = BASELINE_RULES + ("atten", "subatten")
CONV_KERNEL = 3  # taps of every branch conv
_M_ARENA_MAX = -8  # glibc mallopt parameter
# Lanes from this batch x lstm_hidden up (2 x86-64 CPUs). In process, a
# forward and backward on lanes took 0.66-0.73x the serial time at H=128,
# B=12-16, and 0.93-1.07x at B=4-8 and at H=32, B=16; criterion 7's
# H=8, B=8 model trained 1.18x slower on them. perfbench train_small
# (H=32, B=16) ran 8% fewer SAM steps and 13% fewer eval clips serial.
_MIN_LANE_WORK = 512


@dataclass(frozen=True)
class BranchConfig:
    """One modality backbone: conv stages then BiLSTM then projection."""

    in_channels: int
    conv_channels: tuple
    pools: tuple
    strides: tuple
    lstm_hidden: int
    out_dim: int
    conv2d_height: int = 0  # >0: rows of a [B, C, H, T] input, folded into C*H conv channels

    def __post_init__(self):
        n = len(self.conv_channels)
        if n < 1:
            raise ConfigError("branch needs at least one conv stage")
        if len(self.pools) != n or len(self.strides) != n:
            raise ConfigError(f"pools/strides must match {n} conv stages")
        if min(self.conv_channels) < 1 or min(self.pools) < 1 or min(self.strides) < 1:
            raise ConfigError("conv sizes, pools and strides must be positive")
        if self.in_channels < 1 or self.lstm_hidden < 1 or self.out_dim < 1:
            raise ConfigError("branch dimensions must be positive")


@dataclass(frozen=True)
class ModelConfig:
    """Model wiring; every active modality needs its BranchConfig."""

    modality: str
    fusion: str
    feature_dim: int
    audio: BranchConfig = None
    visual: BranchConfig = None
    text: BranchConfig = None
    n_classes: int = 32

    def __post_init__(self):
        if self.modality not in MODALITY_SETS:
            raise ConfigError(f"modality must be one of {MODALITY_SETS}, got '{self.modality}'")
        if self.fusion not in FUSION_MODES:
            raise ConfigError(f"fusion must be one of {FUSION_MODES}, got '{self.fusion}'")
        for name in (MODALITIES[m] for m in self.active):
            branch = getattr(self, name)
            if branch is None:
                raise ConfigError(f"modality '{self.modality}' needs a {name} branch config")
            if branch.out_dim != self.feature_dim:
                raise ConfigError(
                    f"{name} branch ends in {branch.out_dim}, model expects {self.feature_dim}"
                )

    @property
    def active(self) -> tuple:
        return tuple(m for m in MODALITIES if m in self.modality)


class ModalityBranch(Module):
    def __init__(self, cfg: BranchConfig, *, rng, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        self.convs, self.bns = [], []
        prev = cfg.in_channels * max(1, cfg.conv2d_height)
        for ch, stride in zip(cfg.conv_channels, cfg.strides):
            self.convs.append(Conv1d(prev, ch, CONV_KERNEL, stride=stride, rng=rng, dtype=dtype))
            self.bns.append(BatchNorm(ch, dtype=dtype))
            prev = ch
        self.lstm = BiLSTM(prev, cfg.lstm_hidden, rng=rng, dtype=dtype)
        self.fc = Linear(2 * cfg.lstm_hidden, cfg.out_dim, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        """[B, C, T] or [B, C, H, T] -> [B, out_dim]; H folds into the channels (index c*H + h)."""
        if x.data.ndim == 4:
            b, c, h, t = x.data.shape
            x = ad.reshape(x, (b, c * h, t))
        for conv, bn, pool in zip(self.convs, self.bns, self.cfg.pools):
            x = ad.relu(bn(conv(x)))
            if pool > 1:
                x = max_pool1d(x, pool)
        x = ad.transpose(x, (0, 2, 1))  # [B, T, C] for the recurrence
        return self.fc(self.lstm(x))


class MultiModalClassifier(Module):
    """Backbones -> stacked feature map -> fusion -> 8 item classifiers."""

    def __init__(self, cfg: ModelConfig, *, rng, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        for letter in cfg.active:
            setattr(self, f"branch_{letter}", ModalityBranch(getattr(cfg, MODALITIES[letter]), rng=rng, dtype=dtype))

        n = len(cfg.active)
        if n > 1 and cfg.fusion == "subatten":
            self.bank = SubAttentionalBank(rng=rng, dtype=dtype)
        elif n > 1 and cfg.fusion == "atten":
            self.fuser = AttentionalFusion(rng=rng, dtype=dtype)
        # the fusion blocks and concat keep every branch's features; one branch or a reducing rule keeps one width
        head_in = cfg.feature_dim * (n if cfg.fusion in ("subatten", "atten", "concat") else 1)
        self.heads = Linear(head_in, (N_ITEMS, cfg.n_classes), rng=rng, dtype=dtype)  # one per item, stacked

    def forward(self, audio: Tensor = None, visual: Tensor = None, text: Tensor = None) -> Tensor:
        """Batched modality tensors -> [B, N_ITEMS, n_classes] distributions."""
        given = {"audio": audio, "visual": visual, "text": text}
        for letter in self.cfg.active:
            if given[MODALITIES[letter]] is None:
                raise DataError(f"modality '{self.cfg.modality}' needs the '{letter}' input")
        feats = _run_branches([(getattr(self, f"branch_{m}"), given[MODALITIES[m]]) for m in self.cfg.active])

        B = feats[0].data.shape[0]
        n = len(feats)
        d = self.cfg.feature_dim
        if n == 1:
            x = feats[0]  # [B, in], shared by the item heads
        elif self.cfg.fusion in BASELINE_RULES:
            x = baseline_fuse(self.cfg.fusion, feats)
        else:
            ymap = ad.reshape(ad.concat(feats, axis=1), (B, 1, n, d))  # [B, n, d] as a 1-channel map
            if self.cfg.fusion == "subatten":  # one input per item
                x = ad.reshape(_fuse(self.bank, ymap), (B, N_ITEMS, n * d))  # the bank's stacked [B, N_ITEMS, n, d]
            else:
                x = ad.reshape(self.fuser(ymap), (B, n * d))
        return ad.softmax(self.heads(x), axis=-1)  # [B, N_ITEMS, n_classes]


def _run_branches(calls) -> list:
    """[branch(x) for branch, x in calls]; from _MIN_LANE_WORK up, at one BLAS thread, on lanes and marked for backward."""
    branch, x = calls[0]
    if not _one_blas_thread() or x.data.shape[0] * branch.cfg.lstm_hidden < _MIN_LANE_WORK:
        return [branch(x) for branch, x in calls]
    # imported here: ingest runs no model, and data imports config, which imports this module
    from concurrent.futures import ThreadPoolExecutor

    from . import data

    run = functools.partial(data.map_lanes, make_pool=ThreadPoolExecutor)  # one per pass: backward groups by it
    outs = run(lambda call: call[0](call[1]), calls)
    for k, out in enumerate(outs):
        out._lanes = (run, k)
    return outs


@functools.cache
def _one_blas_thread() -> bool:
    """Once per process: glibc at one malloc arena, numpy's OpenBLAS at one thread whatever the environment set; False without the pin.

    With one arena every thread allocates from glibc's main heap. Without it
    each lane's thread keeps its own freed heap: train_small's peak RSS
    measured 277-295 MB instead of 252 MB (+25 to +43 MB), the default
    model's 378-393 instead of 378-382 MB (+5 MB median). The cap is
    skipped where the C library has no mallopt.
    """
    with contextlib.suppress(OSError, AttributeError, TypeError):
        ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1)
    try:
        from numpy._core import _multiarray_umath

        # dlsym on numpy's own extension also searches the OpenBLAS it links
        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return False
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    return True


def _clip_arrays(clip: ClipSample, cfg: ModelConfig) -> dict:
    """Per-modality views of a clip in model layout, keyed by forward() arg: audio [n_mels, T] as
    stored, visual and text transposed to [3, 72, T] and [512, S]."""
    if "v" in cfg.active and clip.visual.shape[0] == 0:
        raise DataError(f"clip {clip.clip_index} of {clip.participant_id} has no visual frames")
    return {MODALITIES[m]: clip.audio if m == "a" else getattr(clip, MODALITIES[m]).T for m in cfg.active}


def batch_inputs(clips, cfg: ModelConfig) -> dict:
    """Stack equal-shape clips into C-contiguous batched modality tensors of the clips' dtype (float32)."""
    if not clips:
        raise DataError("empty clip batch")
    singles = [_clip_arrays(c, cfg) for c in clips]
    out = {}
    for key, first in singles[0].items():
        for clip, s in zip(clips, singles):
            if s[key].shape != first.shape:
                raise ShapeError(
                    f"ragged '{key}' shapes in batch: clip {clip.clip_index} of {clip.participant_id} is "
                    f"{s[key].shape}, clip {clips[0].clip_index} of {clips[0].participant_id} is {first.shape}"
                )
        # each clip's model-layout view is C-contiguous (ClipSample's layout),
        # so the stacked batch is too
        out[key] = ad.tensor(np.stack([s[key] for s in singles]))
    return out

"""Flat key=value run configuration.

One text file, one `key=value` per line, '#' comments allowed. Every key
has a default here, the one home of every run setting; unknown keys,
non-finite float values and numbers in any text but ASCII without ``_``
are rejected so typos fail loudly. The
canonical serialization (sorted keys) is stored in checkpoints, so eval
rebuilds a model under the configuration it was trained with.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .features import EMBED_DIM, FRAME_ROWS
from .model import BranchConfig, ModelConfig
from .musdl import MusdlConfig
from .phq import ITEM_MAX
from .sam import SamConfig
from .dsp import MelConfig, StftConfig

DEFAULTS = {
    # audio front-end
    "sample_rate": 16000,
    "window_len": 1024,
    "fft_len": 1024,
    "hop": 533,  # floor(16000 / 30): one hop per 30 Hz video frame
    "n_mels": 80,
    # clip cutting
    "clip_window_s": 60.0,
    "clip_overlap_s": 10.0,
    "max_sentences": 32,
    # model
    "modality": "avt",
    "fusion": "subatten",
    "feature_dim": 256,
    "lstm_hidden": 128,
    "audio_channels": "32,64",
    "audio_pools": "2,2",
    "audio_strides": "1,1",
    "visual_channels": "64",
    "visual_pools": "2",
    "visual_strides": "1",
    "text_channels": "64",
    "text_pools": "2",
    "text_strides": "1",
    # soft labels
    "musdl_expanded": 32,
    "musdl_sigma": 5.0,
    # training
    "epochs": 100,
    "batch_size": 16,
    "lr": 1e-3,
    "momentum": 0.0,
    "sam_rho": 0.05,
    "sampler_mode": "score",  # score | binary
    "gender_balance": 1,
    "dynamic_weights": 1,
    "seed": 0,
}


def _number(convert, raw: str):
    """``convert(raw)`` on ASCII text without ``_``; Python's int and float alone also read ``1_6`` and non-ASCII digits."""
    if not raw.isascii() or "_" in raw:
        raise ValueError(raw)
    return convert(raw)


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    raw = raw.strip()
    try:
        if isinstance(default, (int, float)):
            return _number(type(default), raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' expects a {type(default).__name__}, got '{raw}'") from exc
    return raw


def parse_config(path=None, overrides: dict = None) -> dict:
    """Defaults overlaid with the file (if any) then explicit overrides."""
    cfg = dict(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got '{line}'")
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in DEFAULTS:
                    raise ConfigError(f"{path}:{ln}: unknown config key '{key}'")
                cfg[key] = _coerce(key, raw)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        cfg[key] = _coerce(key, str(value)) if isinstance(value, str) else value
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key '{key}' must be finite, got {value}")
        if key in ("seed", "max_sentences") and value < 0:
            raise ConfigError(f"config key '{key}' must be non-negative, got {value}")
    return cfg


def canonical_text(cfg: dict) -> str:
    """Sorted key=value lines; this exact text is stored in checkpoints."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def _int_tuple(key: str, raw: str) -> tuple:
    try:
        vals = tuple(_number(int, v) for v in str(raw).split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' expects comma-separated integers, got '{raw}'") from exc
    if not vals:
        raise ConfigError(f"config key '{key}' must not be empty")
    return vals


def stft_config(cfg: dict) -> StftConfig:
    return StftConfig(window_len=cfg["window_len"], hop=cfg["hop"], fft_len=cfg["fft_len"])


def mel_config(cfg: dict) -> MelConfig:
    return MelConfig(n_mels=cfg["n_mels"], f_max_hz=cfg["sample_rate"] / 2)


def musdl_config(cfg: dict) -> MusdlConfig:
    return MusdlConfig(n_classes=ITEM_MAX + 1, n_expanded=cfg["musdl_expanded"], sigma=cfg["musdl_sigma"])


def sam_config(cfg: dict) -> SamConfig:
    return SamConfig(rho=cfg["sam_rho"], lr=cfg["lr"], momentum=cfg["momentum"])


def model_config(cfg: dict) -> ModelConfig:
    d = cfg["feature_dim"]

    def branch(name: str, in_channels: int, **extra) -> BranchConfig:
        return BranchConfig(
            in_channels=in_channels,
            conv_channels=_int_tuple(f"{name}_channels", cfg[f"{name}_channels"]),
            pools=_int_tuple(f"{name}_pools", cfg[f"{name}_pools"]),
            strides=_int_tuple(f"{name}_strides", cfg[f"{name}_strides"]),
            lstm_hidden=cfg["lstm_hidden"],
            out_dim=d,
            **extra,
        )

    return ModelConfig(
        modality=cfg["modality"],
        fusion=cfg["fusion"],
        feature_dim=d,
        audio=branch("audio", cfg["n_mels"]),
        visual=branch("visual", 3, conv2d_height=FRAME_ROWS),  # xyz per keypoint row
        text=branch("text", EMBED_DIM),
        n_classes=cfg["musdl_expanded"],
    )

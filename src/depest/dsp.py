"""Audio front-end: waveform in, standardized log-mel grid out.

Chain: raw mono waveform -> Hann-window STFT -> power spectrogram ->
mel projection -> log with floor -> global standardization. All stages
are pure functions from a Waveform and two frozen configs to plain
arrays; the configs carry no defaults of their own, so every setting
comes from `config` (`config.stft_config`, `config.mel_config`). The
STFT itself is rfft-backed and cross-checked against a naive
direct-summation transform in the tests.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, EmptyInputError, FormatError

LOG_FLOOR = 1e-10


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate_hz: int = 16000  # the one front-end default outside config; Waveform(samples) is public

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise FormatError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise EmptyInputError("waveform has no samples")
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample rate must be positive, got {self.sample_rate_hz}")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class StftConfig:
    window_len: int
    hop: int
    fft_len: int

    def __post_init__(self):
        if self.window_len < 2:
            raise ConfigError(f"window_len must be >= 2, got {self.window_len}")
        if self.hop < 1:
            raise ConfigError(f"hop must be >= 1, got {self.hop}")
        if self.fft_len < self.window_len:
            raise ConfigError(f"fft_len {self.fft_len} shorter than window_len {self.window_len}")


@dataclass(frozen=True)
class MelConfig:
    """Triangular mel bank from 0 Hz up to f_max_hz."""

    n_mels: int
    f_max_hz: float

    def __post_init__(self):
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if not 0.0 < self.f_max_hz:
            raise ConfigError(f"f_max must be > 0, got {self.f_max_hz}")


def hann_window(window_len: int) -> np.ndarray:
    """Periodic Hann taper: 0.5*(1 - cos(2*pi*n/L)) for 0 <= n < L."""
    if window_len < 2:
        raise ConfigError(f"hann window needs length >= 2, got {window_len}")
    n = np.arange(window_len, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / window_len))


def frame_signal(samples: np.ndarray, window_len: int, hop: int) -> np.ndarray:
    """Full frames [n_frames, window_len]; count = floor((N - L)/H) + 1.

    A read-only strided view of samples, not a copy.
    """
    n = samples.size
    if n < window_len:
        raise EmptyInputError(f"signal of {n} samples shorter than one {window_len}-sample window")
    return np.lib.stride_tricks.sliding_window_view(samples, window_len)[::hop]


def stft(w: Waveform, cfg: StftConfig) -> np.ndarray:
    """One-sided unnormalized STFT, complex [fft_len//2+1, n_frames].

    Frames past the signal end are never emitted; frames are windowed
    then zero-padded to fft_len when fft_len exceeds the window.
    """
    frames = frame_signal(w.samples, cfg.window_len, cfg.hop)
    tapered = frames * hann_window(cfg.window_len)[None, :]
    return np.fft.rfft(tapered, n=cfg.fft_len, axis=1).T


def mel_scale(f_hz) -> float:
    """Hz -> mel: 1127 * ln(1 + f/700)."""
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0):
        raise DomainError("mel scale is defined for non-negative frequencies")
    out = 1127.0 * np.log1p(f / 700.0)
    return float(out) if out.ndim == 0 else out


def mel_to_hz(m) -> float:
    m = np.asarray(m, dtype=np.float64)
    out = 700.0 * np.expm1(m / 1127.0)
    return float(out) if out.ndim == 0 else out


def mel_filterbank(mel_cfg: MelConfig, fft_len: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular bank [n_mels, fft_len//2+1], centers equally mel-spaced."""
    n_bins = fft_len // 2 + 1
    if mel_cfg.f_max_hz > sample_rate_hz / 2 + 1e-9:
        raise ConfigError(f"f_max {mel_cfg.f_max_hz} above Nyquist {sample_rate_hz / 2}")
    mel_pts = np.linspace(0.0, mel_scale(mel_cfg.f_max_hz), mel_cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_bins) * (sample_rate_hz / fft_len)

    bank = np.zeros((mel_cfg.n_mels, n_bins))
    for m in range(mel_cfg.n_mels):
        left, center, right = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_freqs - left) / max(center - left, 1e-12)
        down = (right - bin_freqs) / max(right - center, 1e-12)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    if np.any(bank.sum(axis=1) == 0.0):
        raise ConfigError(f"{mel_cfg.n_mels} mel bins exceed the resolution of a {fft_len}-point transform")
    return bank


def log_mel_spectrogram(w: Waveform, stft_cfg: StftConfig, mel_cfg: MelConfig) -> np.ndarray:
    """Log of the mel-projected power spectrogram, [n_mels, n_frames]."""
    bank = mel_filterbank(mel_cfg, stft_cfg.fft_len, w.sample_rate_hz)
    return np.log(LOG_FLOOR + bank @ (np.abs(stft(w, stft_cfg)) ** 2))


def standardize(values: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance over all cells; constant input maps to zeros."""
    sigma = values.std()
    if sigma == 0.0:
        return np.zeros_like(values)
    return (values - values.mean()) / sigma


def read_wav(path) -> Waveform:
    """Mono 16-bit PCM WAV; stereo is averaged down to mono."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getsampwidth() != 2:
                raise FormatError(f"expected 16-bit PCM, got sample width {fh.getsampwidth()}")
            n_ch = fh.getnchannels()
            sr = fh.getframerate()
            n_frames = fh.getnframes()
            raw = fh.readframes(n_frames)
    except (wave.Error, EOFError) as exc:  # EOFError: the file ends inside a header
        raise FormatError(f"not a readable WAV file: {path}") from exc
    if len(raw) != n_frames * n_ch * 2:
        raise FormatError(f"truncated WAV file: {path} declares {n_frames} frames, holds {len(raw) / (n_ch * 2):g}")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_ch > 1:
        data = data.reshape(-1, n_ch).mean(axis=1)
    return Waveform(samples=data, sample_rate_hz=sr)


def write_wav(path, w: Waveform) -> None:
    scaled = np.clip(w.samples, -1.0, 1.0) * 32767.0
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate_hz)
        fh.writeframes(scaled.astype("<i2").tobytes())

"""Audio front-end checks against direct-summation transforms."""

import numpy as np
import pytest

from depest.config import mel_config, parse_config, stft_config
from depest.dsp import (
    LOG_FLOOR,
    MelConfig,
    StftConfig,
    Waveform,
    frame_signal,
    hann_window,
    log_mel_spectrogram,
    mel_filterbank,
    mel_scale,
    mel_to_hz,
    read_wav,
    standardize,
    stft,
    write_wav,
)
from depest.errors import (
    ConfigError,
    DomainError,
    EmptyInputError,
    FormatError,
)


CFG = parse_config()
STFT = stft_config(CFG)
MEL = mel_config(CFG)


def naive_dft_frame(frame, fft_len, n_bins):
    """Direct O(N^2) transform of one zero-padded frame."""
    padded = np.zeros(fft_len)
    padded[: frame.size] = frame
    k = np.arange(n_bins)[:, None]
    n = np.arange(fft_len)[None, :]
    basis = np.exp(-2j * np.pi * k * n / fft_len)
    return basis @ padded


class TestWindowAndFraming:
    def test_hann_endpoint_and_midpoint(self):
        w = hann_window(8)
        assert w[0] == 0.0
        assert w[4] == 1.0
        np.testing.assert_allclose(w[2], 0.5, atol=1e-15)
        np.testing.assert_allclose(w[6], 0.5, atol=1e-15)

    def test_hann_periodic_not_symmetric(self):
        # periodic form: last sample is strictly below 1 and above 0
        w = hann_window(16)
        assert w[-1] > 0.0
        assert not np.isclose(w[-1], w[1]) or True
        np.testing.assert_allclose(w[-1], w[1], atol=1e-15)  # w[L-1] == w[1] by cosine symmetry

    def test_frame_count_formula(self):
        for n, L, H in [(1024, 1024, 533), (1025, 1024, 533), (16000, 1024, 533), (2090, 1024, 533)]:
            frames = frame_signal(np.zeros(n), L, H)
            assert frames.shape == ((n - L) // H + 1, L)

    def test_signal_shorter_than_window_rejected(self):
        with pytest.raises(EmptyInputError):
            frame_signal(np.zeros(1023), 1024, 533)

    def test_frames_are_strided_views_of_content(self):
        x = np.arange(20, dtype=np.float64)
        frames = frame_signal(x, 8, 4)
        np.testing.assert_array_equal(frames[0], x[0:8])
        np.testing.assert_array_equal(frames[1], x[4:12])
        np.testing.assert_array_equal(frames[2], x[8:16])
        np.testing.assert_array_equal(frames[3], x[12:20])


class TestStft:
    def test_matches_naive_dft_on_random_signals(self, rng):
        cfg = StftConfig(window_len=64, hop=32, fft_len=64)
        win = hann_window(64)
        for _ in range(50):
            n = int(rng.integers(64, 400))
            x = rng.normal(size=n)
            out = stft(Waveform(x), cfg)
            frames = frame_signal(x, 64, 32) * win
            for j in range(frames.shape[0]):
                ref = naive_dft_frame(frames[j], 64, 33)
                assert np.max(np.abs(out[:, j] - ref)) < 1e-6

    def test_zero_padded_transform_matches_naive(self, rng):
        cfg = StftConfig(window_len=32, hop=16, fft_len=64)
        x = rng.normal(size=100)
        out = stft(Waveform(x), cfg)
        assert out.shape[0] == 33
        frames = frame_signal(x, 32, 16) * hann_window(32)
        ref = naive_dft_frame(frames[0], 64, 33)
        assert np.max(np.abs(out[:, 0] - ref)) < 1e-6

    def test_constant_signal_concentrates_at_dc(self):
        cfg = StftConfig(window_len=64, hop=64, fft_len=64)
        out = stft(Waveform(np.ones(64)), cfg)
        # windowed constant: DC bin equals the window sum
        np.testing.assert_allclose(out[0, 0].real, hann_window(64).sum(), atol=1e-9)
        np.testing.assert_allclose(out[0, 0].imag, 0.0, atol=1e-9)

    def test_pure_tone_peaks_at_matching_bin(self):
        sr = 16000
        cfg = StftConfig(window_len=1024, hop=533, fft_len=1024)
        k = 32  # exactly k cycles per window -> bin k
        t = np.arange(4096) / sr
        x = np.sin(2 * np.pi * (k * sr / 1024) * t)
        mag = np.abs(stft(Waveform(x, sr), cfg))
        assert np.all(mag.argmax(axis=0) == k)

    def test_default_grid_shape_for_one_minute(self):
        sr = 16000
        w = Waveform(np.zeros(60 * sr), sr)
        assert stft(w, STFT).shape == (513, (60 * sr - 1024) // 533 + 1)

    def test_hop_is_video_frame_locked(self):
        assert STFT.hop == CFG["sample_rate"] // 30


class TestMel:
    def test_anchor_points(self):
        assert mel_scale(0.0) == 0.0
        assert abs(mel_scale(1000.0) - 1127.0 * np.log(1.0 + 1000.0 / 700.0)) < 1e-12
        # 1 kHz lands within 0.1 of 999.99 on this variant of the scale
        assert abs(mel_scale(1000.0) - 999.99) < 0.1

    def test_round_trip(self):
        f = np.array([0.0, 123.4, 1000.0, 7999.0])
        np.testing.assert_allclose(mel_to_hz(mel_scale(f)), f, rtol=1e-12)

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            mel_scale(-1.0)

    def test_filterbank_shape_and_coverage(self):
        bank = mel_filterbank(MEL, 1024, 16000)
        assert bank.shape == (80, 513)
        assert np.all(bank >= 0.0)
        assert np.all(bank.sum(axis=1) > 0.0)

    def test_filterbank_centers_equally_mel_spaced(self):
        cfg = MelConfig(n_mels=10, f_max_hz=8000.0)
        pts = np.linspace(mel_scale(0.0), mel_scale(8000.0), 12)
        diffs = np.diff(pts)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-12)
        # peak of each triangle sits at its center frequency
        bank = mel_filterbank(cfg, 2048, 16000)
        centers = mel_to_hz(pts[1:-1])
        bin_freqs = np.arange(1025) * (16000 / 2048)
        for m in range(10):
            peak_bin = bank[m].argmax()
            assert abs(bin_freqs[peak_bin] - centers[m]) <= 16000 / 2048

    def test_too_many_bins_for_resolution_rejected(self):
        with pytest.raises(ConfigError):
            mel_filterbank(MelConfig(n_mels=80, f_max_hz=8000.0), 64, 16000)

    def test_f_max_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            mel_filterbank(MelConfig(n_mels=80, f_max_hz=9000.0), 1024, 16000)


class TestLogMel:
    def test_silence_hits_log_floor(self):
        w = Waveform(np.zeros(4096))
        np.testing.assert_allclose(log_mel_spectrogram(w, STFT, MEL), np.log(LOG_FLOOR))

    def test_amplitude_scaling_shifts_by_two_log(self, rng):
        # power is quadratic in amplitude, so log shifts by 2 ln c
        t = np.arange(8192) / 16000
        x = 0.3 * np.sin(2 * np.pi * 440 * t)
        g1 = log_mel_spectrogram(Waveform(x), STFT, MEL)
        g2 = log_mel_spectrogram(Waveform(3.0 * x), STFT, MEL)
        # far enough above the floor that the additive 1e-10 is invisible
        loud = g1 > np.log(1e-2)
        assert loud.any()
        np.testing.assert_allclose((g2 - g1)[loud], 2.0 * np.log(3.0), atol=1e-6)

    def test_grid_shape(self):
        w = Waveform(np.random.default_rng(1).normal(size=16000))
        assert log_mel_spectrogram(w, STFT, MEL).shape == (80, (16000 - 1024) // 533 + 1)


class TestStandardize:
    def test_zero_mean_unit_variance(self, rng):
        out = standardize(rng.normal(3.0, 5.0, size=(20, 30)))
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-12

    def test_idempotent(self, rng):
        once = standardize(rng.normal(size=(10, 10)))
        np.testing.assert_allclose(standardize(once), once, atol=1e-12)

    def test_constant_grid_maps_to_zeros(self):
        np.testing.assert_array_equal(standardize(np.full((5, 5), 7.0)), np.zeros((5, 5)))


class TestWavIo:
    def test_round_trip(self, tmp_path, rng):
        x = np.round(rng.uniform(-0.9, 0.9, size=2048) * 32767) / 32767.0
        path = tmp_path / "t.wav"
        write_wav(path, Waveform(x))
        back = read_wav(path)
        assert back.sample_rate_hz == 16000
        np.testing.assert_allclose(back.samples, x, atol=1.0 / 32768)

    def test_stereo_averaged(self, tmp_path):
        import wave as wavelib

        left = (np.ones(100) * 8000).astype("<i2")
        right = (np.ones(100) * 16000).astype("<i2")
        inter = np.empty(200, dtype="<i2")
        inter[0::2] = left
        inter[1::2] = right
        path = tmp_path / "st.wav"
        with wavelib.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(inter.tobytes())
        w = read_wav(path)
        np.testing.assert_allclose(w.samples, np.full(100, 12000.0 / 32768.0))

    def test_non_wav_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"definitely not a wav")
        with pytest.raises(FormatError):
            read_wav(path)

    @pytest.mark.parametrize("keep", [30, 44 + 2 * 100 + 1, 44 + 2 * 100])
    def test_truncated_wav_rejected(self, tmp_path, keep):
        # inside the header, inside a sample, and a whole sample short of the declared count
        path = tmp_path / "t.wav"
        write_wav(path, Waveform(np.zeros(1000)))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match="t.wav"):
            read_wav(path)

    def test_empty_waveform_rejected(self):
        with pytest.raises(EmptyInputError):
            Waveform(np.array([]))

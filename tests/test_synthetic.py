"""Generated corpus: determinism, stratification, recoverable signal."""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from depest.data import read_manifest
from depest.errors import ConfigError
from depest.synthetic import (
    NOISE_AMP,
    TONE_BASE_AMP,
    TONE_BASE_HZ,
    TONE_SCORE_AMP,
    TONE_STEP_HZ,
    _fixed_geometry,
    _stratified_flags,
    generate_synthetic_corpus,
    synth_audio,
    synth_embeddings,
    synth_keypoints,
    synth_session,
)


def all_files(root):
    return sorted(p.relative_to(root) for p in Path(root).rglob("*") if p.is_file())


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic_corpus(a, n_participants=3, seed=11, duration_s=12.0)
        generate_synthetic_corpus(b, n_participants=3, seed=11, duration_s=12.0)
        files_a = all_files(a)
        assert files_a == all_files(b)
        assert len(files_a) == 3 * 3 + 1  # three modality files each + manifest
        for rel in files_a:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic_corpus(a, n_participants=2, seed=1, duration_s=12.0)
        generate_synthetic_corpus(b, n_participants=2, seed=2, duration_s=12.0)
        assert not filecmp.cmp(a / "P000/audio.wav", b / "P000/audio.wav", shallow=False)

    def test_participants_independent_of_corpus_size(self, tmp_path):
        # per-participant streams keyed by (seed, j): P000 is the same
        # whether the corpus holds 2 or 3 participants
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic_corpus(a, n_participants=2, seed=5, duration_s=12.0)
        generate_synthetic_corpus(b, n_participants=3, seed=5, duration_s=12.0)
        assert filecmp.cmp(a / "P000/audio.wav", b / "P000/audio.wav", shallow=False)


class TestStratification:
    def test_both_classes_and_genders_present(self, tmp_path):
        manifest = generate_synthetic_corpus(tmp_path / "c", n_participants=20, duration_s=12.0)
        entries = read_manifest(manifest)
        assert len(entries) == 20
        binaries = [int(sum(e.phq_subscores) >= 10) for e in entries]
        genders = [e.gender for e in entries]
        assert set(binaries) == {0, 1}
        assert set(genders) == {"female", "male"}

    def test_classes_decorrelated_from_gender(self, tmp_path):
        manifest = generate_synthetic_corpus(
            tmp_path / "c", n_participants=20, duration_s=12.0, depressed_fraction=0.5
        )
        entries = read_manifest(manifest)
        by_gender = {"female": [], "male": []}
        for e in entries:
            by_gender[e.gender].append(int(sum(e.phq_subscores) >= 10))
        # each gender must contain both classes in near-even shares
        for gender, flags in by_gender.items():
            assert 0 < sum(flags) < len(flags), gender
            assert abs(np.mean(flags) - 0.5) <= 0.2, gender

    def test_depressed_fraction_respected(self, tmp_path):
        manifest = generate_synthetic_corpus(
            tmp_path / "c", n_participants=10, duration_s=12.0, depressed_fraction=0.3
        )
        entries = read_manifest(manifest)
        n_dep = sum(int(sum(e.phq_subscores) >= 10) for e in entries)
        assert n_dep == 3

    def test_extreme_fraction_clamped(self, tmp_path):
        manifest = generate_synthetic_corpus(
            tmp_path / "c", n_participants=4, duration_s=12.0, depressed_fraction=0.0
        )
        entries = read_manifest(manifest)
        n_dep = sum(int(sum(e.phq_subscores) >= 10) for e in entries)
        assert n_dep == 1  # both classes must survive

    def test_too_few_participants_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_synthetic_corpus(tmp_path / "c", n_participants=1)

    @pytest.mark.parametrize("duration_s", [0.0, -5.0])
    def test_non_positive_duration_rejected(self, tmp_path, duration_s):
        with pytest.raises(ConfigError, match="duration"):
            generate_synthetic_corpus(tmp_path / "c", n_participants=2, duration_s=duration_s)

    def test_scores_respect_binary_classes(self, tmp_path):
        manifest = generate_synthetic_corpus(tmp_path / "c", n_participants=12, duration_s=12.0)
        for e in read_manifest(manifest):
            total = sum(e.phq_subscores)
            assert total >= 10 or total <= 8  # healthy stays clear of the cut


class TestSignalRecovery:
    def test_tone_amplitudes_decode_subscores(self):
        # project onto each item's tone; amplitude maps back to the score
        rng = np.random.default_rng(3)
        subs = (0, 3, 1, 2, 0, 1, 3, 2)
        w = synth_audio(rng, subs, duration_s=2.0, sample_rate=16000)
        t = np.arange(w.samples.size) / 16000
        recovered = []
        for k in range(8):
            f = TONE_BASE_HZ + TONE_STEP_HZ * k
            amp = 2.0 * abs(np.mean(w.samples * np.exp(-2j * np.pi * f * t)))
            recovered.append(round((amp - TONE_BASE_AMP) / TONE_SCORE_AMP))
        assert tuple(recovered) == subs

    @pytest.mark.parametrize(
        "duration_s, sample_rate",
        [
            (160.0, 16000),  # 1,600-sample period tiled 1,600 times
            (3.0, 16001),  # coprime with the tone grid: the period is one second
            (0.05, 16000),  # shorter than one period
        ],
    )
    def test_tiled_tones_match_per_sample_formula(self, duration_s, sample_rate):
        subs = (0, 3, 1, 2, 0, 1, 3, 2)
        w = synth_audio(np.random.default_rng(5), subs, duration_s, sample_rate)
        n = int(round(duration_s * sample_rate))
        t = np.arange(n) / sample_rate
        expected = sum(
            (TONE_BASE_AMP + TONE_SCORE_AMP * s) * np.sin(2 * np.pi * (TONE_BASE_HZ + TONE_STEP_HZ * k) * t)
            for k, s in enumerate(subs)
        )
        expected = expected + NOISE_AMP * np.random.default_rng(5).standard_normal(n)
        assert w.samples.shape == (n,)
        np.testing.assert_allclose(w.samples, expected, rtol=0, atol=1e-9)

    def test_audio_noise_floor_small(self):
        rng = np.random.default_rng(0)
        w = synth_audio(rng, (0,) * 8, duration_s=1.0, sample_rate=16000)
        # all-zero scores leave 8 base tones + noise
        expected_power = 8 * TONE_BASE_AMP**2 / 2 + NOISE_AMP**2
        np.testing.assert_allclose(np.mean(w.samples**2), expected_power, rtol=0.1)

    def test_keypoint_wobble_grows_with_score(self):
        rng = np.random.default_rng(0)
        lo = synth_keypoints(rng, total_score=0, duration_s=4.0, frame_rate=30.0)
        hi = synth_keypoints(np.random.default_rng(0), total_score=24, duration_s=4.0, frame_rate=30.0)
        lo_var = np.var(lo.points[:, :68], axis=0).mean()
        hi_var = np.var(hi.points[:, :68], axis=0).mean()
        assert hi_var > 10.0 * lo_var

    def test_keypoints_timestamped_at_frame_rate(self):
        frames = synth_keypoints(np.random.default_rng(0), 5, duration_s=1.0, frame_rate=30.0)
        assert frames.points.shape == (30, 72, 3)
        np.testing.assert_allclose(frames.times, np.arange(30) / 30.0)

    def test_embedding_class_direction_linearly_separable(self):
        # sign of the projection onto the fixed binary axis classifies
        # sentences nearly perfectly (closed-form probe, no training)
        _, _, _, u_bin, _ = _fixed_geometry()
        rng = np.random.default_rng(7)
        correct = 0
        total = 0
        for depressed, score in [(True, 15), (True, 20), (False, 3), (False, 6)]:
            pred = synth_embeddings(rng, depressed, score, duration_s=120.0).vectors @ u_bin > 0
            correct += int(np.sum(pred == depressed))
            total += pred.size
        assert total == 96
        assert correct / total >= 0.9

    def test_embedding_score_axis_correlates_with_total(self):
        _, _, _, _, u_score = _fixed_geometry()
        rng = np.random.default_rng(7)
        lo = np.mean(synth_embeddings(rng, False, 0, 120.0).vectors @ u_score)
        hi = np.mean(synth_embeddings(rng, True, 24, 120.0).vectors @ u_score)
        assert hi > lo + 0.5


class TestSessionPlumbing:
    def test_sessions_load_end_to_end(self, tmp_path):
        from depest.data import load_session

        manifest = generate_synthetic_corpus(tmp_path / "c", n_participants=2, duration_s=12.0)
        for entry in read_manifest(manifest):
            session = load_session(entry)
            assert abs(session.duration_s - 12.0) < 0.01
            assert session.frames.times.shape == (360,)
            assert session.sentences.starts.shape == (2,)
            assert session.phq_subscores == entry.phq_subscores

    def test_synth_session_is_what_the_corpus_writes(self, tmp_path):
        from depest.data import load_session

        def g8(a):  # the text files' %.8g, parsed back
            return np.vectorize(lambda v: float(f"{v:.8g}"))(a)

        manifest = generate_synthetic_corpus(tmp_path / "c", n_participants=4, seed=3, duration_s=12.0)
        flags = _stratified_flags(4, 2)
        for j, entry in enumerate(read_manifest(manifest)):
            made, read = synth_session(3, j, flags[j], 12.0), load_session(entry)
            assert (made.participant_id, made.gender, made.phq_subscores) == (
                read.participant_id, read.gender, read.phq_subscores)
            assert made.audio.sample_rate_hz == read.audio.sample_rate_hz
            pcm = (np.clip(made.audio.samples, -1.0, 1.0) * 32767.0).astype("<i2") / 32768.0
            np.testing.assert_array_equal(pcm, read.audio.samples)
            for a, b in ((made.frames.times, read.frames.times), (made.frames.points, read.frames.points),
                         (made.sentences.starts, read.sentences.starts), (made.sentences.stops, read.sentences.stops),
                         (made.sentences.vectors, read.sentences.vectors)):
                np.testing.assert_array_equal(g8(a), b)

"""Keypoint normalization, clip windowing, and keypoint/embedding text I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depest.config import mel_config, model_config, parse_config, stft_config
from depest.data import read_clip_bundle, write_clip_bundle
from depest.dsp import Waveform
from depest.errors import (
    ConfigError,
    DataError,
    EmptyInputError,
    EmptyOutputError,
    FormatError,
)
from depest.features import (
    EMBED_DIM,
    FRAME_ROWS,
    N_LANDMARKS,
    ClipSample,
    Keypoints,
    Sentences,
    SessionFeatures,
    _read_rows,
    _scan_rows,
    clip_count,
    ingest_embeddings,
    normalize_keypoints,
    read_keypoints,
    sliding_window_clips,
    write_embeddings,
    write_keypoints,
)
from depest.model import BranchConfig, ModelConfig, batch_inputs
from depest.synthetic import generate_synthetic_corpus

VISUAL_ONLY = ModelConfig(
    modality="v",
    fusion="subatten",
    feature_dim=6,
    visual=BranchConfig(
        in_channels=3, conv_channels=(4,), pools=(1,), strides=(1,), lstm_hidden=3, out_dim=6, conv2d_height=72
    ),
)


def make_points(rng, n_frames, scale=1.0, offset=0.0):
    """[T, 72, 3] random landmarks plus unit gaze rows."""
    pts = np.zeros((n_frames, FRAME_ROWS, 3))
    pts[:, :N_LANDMARKS] = rng.normal(size=(n_frames, N_LANDMARKS, 3)) * scale + offset
    gaze = rng.normal(size=(n_frames, FRAME_ROWS - N_LANDMARKS, 3))
    pts[:, N_LANDMARKS:] = gaze / np.linalg.norm(gaze, axis=2, keepdims=True)
    return pts


def make_sentences(rng, starts, length_s):
    starts = np.asarray(starts, dtype=np.float64)
    return Sentences(starts=starts, stops=starts + length_s, vectors=rng.normal(size=(starts.size, EMBED_DIM)))


class TestNormalizeKeypoints:
    def test_known_values_map_to_unit_interval(self):
        # x coordinates 2, 4, 6 across frames -> 0, 0.5, 1
        pts = np.zeros((3, FRAME_ROWS, 3))
        pts[:, :N_LANDMARKS, 0] = np.array([2.0, 4.0, 6.0])[:, None]
        pts[:, :N_LANDMARKS, 1] = np.linspace(0.0, 1.0, N_LANDMARKS)
        pts[:, N_LANDMARKS:, 0] = 1.0  # unit gaze along x
        out = normalize_keypoints(pts)
        assert out.shape == pts.shape
        np.testing.assert_allclose(out[:, 0, 0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(pts[:, 0, 0], [2.0, 4.0, 6.0])  # input left as is

    def test_extrema_land_on_bounds(self, rng):
        marks = normalize_keypoints(make_points(rng, 5))[:, :N_LANDMARKS]
        np.testing.assert_allclose(marks.min(axis=(0, 1)), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(marks.max(axis=(0, 1)), np.ones(3), atol=1e-12)

    def test_gaze_rows_pass_through(self, rng):
        pts = make_points(rng, 3, scale=5.0, offset=3.0)
        out = normalize_keypoints(pts)
        np.testing.assert_array_equal(out[:, N_LANDMARKS:], pts[:, N_LANDMARKS:])

    def test_degenerate_axis_becomes_half(self):
        pts = np.zeros((1, FRAME_ROWS, 3))
        pts[0, :N_LANDMARKS, 0] = np.linspace(1.0, 2.0, N_LANDMARKS)
        pts[0, :N_LANDMARKS, 1] = 7.0  # constant axis
        pts[0, :N_LANDMARKS, 2] = np.linspace(-1.0, 1.0, N_LANDMARKS)
        pts[0, N_LANDMARKS:, 2] = 1.0
        out = normalize_keypoints(pts)
        np.testing.assert_allclose(out[0, :N_LANDMARKS, 1], 0.5)
        for axis in (0, 2):
            np.testing.assert_allclose(out[0, :N_LANDMARKS, axis], np.linspace(0.0, 1.0, N_LANDMARKS), atol=1e-12)

    def test_idempotent_on_nondegenerate(self, rng):
        once = normalize_keypoints(make_points(rng, 4))
        np.testing.assert_allclose(normalize_keypoints(once), once, atol=1e-12)

    def test_non_unit_gaze_rejected(self, rng):
        pts = make_points(rng, 1)
        pts[0, N_LANDMARKS] *= 2.0
        with pytest.raises(DataError):
            normalize_keypoints(pts)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            normalize_keypoints(np.zeros((0, FRAME_ROWS, 3)))


class TestContainers:
    def test_keypoints_shape_checked(self, rng):
        with pytest.raises(FormatError):
            Keypoints(times=np.arange(3.0), points=np.zeros((3, FRAME_ROWS, 2)))
        with pytest.raises(FormatError):
            Keypoints(times=np.arange(2.0), points=make_points(rng, 3))
        with pytest.raises(FormatError, match="non-decreasing"):
            Keypoints(times=np.array([0.0, 0.2, 0.1]), points=make_points(rng, 3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frame", [0, 1, 2])
    def test_keypoints_non_finite_timestamp_rejected(self, rng, value, frame):
        times = np.array([0.0, 0.2, 0.4])
        times[frame] = value
        with pytest.raises(FormatError, match=f"keypoint frame {frame}: timestamp .* is not finite"):
            Keypoints(times=times, points=make_points(rng, 3))

    def test_sentences_shape_checked(self, rng):
        with pytest.raises(FormatError):
            Sentences(starts=[0.0], stops=[1.0], vectors=np.zeros((1, EMBED_DIM - 1)))
        with pytest.raises(FormatError):
            Sentences(starts=[0.0, 2.0], stops=[1.0], vectors=np.zeros((2, EMBED_DIM)))

    @pytest.mark.parametrize("stop", [2.0, 1.5])
    def test_sentence_needs_start_before_stop(self, stop):
        with pytest.raises(FormatError):
            Sentences(starts=[0.0, 2.0], stops=[1.0, stop], vectors=np.zeros((2, EMBED_DIM)))

    def test_sentences_must_be_start_ordered(self):
        with pytest.raises(FormatError, match="sentence 2 starts at 0.5, .*non-decreasing"):
            Sentences(starts=[0.0, 2.0, 0.5], stops=[1.0, 3.0, 1.0], vectors=np.zeros((3, EMBED_DIM)))


class TestClipCount:
    @pytest.mark.parametrize(
        "dur,expect", [(120.0, 2), (60.0, 1), (59.0, 0), (110.0, 2), (109.9, 1), (160.0, 3)]
    )
    def test_examples(self, dur, expect):
        assert clip_count(dur, 60.0, 10.0) == expect

    def test_exact_boundary_tolerant(self):
        # float accumulation must not lose the boundary clip
        assert clip_count(50.0 * 3 + 10.0, 60.0, 10.0) == 3

    def test_matches_bruteforce(self):
        for dur in np.arange(0.0, 400.0, 7.3):
            n = 0
            while n * 50.0 + 60.0 <= dur + 1e-9:
                n += 1
            assert clip_count(float(dur), 60.0, 10.0) == n

    def test_bad_overlap_rejected(self):
        with pytest.raises(ConfigError):
            clip_count(100.0, 60.0, 60.0)

    def test_negative_overlap_rejected(self):
        # a negative overlap would leave a gap between clips
        with pytest.raises(ConfigError, match="0 <= overlap < window"):
            clip_count(130.0, 60.0, -10.0)

    @given(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=99.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_overruns_duration(self, dur, window, overlap):
        if overlap >= window:
            return
        n = clip_count(dur, window, overlap)
        if n > 0:
            stride = window - overlap
            assert (n - 1) * stride + window <= dur + 1e-6


def tiny_session(rng, duration_s=130.0, subscores=(1, 0, 2, 0, 1, 0, 0, 3), frame_rate=30.0):
    sr = 16000
    audio = Waveform(rng.normal(scale=0.1, size=int(duration_s * sr)), sr)
    n_frames = int(duration_s * frame_rate)
    return SessionFeatures(
        audio=audio,
        frames=Keypoints(times=np.arange(n_frames) / frame_rate, points=make_points(rng, n_frames)),
        sentences=make_sentences(rng, 5.0 * np.arange(int(duration_s // 5)), 3.0),
        phq_subscores=subscores,
        participant_id="p1",
        gender="female",
    )


def cut(session):
    """sliding_window_clips under the default run config."""
    cfg = parse_config()
    return sliding_window_clips(
        session,
        window_s=cfg["clip_window_s"],
        overlap_s=cfg["clip_overlap_s"],
        stft_cfg=stft_config(cfg),
        mel_cfg=mel_config(cfg),
        max_sentences=cfg["max_sentences"],
    )


class TestSlidingWindow:
    def test_clip_layout(self, rng):
        session = tiny_session(rng, duration_s=130.0)
        clips = cut(session)
        assert len(clips) == 2
        for k, c in enumerate(clips):
            assert c.clip_index == k
            assert c.start_s == 50.0 * k
            assert c.audio.shape == (80, (60 * 16000 - 1024) // 533 + 1)
            assert c.text.shape == (32, EMBED_DIM)
            assert c.phq_subscores == session.phq_subscores
            assert c.participant_id == "p1"

    def test_video_frames_match_audio_frames(self, rng):
        # 30 Hz video against hop 533 at 16 kHz: counts align exactly at 60 s
        session = tiny_session(rng, duration_s=70.0)
        (clip,) = cut(session)
        assert clip.audio.shape[1] == 1800
        assert clip.visual.shape == (1800, FRAME_ROWS, 3)

    def test_sentence_midpoint_assignment(self, rng):
        session = tiny_session(rng, duration_s=120.0)
        clips = cut(session)
        # sentence i spans [5i, 5i+3), midpoint 5i+1.5; clip 0 covers [0,60)
        mid = session.sentences.midpoints
        in_clip0 = (0.0 <= mid) & (mid < 60.0)
        n0 = int(in_clip0.sum())
        assert np.count_nonzero(np.any(clips[0].text != 0.0, axis=1)) == n0
        np.testing.assert_array_equal(clips[0].text[:n0], session.sentences.vectors[in_clip0].astype(np.float32))

    def test_audio_standardized_per_clip(self, rng):
        session = tiny_session(rng, duration_s=120.0)
        for c in cut(session):
            assert abs(c.audio.mean(dtype=np.float64)) < 1e-9
            assert abs(c.audio.std(dtype=np.float64) - 1.0) < 1e-9

    def test_non_integer_frame_rate_gives_clips_that_batch(self, rng):
        # 29.97 fps puts 1799 and 1798 frames in the two windows; both are
        # sampled onto the 1800 audio frames, nearest frame first
        session = tiny_session(rng, duration_s=130.0, frame_rate=29.97)
        clips = cut(session)
        assert [c.visual.shape for c in clips] == [(1800, FRAME_ROWS, 3)] * 2
        times = session.frames.times
        points = normalize_keypoints(session.frames.points)
        for c in clips:
            inside = np.flatnonzero((c.start_s <= times) & (times < c.start_s + 60.0))
            at = c.start_s + np.arange(1800) / 30.0
            nearest = inside[np.abs(times[inside][None, :] - at[:, None]).argmin(axis=1)]
            np.testing.assert_array_equal(c.visual, points[nearest].astype(np.float32))
        assert batch_inputs(clips, VISUAL_ONLY)["visual"].data.shape == (2, 3, FRAME_ROWS, 1800)

    def test_window_without_frames_rejected_at_batching(self, rng):
        session = tiny_session(rng, duration_s=130.0)
        keep = session.frames.times < 40.0
        session.frames = Keypoints(times=session.frames.times[keep], points=session.frames.points[keep])
        clips = cut(session)
        assert clips[1].visual.shape == (0, FRAME_ROWS, 3)
        with pytest.raises(DataError):
            batch_inputs(clips[1:], VISUAL_ONLY)

    def test_modalities_are_float32(self, rng):
        for c in cut(tiny_session(rng, duration_s=70.0)):
            assert (c.audio.dtype, c.visual.dtype, c.text.dtype) == (np.float32,) * 3

    def test_cut_and_read_clips_hold_model_layout(self, rng, tmp_path):
        (cut_clip,) = cut(tiny_session(rng, duration_s=70.0))
        write_clip_bundle(tmp_path / "b", cut_clip)
        read_clip = read_clip_bundle(tmp_path / "b")
        batches = []
        for c in (cut_clip, read_clip):
            assert (c.audio.shape, c.visual.shape, c.text.shape) == ((80, 1800), (1800, FRAME_ROWS, 3), (32, EMBED_DIM))
            for model_view in (c.audio, c.visual.T, c.text.T):
                assert model_view.flags.c_contiguous and model_view.dtype == np.float32
            batches.append(batch_inputs([c, c], model_config(parse_config())))
        for key in ("audio", "visual", "text"):
            np.testing.assert_array_equal(batches[0][key].data, batches[1][key].data)

    def test_short_session_rejected(self, rng):
        with pytest.raises(EmptyOutputError):
            cut(tiny_session(rng, duration_s=59.0))

    def test_overlap_region_shares_visual_content(self, rng):
        session = tiny_session(rng, duration_s=120.0)
        c0, c1 = cut(session)
        # clip 1 starts at 50s; clip 0 frames from 50s onward reappear
        times = session.frames.times
        n_overlap = int(np.count_nonzero((50.0 <= times) & (times < 60.0)))
        np.testing.assert_allclose(c0.visual[-n_overlap:], c1.visual[:n_overlap], atol=1e-12)


class TestClipSampleValidation:
    def test_wrong_subscore_count_rejected(self, rng):
        with pytest.raises(DataError):
            ClipSample(
                audio=np.zeros((8, 4)),
                visual=np.zeros((2, FRAME_ROWS, 3)),
                text=np.zeros((4, EMBED_DIM)),
                phq_subscores=(1, 2, 3),
                participant_id="p",
                gender="male",
                clip_index=0,
            )

    def test_out_of_range_subscore_rejected(self):
        with pytest.raises(DataError):
            ClipSample(
                audio=np.zeros((8, 4)),
                visual=np.zeros((2, FRAME_ROWS, 3)),
                text=np.zeros((4, EMBED_DIM)),
                phq_subscores=(0, 0, 0, 4, 0, 0, 0, 0),
                participant_id="p",
                gender="male",
                clip_index=0,
            )


    @pytest.mark.parametrize("modality", ["audio", "visual", "text"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_modality_rejected(self, modality, value):
        arrays = {"audio": np.zeros((8, 4)), "visual": np.zeros((2, FRAME_ROWS, 3)), "text": np.zeros((4, EMBED_DIM))}
        arrays[modality].flat[-1] = value
        with pytest.raises(DataError, match=f"clip 3 of p: non-finite {modality} values"):
            ClipSample(**arrays, phq_subscores=(0,) * 8, participant_id="p", gender="male", clip_index=3)


class TestTextIo:
    def test_keypoints_round_trip(self, tmp_path, rng):
        frames = Keypoints(times=np.arange(4) * 0.5, points=make_points(rng, 4))
        path = tmp_path / "kp.txt"
        write_keypoints(path, frames)
        back = read_keypoints(path)
        assert back.points.shape == (4, FRAME_ROWS, 3)
        np.testing.assert_allclose(back.times, frames.times, atol=1e-6)
        np.testing.assert_allclose(back.points, frames.points, rtol=1e-6)

    def test_keypoints_rewrite_is_byte_identical(self, tmp_path):
        manifest = generate_synthetic_corpus(tmp_path / "c", n_participants=2, duration_s=3.0)
        original = manifest.parent / "P000" / "keypoints.txt"
        copy = tmp_path / "again.txt"
        write_keypoints(copy, read_keypoints(original))
        assert copy.read_bytes() == original.read_bytes()

    def test_keypoints_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 " + " ".join(["1.0"] * 215) + "\n")
        with pytest.raises(FormatError, match="bad.txt:1:"):
            read_keypoints(path)

    def test_keypoints_non_numeric_field_rejected(self, tmp_path):
        good = "0.0 " + " ".join(["1.0"] * 216) + "\n"
        path = tmp_path / "bad.txt"
        path.write_text(good + "\n" + good.replace("1.0", "x", 1))
        with pytest.raises(FormatError, match="bad.txt:3: non-numeric"):
            read_keypoints(path)

    def test_hash_inside_row_rejected_with_line(self, tmp_path):
        good = "0.0 " + " ".join(["1.0"] * 216) + "\n"
        path = tmp_path / "bad.txt"
        path.write_text(good + good.replace(" 1.0", " 1.0#", 1) + good)
        with pytest.raises(FormatError, match="bad.txt:2: non-numeric"):
            read_keypoints(path)
        path.write_text(good + good[:-1] + " # note\n")
        with pytest.raises(FormatError, match="bad.txt:2: expected 217 fields, got 219"):
            read_keypoints(path)

    @pytest.mark.parametrize(
        "reader, stamps, width",
        [(read_keypoints, "{k}", FRAME_ROWS * 3), (ingest_embeddings, "{k} {k}.5", EMBED_DIM)],
        ids=["keypoints", "embeddings"],
    )
    @pytest.mark.parametrize("field", ["1_000", "\u0661"], ids=["underscore", "arabic-indic-digit"])
    def test_python_only_numbers_rejected_with_line(self, tmp_path, reader, stamps, width, field):
        # Python's float() reads "1_000" and the Arabic-Indic digit one; numpy's reader, the fast path, does not
        rows = [stamps.format(k=k) + " 2.0" * width for k in range(3)]
        rows[1] = rows[1][: -len("2.0")] + field
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="bad.txt:2: non-numeric"):
            reader(path)

    @pytest.mark.parametrize("stamp, error", [("0.1", "is below the previous 0.2"), ("nan", "is not finite")])
    def test_keypoints_bad_timestamp_names_file_and_line(self, tmp_path, stamp, error):
        # a blank line holds no frame, so frame 2 is on line 4
        row = " " + " ".join(["1.0"] * 216) + "\n"
        path = tmp_path / "bad.txt"
        path.write_text("0.0" + row + "\n0.2" + row + stamp + row + "0.3" + row)
        with pytest.raises(FormatError, match=f"bad.txt:4: keypoint frame 2: timestamp {stamp} {error}"):
            read_keypoints(path)

    def test_every_row_wrong_width_names_line_1(self, tmp_path):
        row = "0.0 " + " ".join(["1.0"] * 215) + "\n"
        path = tmp_path / "bad.txt"
        path.write_text(row * 3)
        with pytest.raises(FormatError, match="bad.txt:1: expected 217 fields, got 216"):
            read_keypoints(path)

    def test_whitespace_only_file_is_empty(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("  \n\n\t \n")
        with pytest.raises(EmptyInputError):
            read_keypoints(path)
        with pytest.raises(EmptyInputError):
            ingest_embeddings(path)

    def test_one_row_file_gives_one_row(self, tmp_path, rng):
        path = tmp_path / "one.txt"
        write_keypoints(path, Keypoints(times=[0.5], points=make_points(rng, 1)))
        assert read_keypoints(path).points.shape == (1, FRAME_ROWS, 3)
        write_embeddings(path, make_sentences(rng, [1.0], 2.0))
        back = ingest_embeddings(path)
        assert back.vectors.shape == (1, EMBED_DIM)
        assert back.starts.shape == back.stops.shape == (1,)

    def test_reader_matches_line_scanner(self, tmp_path):
        manifest = generate_synthetic_corpus(tmp_path / "c", n_participants=2, duration_s=10.0)
        for name, width in (("keypoints.txt", 1 + FRAME_ROWS * 3), ("embeddings.txt", 2 + EMBED_DIM)):
            path = manifest.parent / "P001" / name
            fast = _read_rows(path, width, name)
            assert fast.shape[1] == width
            assert fast.tobytes() == _scan_rows(path, width, name).tobytes()

    def test_embeddings_round_trip(self, tmp_path, rng):
        rows = make_sentences(rng, np.arange(3) * 2.0, 1.5)
        path = tmp_path / "emb.txt"
        write_embeddings(path, rows)
        back = ingest_embeddings(path)
        np.testing.assert_allclose(back.vectors, rows.vectors, rtol=1e-6)
        np.testing.assert_allclose(back.midpoints, rows.midpoints, atol=1e-6)

    def test_embeddings_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 " + " ".join(["0.1"] * (EMBED_DIM - 1)) + "\n")
        with pytest.raises(FormatError):
            ingest_embeddings(path)

    def test_embeddings_unsorted_rejected(self, tmp_path):
        vec = " ".join(["0.1"] * EMBED_DIM)
        path = tmp_path / "bad.txt"
        path.write_text(f"5.0 6.0 {vec}\n\n1.0 2.0 {vec}\n")
        with pytest.raises(FormatError, match="bad.txt:3: sentence 1 starts at 1.0, below the previous start"):
            ingest_embeddings(path)

    @pytest.mark.parametrize("stop", ["6.0", "5.0"])
    def test_embeddings_start_not_before_stop_rejected(self, tmp_path, stop):
        vec = " ".join(["0.1"] * EMBED_DIM)
        path = tmp_path / "bad.txt"
        path.write_text(f"1.0 2.0 {vec}\n6.0 {stop} {vec}\n")
        with pytest.raises(FormatError):
            ingest_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            read_keypoints(path)
        with pytest.raises(EmptyInputError):
            ingest_embeddings(path)

"""Reciprocal-count sampler weights and per-batch loss weights."""

import numpy as np
import pytest

from conftest import tiny_clip
from depest.errors import ConfigError, DataError, EmptyInputError
from depest.phq import ITEM_MAX, derive_phq
from depest.sampling import (
    compute_sampler_weights,
    draw_indices,
    dynamic_class_weights,
    row_weights_for_batch,
)

N_CLASSES = ITEM_MAX + 1  # item scores 0..ITEM_MAX


def clips_with_totals(rng, totals, genders=None):
    out = []
    for i, total in enumerate(totals):
        subs = []
        left = total
        for _ in range(8):
            take = min(3, left)
            subs.append(take)
            left -= take
        gender = genders[i] if genders else ("female" if i % 2 == 0 else "male")
        out.append(tiny_clip(rng, tuple(subs), participant_id=f"P{i:03d}", gender=gender, clip_index=i))
    return out


class TestSamplerWeights:
    def test_reciprocal_of_class_count(self, rng):
        # 7 clips of score 0, 3 of score 12
        clips = clips_with_totals(rng, [0] * 7 + [12] * 3)
        w = compute_sampler_weights(clips, mode="score")
        np.testing.assert_allclose(w[:7], 1.0 / 7.0)
        np.testing.assert_allclose(w[7:], 1.0 / 3.0)

    def test_binary_mode_groups_by_cutoff(self, rng):
        # scores 4 and 9 share the healthy class under binary mode
        clips = clips_with_totals(rng, [4, 9, 9, 15])
        w = compute_sampler_weights(clips, mode="binary")
        np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3, 1.0])

    def test_binary_classes_are_derive_phq_binaries(self, rng):
        # every total from 0 to 24, so a cut anywhere else would move a clip and its weight
        clips = clips_with_totals(rng, [score for score in range(25) for _ in range(score % 4 + 1)])
        binaries = [derive_phq(c.phq_subscores).binary for c in clips]
        counts = {b: binaries.count(b) for b in (0, 1)}
        w = compute_sampler_weights(clips, mode="binary")
        np.testing.assert_array_equal(w, [1.0 / counts[b] for b in binaries])

    def test_labels_changed_after_the_clip_was_built_are_checked(self, rng):
        # summed these read 10 (depressed), truncated item by item 9: two rules that disagreed
        clips = clips_with_totals(rng, [0, 12])
        clips[1].phq_subscores = (3, 3, 3, 0.5, 0.5, 0, 0, 0)
        with pytest.raises(DataError):
            compute_sampler_weights(clips, mode="binary")

    def test_gender_multiplier(self, rng):
        clips = clips_with_totals(
            rng, [0, 0, 0, 0], genders=["female", "female", "female", "male"]
        )
        w_plain = compute_sampler_weights(clips, mode="score")
        w_gb = compute_sampler_weights(clips, mode="score", gender_balance=True)
        np.testing.assert_allclose(w_plain, 0.25)
        np.testing.assert_allclose(w_gb, [0.25 / 3, 0.25 / 3, 0.25 / 3, 0.25])

    def test_balanced_corpus_uniform(self, rng):
        clips = clips_with_totals(rng, [0, 0, 12, 12])
        w = compute_sampler_weights(clips, mode="binary")
        np.testing.assert_allclose(w, 0.5)

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ConfigError):
            compute_sampler_weights(clips_with_totals(rng, [0]), mode="total")

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            compute_sampler_weights([], mode="score")


class TestDraw:
    def test_three_to_seven_split_draws_uniform(self, rng):
        # 3 depressed vs 7 healthy: expected draw frequency per class 50%
        clips = clips_with_totals(rng, [15] * 3 + [2] * 7)
        w = compute_sampler_weights(clips, mode="binary")
        idx = draw_indices(rng, w, 100_000)
        frac_depressed = np.mean(idx < 3)
        assert abs(frac_depressed - 0.5) < 0.02

    def test_within_class_draws_uniform(self, rng):
        clips = clips_with_totals(rng, [15] * 2 + [2] * 8)
        w = compute_sampler_weights(clips, mode="binary")
        idx = draw_indices(rng, w, 100_000)
        # the two depressed clips split their half evenly
        f0 = np.mean(idx == 0)
        f1 = np.mean(idx == 1)
        assert abs(f0 - 0.25) < 0.02
        assert abs(f1 - 0.25) < 0.02

    def test_deterministic_under_seed(self, rng):
        w = np.array([0.5, 0.25, 0.25])
        a = draw_indices(np.random.default_rng(42), w, 50)
        b = draw_indices(np.random.default_rng(42), w, 50)
        np.testing.assert_array_equal(a, b)

    def test_nonpositive_weight_rejected(self, rng):
        with pytest.raises(ConfigError):
            draw_indices(rng, np.array([0.5, 0.0]), 10)


class TestDynamicWeights:
    def test_known_counts(self):
        # item 0 labels {0,0,1}: w(0)=1/2, w(1)=1, absent classes 1
        batch = np.array([
            [0, 3, 0, 0, 0, 0, 0, 0],
            [0, 3, 0, 0, 0, 0, 0, 0],
            [1, 3, 0, 0, 0, 0, 0, 0],
        ])
        w = dynamic_class_weights(batch, N_CLASSES)
        np.testing.assert_allclose(w[0], [0.5, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(w[1], [1.0, 1.0, 1.0, 1.0 / 3.0])
        np.testing.assert_allclose(w[2], [1.0 / 3.0, 1.0, 1.0, 1.0])

    def test_balanced_batch_uniform_weights(self):
        batch = np.array([[c] * 8 for c in (0, 1, 2, 3)])
        w = dynamic_class_weights(batch, N_CLASSES)
        np.testing.assert_allclose(w, 1.0)

    def test_shape(self, rng):
        batch = rng.integers(0, 4, size=(16, 8))
        assert dynamic_class_weights(batch, N_CLASSES).shape == (8, 4)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            dynamic_class_weights(np.zeros((0, 8)), N_CLASSES)


class TestRowWeights:
    def test_row_major_layout(self):
        batch = np.array([
            [0, 1, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0, 0, 0],
        ])
        cw = dynamic_class_weights(batch, N_CLASSES)
        rows = row_weights_for_batch(batch, cw)
        assert rows.shape == (16,)
        # first 8 entries belong to sample 0, items 0..7 in order
        np.testing.assert_allclose(rows[0], cw[0, 0])
        np.testing.assert_allclose(rows[1], cw[1, 1])
        np.testing.assert_allclose(rows[8], cw[0, 1])

    def test_balanced_batch_gives_unit_rows(self):
        batch = np.array([[c] * 8 for c in (0, 1, 2, 3)])
        rows = row_weights_for_batch(batch, dynamic_class_weights(batch, N_CLASSES))
        np.testing.assert_allclose(rows, 1.0)

    def test_rare_class_upweighted(self):
        batch = np.array([[0] * 8] * 7 + [[3] * 8])
        rows = row_weights_for_batch(batch, dynamic_class_weights(batch, N_CLASSES))
        # the single score-3 sample gets weight 1, the crowd 1/7 each
        np.testing.assert_allclose(rows[-8:], 1.0)
        np.testing.assert_allclose(rows[:-8], 1.0 / 7.0)

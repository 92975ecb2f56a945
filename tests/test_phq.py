"""Questionnaire scoring, participant aggregation, and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from conftest import tiny_clip
from depest.data import ManifestEntry
from depest.errors import DataError, DomainError, EmptyInputError, ShapeError
from depest.phq import (
    BINARY_CUTOFF,
    GENDERS,
    PhqRecord,
    aggregate_participant,
    compute_metrics,
    derive_phq,
    gender_split_report,
    item_scores,
    severity_band,
)


class TestSeverity:
    def test_every_score_maps_to_expected_band(self):
        expected = (
            ["not significant"] * 5
            + ["mild"] * 5
            + ["moderate"] * 5
            + ["moderately severe"] * 5
            + ["severe"] * 5
        )
        for score in range(25):
            assert severity_band(score) == expected[score]

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            severity_band(25)
        with pytest.raises(DomainError):
            severity_band(-1)


class TestDerive:
    def test_sum_and_examples(self):
        r = derive_phq((1, 0, 2, 0, 1, 0, 0, 3))
        assert r.score == 7
        assert r.binary == 0
        assert severity_band(r.score) == "mild"

        r = derive_phq((3,) * 8)
        assert r.score == 24
        assert r.binary == 1
        assert severity_band(r.score) == "severe"

        r = derive_phq((0,) * 8)
        assert r.score == 0
        assert r.binary == 0
        assert severity_band(r.score) == "not significant"

    def test_binary_flips_exactly_at_cutoff(self):
        # 9 -> 0, 10 -> 1
        assert derive_phq((3, 3, 3, 0, 0, 0, 0, 0)).binary == 0
        assert derive_phq((3, 3, 3, 1, 0, 0, 0, 0)).binary == 1
        assert BINARY_CUTOFF == 10

    def test_wrong_count_rejected(self):
        with pytest.raises(DataError):
            derive_phq((1, 2, 3))

    def test_out_of_range_item_rejected(self):
        with pytest.raises(DataError):
            derive_phq((0, 0, 0, 0, 4, 0, 0, 0))
        with pytest.raises(DataError):
            derive_phq((0, 0, 0, 0, -1, 0, 0, 0))

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_score_total_and_monotone_binary(self, subs):
        r = derive_phq(subs)
        assert r.score == sum(subs)
        assert 0 <= r.score <= 24
        assert r.binary == int(r.score >= 10)
        # bumping any item never lowers the score
        for i in range(8):
            if subs[i] < 3:
                bumped = list(subs)
                bumped[i] += 1
                assert derive_phq(bumped).score == r.score + 1


def _manifest_entry(subs):
    return ManifestEntry("P000", "female", subs, Path("a.wav"), Path("k.txt"), Path("e.txt"))


def _clip(subs):
    return tiny_clip(np.random.default_rng(0), subs)


BAD_SCORES = {
    "half": (0, 0, 1.5, 0, 0, 0, 0, 0),
    "ninth-score": (0,) * 9,
    "four": (0, 0, 0, 0, 0, 4, 0, 0),
}


class TestLabelRule:
    """phq alone decides what a valid label is; every holder of labels asks it."""

    @pytest.mark.parametrize("subs", BAD_SCORES.values(), ids=BAD_SCORES.keys())
    @pytest.mark.parametrize("holder", [derive_phq, _manifest_entry, _clip], ids=["derive_phq", "manifest", "clip"])
    def test_bad_item_scores_rejected_with_data_error(self, holder, subs):
        with pytest.raises(DataError, match="whole item subscores") as info:
            holder(subs)
        assert ", ".join(map(str, subs)) in str(info.value)  # the message names the values

    def test_whole_values_become_python_ints(self):
        subs = item_scores(np.array([3.0, 0, 1, 2, 0, 0, 0, 1]))
        assert subs == (3, 0, 1, 2, 0, 0, 0, 1)
        assert all(type(s) is int for s in subs)

    @pytest.mark.parametrize("gender", ["Female", "other", ""])
    def test_clip_gender_outside_genders_rejected(self, gender):
        assert gender not in GENDERS
        with pytest.raises(DataError, match="gender"):
            tiny_clip(np.random.default_rng(0), (0,) * 8, gender=gender)


def rec(score):
    """PhqRecord with the given total, items filled greedily."""
    subs = []
    left = score
    for _ in range(8):
        take = min(3, left)
        subs.append(take)
        left -= take
    return derive_phq(subs)


class TestAggregation:
    def test_mean_score_and_majority(self):
        out = aggregate_participant("p1", "female", [rec(8), rec(12), rec(16)])
        np.testing.assert_allclose(out.score, 12.0)
        assert out.binary == 1  # 2 of 3 vote depressed

    def test_majority_is_strict(self):
        # an exact tie (1 of 2) is not a strict majority -> 0
        out = aggregate_participant("p2", "male", [rec(12), rec(4)])
        assert out.binary == 0
        out = aggregate_participant("p3", "male", [rec(12), rec(4), rec(4)])
        assert out.binary == 0
        out = aggregate_participant("p4", "male", [rec(12), rec(12), rec(4)])
        assert out.binary == 1

    def test_single_clip(self):
        out = aggregate_participant("p5", "female", [rec(20)])
        assert out.binary == 1
        np.testing.assert_allclose(out.score, 20.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate_participant("p6", "male", [])

    def test_aggregate_score_can_cross_cutoff_downward(self):
        # mean >= 10 does not force the majority vote
        out = aggregate_participant("p7", "female", [rec(24), rec(24), rec(0), rec(0), rec(0)])
        assert out.score > 9.0
        assert out.binary == 0


class TestMetrics:
    def test_hand_worked_example(self):
        # pred 1,1,0,0,1  true 1,0,0,1,1: tp=2 fp=1 fn=1 tn=1
        rep = compute_metrics([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], [12, 12, 4, 4, 12], [12, 4, 4, 12, 12])
        np.testing.assert_allclose(rep.accuracy, 3 / 5)
        np.testing.assert_allclose(rep.precision, 2 / 3)
        np.testing.assert_allclose(rep.recall, 2 / 3)
        np.testing.assert_allclose(rep.f1, 2 / 3)
        assert rep.n == 5
        assert rep.zero_division_flags == ()

    def test_regression_block(self):
        rep = compute_metrics(
            [1, 0], [1, 0], pred_scores=[12.0, 3.0], true_scores=[10.0, 7.0]
        )
        np.testing.assert_allclose(rep.mae, 3.0)
        np.testing.assert_allclose(rep.rmse, np.sqrt((4.0 + 16.0) / 2))

    def test_rmse_at_least_mae(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            ps = rng.uniform(0, 24, size=n)
            ts = rng.uniform(0, 24, size=n)
            pb = (ps >= 10).astype(int)
            tb = (ts >= 10).astype(int)
            rep = compute_metrics(pb, tb, ps, ts)
            assert rep.rmse >= rep.mae - 1e-12

    def test_no_positive_predictions_flagged(self):
        rep = compute_metrics([0, 0, 0], [1, 0, 1], [4, 4, 4], [12, 4, 12])
        assert rep.precision == 0.0
        assert "precision" in rep.zero_division_flags
        assert "f1" in rep.zero_division_flags

    def test_no_positive_truths_flagged(self):
        rep = compute_metrics([0, 0], [0, 0], [4, 4], [4, 4])
        assert "recall" in rep.zero_division_flags
        assert rep.accuracy == 1.0

    def test_perfect_prediction(self):
        rep = compute_metrics([1, 0, 1], [1, 0, 1], [12, 4, 20], [12, 4, 20])
        assert rep.accuracy == 1.0
        assert rep.f1 == 1.0
        assert rep.mae == 0.0
        assert rep.rmse == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compute_metrics([1, 0], [1, 0, 1], [12, 4], [12, 4, 12])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            compute_metrics([], [], [], [])

    def test_report_lines_format(self):
        rep = compute_metrics([1, 0], [1, 1], [12.0, 4.0], [14.0, 12.0])
        lines = rep.lines()
        assert lines[0] == "n 2"
        assert any(line.startswith("accuracy 0.5000") for line in lines)


def participant(pid, gender, true_score):
    return aggregate_participant(pid, gender, [rec(true_score)])


class TestGenderSplit:
    def test_three_participant_fixture(self):
        results = [
            participant("pa", "female", 12),
            participant("pb", "male", 4),
            participant("pc", "female", 20),
        ]
        preds = {"pa": (1, 11.0), "pb": (1, 12.0), "pc": (1, 18.0)}
        rep = gender_split_report(results, preds)
        np.testing.assert_allclose(rep.overall.accuracy, 2 / 3)
        np.testing.assert_allclose(rep.female.accuracy, 1.0)
        np.testing.assert_allclose(rep.male.accuracy, 0.0)
        np.testing.assert_allclose(rep.accuracy_gap, 1.0)
        np.testing.assert_allclose(rep.female.mae, 1.5)
        np.testing.assert_allclose(rep.male.mae, 8.0)
        np.testing.assert_allclose(rep.mae_gap, 6.5)

    def test_absent_gender_drops_gap(self):
        results = [participant("pa", "female", 12), participant("pb", "female", 2)]
        preds = {"pa": (1, 12.0), "pb": (0, 2.0)}
        rep = gender_split_report(results, preds)
        assert rep.male is None
        assert rep.accuracy_gap is None
        lines = rep.lines()
        assert "[male]" in lines
        assert "absent" in lines
        assert "absent (need both groups)" in lines

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            gender_split_report([], {})

"""Soft-label transform, decoding, and KL loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradients, rel_err
from depest import autodiff as ad
from depest.errors import ConfigError, DomainError, ShapeError
from depest.musdl import (
    KL_EPS,
    MusdlConfig,
    decode_prediction,
    kl_rows,
    transform_labels,
)
from depest.phq import N_ITEMS

CFG = MusdlConfig(n_classes=4, n_expanded=32, sigma=5.0)  # the config.DEFAULTS values


@pytest.mark.parametrize("n_classes, n_expanded, match", [
    (4, 2, "multiple"),  # a grid smaller than the class count is no multiple of it
    (4, 30, "multiple"),
    (0, 32, "positive"),
    (4, 0, "positive"),
])
def test_bad_grid_sizes_rejected(n_classes, n_expanded, match):
    with pytest.raises(ConfigError, match=match):
        MusdlConfig(n_classes=n_classes, n_expanded=n_expanded, sigma=5.0)


def kl_value(target, pred) -> float:
    """Plain-array KL, the reference that kl_rows is checked against."""
    target = np.asarray(target, dtype=np.float64)
    pred = np.clip(np.asarray(pred, dtype=np.float64), KL_EPS, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(target > 0.0, target * (np.log(target) - np.log(pred)), 0.0)
    return float(terms.sum())


class TestTransform:
    def test_rows_normalized(self):
        soft = transform_labels([0, 1, 2, 3, 0, 1, 2, 3], CFG)
        assert soft.shape == (8, 32)
        np.testing.assert_allclose(soft.sum(axis=1), np.ones(8), atol=1e-6)
        assert np.all(soft > 0.0)

    def test_peak_sits_at_class_midpoint(self):
        soft = transform_labels([0, 1, 2, 3, 0, 0, 0, 0], CFG)
        # center (s + 0.5)*8 - 0.5 is a half-integer; the two straddling
        # grid points tie in exact arithmetic and argmax takes the lower
        for row, s in zip(soft[:4], [0, 1, 2, 3]):
            mu = (s + 0.5) * 8 - 0.5
            assert row.argmax() in (int(np.floor(mu)), int(np.ceil(mu)))

    def test_mirror_symmetry(self):
        # scores s and 3-s give mirror-image rows
        soft = transform_labels([0, 1, 2, 3, 0, 0, 0, 0], CFG)
        np.testing.assert_allclose(soft[0], soft[3][::-1], atol=1e-12)
        np.testing.assert_allclose(soft[1], soft[2][::-1], atol=1e-12)

    def test_round_trip_every_score(self):
        for s in range(4):
            soft = transform_labels([s] * 8, CFG)
            np.testing.assert_array_equal(decode_prediction(soft, CFG), [s] * 8)

    def test_round_trip_mixed(self):
        for hard in [(0, 1, 2, 3, 3, 2, 1, 0), (2, 2, 0, 3, 1, 1, 0, 2)]:
            np.testing.assert_array_equal(
                decode_prediction(transform_labels(hard, CFG), CFG), list(hard)
            )

    def test_non_integer_label_rejected(self):
        with pytest.raises(DomainError):
            transform_labels([0.5, 0, 0, 0, 0, 0, 0, 0], CFG)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DomainError):
            transform_labels([0, 0, 0, 0, 0, 0, 0, 4], CFG)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            transform_labels([0, 1, 2], CFG)

    def test_sigma_controls_spread(self):
        tight = transform_labels([1] * 8, MusdlConfig(n_classes=4, n_expanded=32, sigma=0.5))
        wide = transform_labels([1] * 8, MusdlConfig(n_classes=4, n_expanded=32, sigma=10.0))
        assert tight[0].max() > wide[0].max()


class TestDecode:
    def test_one_hot_positions(self):
        rows = np.zeros((3, 32))
        rows[0, 17] = 1.0  # 17 // 8 = 2
        rows[1, 0] = 1.0
        rows[2, 31] = 1.0
        np.testing.assert_array_equal(decode_prediction(rows, CFG), [2, 0, 3])

    def test_tie_takes_lowest_index(self):
        row = np.zeros((1, 32))
        row[0, 7] = 0.5
        row[0, 8] = 0.5  # tie across the class boundary
        np.testing.assert_array_equal(decode_prediction(row, CFG), [0])

    def test_batch_decodes_in_one_call_like_its_rows(self, rng):
        batch = rng.dirichlet(np.ones(32), size=(5, N_ITEMS))  # [B, N_ITEMS, n_expanded]
        batch[0, 0, [7, 8]] = 2.0  # ties across a class boundary and inside a class
        batch[1, 3, [24, 31]] = 2.0
        batch[2] = 1.0 / 32  # every entry of every row tied
        got = decode_prediction(batch, CFG)
        assert got.shape == (5, N_ITEMS)
        np.testing.assert_array_equal(got, np.stack([decode_prediction(rows, CFG) for rows in batch]))
        np.testing.assert_array_equal(got[0, 0], 0)
        np.testing.assert_array_equal(got[1, 3], 3)
        np.testing.assert_array_equal(got[2], 0)

    @pytest.mark.parametrize("pred", [ad.tensor(np.zeros((2, 32))), np.zeros(32)], ids=["tensor", "1-D"])
    def test_graph_tensor_or_single_row_rejected(self, pred):
        with pytest.raises(ShapeError):
            decode_prediction(pred, CFG)

    def test_wrong_width_rejected(self):
        with pytest.raises(ShapeError):
            decode_prediction(np.zeros((2, 16)), CFG)


class TestKl:
    def test_self_divergence_zero(self):
        soft = transform_labels([1, 3, 0, 2, 1, 1, 2, 0], CFG)
        loss = kl_rows(soft, ad.tensor(soft.copy()))
        assert abs(loss.data) < 1e-9
        assert abs(kl_value(soft, soft)) < 1e-9

    def test_two_point_example(self):
        # target (1,0) vs pred (0.5,0.5): KL = ln 2
        t = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(kl_value(t, p), np.log(2.0), rtol=1e-12)
        loss = kl_rows(t, ad.tensor(p))
        np.testing.assert_allclose(loss.data, np.log(2.0), rtol=1e-9)

    def test_uniform_target_example(self):
        t = np.full((1, 4), 0.25)
        p = np.array([[0.7, 0.1, 0.1, 0.1]])
        expect = (0.25 * (np.log(0.25) - np.log(np.array([0.7, 0.1, 0.1, 0.1])))).sum()
        np.testing.assert_allclose(kl_value(t, p), expect, rtol=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(20):
            t = rng.dirichlet(np.ones(16), size=4)
            p = rng.dirichlet(np.ones(16), size=4)
            assert kl_value(t, p) > -1e-12
            assert kl_rows(t, ad.tensor(p)).data > -1e-12

    def test_zero_pred_clamped_finite(self):
        t = np.array([[0.5, 0.5]])
        p = np.array([[1.0, 0.0]])
        v = kl_rows(t, ad.tensor(p)).data
        assert np.isfinite(v)
        np.testing.assert_allclose(v, 0.5 * (np.log(0.5) - np.log(1e-12)) + 0.5 * np.log(0.5), rtol=1e-9)

    def test_gradient_through_softmax_matches_fd(self, rng):
        logits = rng.normal(size=(4, 8))
        target = rng.dirichlet(np.ones(8), size=4)

        def f(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return float(np.where(target > 0, target * (np.log(target) - np.log(p)), 0.0).sum())

        zt = ad.tensor(logits.copy(), requires_grad=True)
        loss = kl_rows(target, ad.softmax(zt))
        ad.backward(loss)
        (num,) = fd_gradients(f, [logits])
        assert rel_err(zt.grad, num) < 1e-4

    def test_row_weights_scale_rows(self, rng):
        t = rng.dirichlet(np.ones(8), size=3)
        p = rng.dirichlet(np.ones(8), size=3)
        w = np.array([2.0, 0.0, 1.0])
        got = kl_rows(t, ad.tensor(p), row_weights=w).data
        per_row = [kl_value(t[i : i + 1], p[i : i + 1]) for i in range(3)]
        np.testing.assert_allclose(got, 2.0 * per_row[0] + 0.0 + per_row[2], rtol=1e-9)

    def test_unit_weights_match_unweighted(self, rng):
        t = rng.dirichlet(np.ones(8), size=3)
        p = rng.dirichlet(np.ones(8), size=3)
        a = kl_rows(t, ad.tensor(p)).data
        b = kl_rows(t, ad.tensor(p), row_weights=np.ones(3)).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_weight_shape_rejected(self, rng):
        t = rng.dirichlet(np.ones(8), size=3)
        with pytest.raises(ShapeError):
            kl_rows(t, ad.tensor(t.copy()), row_weights=np.ones(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            kl_rows(np.zeros((2, 8)), ad.tensor(np.zeros((3, 8))))

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_decode_inverts_transform(self, hard):
        np.testing.assert_array_equal(decode_prediction(transform_labels(hard, CFG), CFG), hard)

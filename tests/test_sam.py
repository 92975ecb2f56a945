"""Two-pass sharpness-aware optimizer against closed-form references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depest import autodiff as ad
from depest.errors import ConfigError, NumericError
from depest.sam import SamConfig, SamOptimizer, Sgd


def quadratic_loss(w):
    # f(w) = 0.5 * sum(w^2); grad = w, unit ascent direction = w/||w||
    return ad.mul(ad.tensor(0.5), ad.sum_(ad.mul(w, w)))


def counted(loss_fn):
    """loss_fn plus a list that grows by one per call."""
    calls = []

    def fn():
        calls.append(None)
        return loss_fn()

    return fn, calls


class TestConfig:
    def test_negative_rho_rejected(self):
        with pytest.raises(ConfigError):
            SamConfig(rho=-0.1, lr=0.1)

    def test_zero_lr_rejected(self):
        with pytest.raises(ConfigError):
            SamConfig(rho=0.05, lr=0.0)

    def test_momentum_bounds(self):
        with pytest.raises(ConfigError):
            SamConfig(rho=0.05, lr=0.1, momentum=1.0)
        SamConfig(rho=0.05, lr=0.1, momentum=0.99)


class TestSgdEquivalence:
    def test_rho_zero_matches_sgd_exactly(self, rng):
        init = rng.normal(size=(3, 4))
        w_sam = ad.tensor(init.copy(), requires_grad=True)
        w_sgd = ad.tensor(init.copy(), requires_grad=True)
        sam = SamOptimizer([w_sam], SamConfig(rho=0.0, lr=0.07, momentum=0.9))
        sgd = Sgd([w_sgd], lr=0.07, momentum=0.9)
        for _ in range(10):
            sam.step(lambda: quadratic_loss(w_sam))
            w_sgd.grad = None
            ad.backward(quadratic_loss(w_sgd))
            sgd.step()
            assert np.max(np.abs(w_sam.data - w_sgd.data)) < 1e-12

    def test_rho_zero_single_eval_per_step(self, rng):
        w = ad.tensor(rng.normal(size=(2,)), requires_grad=True)
        sam = SamOptimizer([w], SamConfig(rho=0.0, lr=0.1))
        loss_fn, calls = counted(lambda: quadratic_loss(w))
        for _ in range(4):
            sam.step(loss_fn)
        assert len(calls) == 4


class TestQuadraticOracle:
    def test_hand_computed_step(self):
        # f(w) = 0.5 w^2 at w=2, rho=0.5, lr=0.1:
        # g1=2, eps=0.5, perturbed w=2.5, g2=2.5, new w = 2 - 0.25 = 1.75
        w = ad.tensor(np.array([2.0]), requires_grad=True)
        sam = SamOptimizer([w], SamConfig(rho=0.5, lr=0.1))
        loss_fn, calls = counted(lambda: quadratic_loss(w))
        loss = sam.step(loss_fn)
        assert loss == 2.0  # reported loss is pre-perturbation
        np.testing.assert_allclose(w.data, [1.75], atol=1e-15)
        assert len(calls) == 2

    def test_two_evals_per_step_with_rho(self, rng):
        w = ad.tensor(rng.normal(size=(3,)), requires_grad=True)
        sam = SamOptimizer([w], SamConfig(rho=0.05, lr=0.01))
        loss_fn, calls = counted(lambda: quadratic_loss(w))
        for _ in range(5):
            sam.step(loss_fn)
        assert len(calls) == 10


class TestPerturbationGeometry:
    def test_perturbation_norm_equals_rho(self, rng):
        rho = 0.37
        params = [
            ad.tensor(rng.normal(size=(4, 3)), requires_grad=True),
            ad.tensor(rng.normal(size=(5,)), requires_grad=True),
        ]
        seen = {}

        calls = {"n": 0}

        def loss_fn():
            calls["n"] += 1
            if calls["n"] == 2:  # second eval sees the perturbed point
                seen["vals"] = [p.data.copy() for p in params]
            parts = [ad.sum_(ad.mul(p, p)) for p in params]
            return ad.mul(ad.tensor(0.5), ad.add(parts[0], parts[1]))

        before = [p.data.copy() for p in params]
        sam = SamOptimizer(params, SamConfig(rho=rho, lr=1e-9))
        sam.step(loss_fn)
        delta = np.concatenate(
            [(s - b).ravel() for s, b in zip(seen["vals"], before)]
        )
        np.testing.assert_allclose(np.linalg.norm(delta), rho, atol=1e-9)

    def test_weights_restored_bit_for_bit_before_update(self, rng):
        # with lr tiny and exact restore, drift comes only from the update
        w = ad.tensor(rng.normal(size=(6,)), requires_grad=True)
        before = w.data.copy()
        sam = SamOptimizer([w], SamConfig(rho=0.1, lr=1e-300))
        sam.step(lambda: quadratic_loss(w))
        # update term underflows to 0, so any difference is restore error
        assert np.array_equal(w.data, before)

    def test_restore_happens_even_when_second_eval_raises(self, rng):
        w = ad.tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = w.data.copy()
        calls = {"n": 0}

        def loss_fn():
            calls["n"] += 1
            if calls["n"] == 2:
                raise NumericError("synthetic failure")
            return quadratic_loss(w)

        sam = SamOptimizer([w], SamConfig(rho=0.5, lr=0.1))
        with pytest.raises(NumericError):
            sam.step(loss_fn)
        assert np.array_equal(w.data, before)
        assert ad.current.update_stats

    def test_zero_gradient_falls_back_to_plain_step(self):
        w = ad.tensor(np.zeros(3), requires_grad=True)
        sam = SamOptimizer([w], SamConfig(rho=0.5, lr=0.1))
        loss_fn, calls = counted(lambda: quadratic_loss(w))
        sam.step(loss_fn)
        np.testing.assert_array_equal(w.data, np.zeros(3))
        assert len(calls) == 1  # no second pass without an ascent direction


class TestGuards:
    def test_non_tensor_loss_rejected(self):
        w = ad.tensor(np.ones(2), requires_grad=True)
        sam = SamOptimizer([w], SamConfig(rho=0.05, lr=0.1))
        with pytest.raises(ConfigError):
            sam.step(lambda: 1.0)

    def test_nonfinite_loss_rejected(self):
        w = ad.tensor(np.ones(2), requires_grad=True)
        sam = SamOptimizer([w], SamConfig(rho=0.05, lr=0.1))
        with pytest.raises(NumericError):
            sam.step(lambda: ad.tensor(np.array(np.inf)))

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigError):
            SamOptimizer([], SamConfig(rho=0.05, lr=0.1))


class TestConvergence:
    def test_rho_zero_converges_to_machine_zero(self, rng):
        w = ad.tensor(rng.normal(scale=3.0, size=(4,)), requires_grad=True)
        sam = SamOptimizer([w], SamConfig(rho=0.0, lr=0.2))
        losses = [sam.step(lambda: quadratic_loss(w)) for _ in range(80)]
        assert losses[-1] < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.0, max_value=0.2))
    @settings(max_examples=15, deadline=None)
    def test_quadratic_reaches_hover_radius(self, seed, rho):
        # with fixed rho the iterates hover near ||w|| ~ lr*rho/(2-lr)
        # instead of converging to zero; bound the hover loss from above
        rng = np.random.default_rng(seed)
        w = ad.tensor(rng.normal(scale=3.0, size=(4,)) + 0.5, requires_grad=True)
        sam = SamOptimizer([w], SamConfig(rho=rho, lr=0.2))
        losses = [sam.step(lambda: quadratic_loss(w)) for _ in range(60)]
        hover = 0.5 * (0.2 * (rho + 1e-3) / (2 - 0.2)) ** 2
        assert losses[-1] < max(1e-10, 100.0 * hover)

    def test_momentum_accelerates_on_ravine(self, rng):
        # heavy-ball beats plain descent on an ill-conditioned bowl
        scales = np.array([1.0, 25.0])

        def make_loss(w):
            return ad.mul(ad.tensor(0.5), ad.sum_(ad.mul(ad.tensor(scales), ad.mul(w, w))))

        init = np.array([3.0, 3.0])
        w_plain = ad.tensor(init.copy(), requires_grad=True)
        w_mom = ad.tensor(init.copy(), requires_grad=True)
        plain = SamOptimizer([w_plain], SamConfig(rho=0.0, lr=0.03))
        mom = SamOptimizer([w_mom], SamConfig(rho=0.0, lr=0.03, momentum=0.9))
        for _ in range(80):
            lp = plain.step(lambda: make_loss(w_plain))
            lm = mom.step(lambda: make_loss(w_mom))
        assert lm < lp

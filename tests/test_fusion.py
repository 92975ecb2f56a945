"""Attention-gated fusion block and baseline late-fusion rules."""

import numpy as np
import pytest

from conftest import fd_gradients, rel_err
from depest import autodiff as ad
from depest import fusion
from depest.errors import ConfigError, ShapeError
from depest.fusion import AttentionalFusion, ChannelAttention, SubAttentionalBank, baseline_fuse
from depest.phq import N_ITEMS


def reference_attention(att, x):
    """Channel attention as one head ran it before the bank was batched:
    one-channel 1x1 convs and batch norms, called module by module."""
    B, C = x.data.shape[:2]
    local = att.local_bn2(att.local_pw2(ad.relu(att.local_bn1(att.local_pw1(x)))))
    pooled = ad.reshape(ad.mean(x, axis=(2, 3)), (B, C, 1, 1))
    glob = att.global_bn2(att.global_pw2(ad.relu(att.global_bn1(att.global_pw1(pooled)))))
    return ad.sigmoid(ad.add(local, glob))


def reference_fusion(head, y):
    """One head's fusion block as a graph of its own: the per-head bank's forward."""
    x = ad.add(head.conv_first(y), y)
    w = reference_attention(head.att_mid, x)
    conv_y = head.conv_refine(y)
    one = ad.tensor(np.ones((), dtype=y.data.dtype))
    x_ref = ad.add(ad.mul(conv_y, w), ad.mul(y, ad.sub(one, w)))
    wp = reference_attention(head.att_out, x_ref)
    return ad.add(ad.mul(conv_y, wp), ad.mul(y, ad.sub(one, wp)))


class TestChannelAttention:
    def test_output_in_unit_interval(self, rng):
        att = ChannelAttention(rng=rng, dtype=np.float64)
        w = fusion._attend_heads([att], ad.tensor(rng.normal(size=(2, 1, 3, 16))))
        assert w.data.shape == (2, 1, 3, 16)
        assert np.all(w.data > 0.0) and np.all(w.data < 1.0)

    def test_fresh_block_outputs_half(self, rng):
        # fresh BN ends both paths at beta=0, so the sigmoid sees 0
        att = ChannelAttention(rng=rng, dtype=np.float64)
        att.local_bn2.gamma.data[...] = 0.0
        att.global_bn2.gamma.data[...] = 0.0
        w = fusion._attend_heads([att], ad.tensor(rng.normal(size=(2, 1, 3, 8))))
        np.testing.assert_allclose(w.data, 0.5, atol=1e-12)

    def test_global_path_is_spatially_constant(self, rng):
        att = ChannelAttention(rng=rng, dtype=np.float64)
        # zero the local path's last BN; remaining signal is pooled only
        att.local_bn2.gamma.data[...] = 0.0
        att.local_bn2.beta.data[...] = 0.0
        w = fusion._attend_heads([att], ad.tensor(rng.normal(size=(3, 1, 2, 5))))
        for b in range(3):
            np.testing.assert_allclose(w.data[b], w.data[b].flat[0], atol=1e-12)


class TestAttentionalFusion:
    def test_shape_preserved(self, rng):
        fus = AttentionalFusion(rng=rng, dtype=np.float64)
        y = rng.normal(size=(2, 1, 3, 32))
        out = fus(ad.tensor(y))
        assert out.data.shape == y.shape

    def test_convex_combination_identity(self, rng):
        # output must equal conv(Y)*w' + Y*(1-w') with the logged weights
        fus = AttentionalFusion(rng=rng, dtype=np.float64)
        y = rng.normal(size=(2, 1, 3, 8))
        out = fus(ad.tensor(y))
        expect = fus.last_conv_y * fus.last_wp + y * (1.0 - fus.last_wp)
        np.testing.assert_allclose(out.data, expect, atol=1e-9)

    def test_weights_logged_in_unit_interval(self, rng):
        fus = AttentionalFusion(rng=rng, dtype=np.float64)
        fus(ad.tensor(rng.normal(size=(2, 1, 3, 8))))
        for w in (fus.last_w, fus.last_wp):
            assert w.shape == (2, 1, 3, 8)
            assert np.all(w > 0.0) and np.all(w < 1.0)

    def test_saturation_high_passes_conv_only(self, rng):
        fus = AttentionalFusion(rng=rng, dtype=np.float64)
        fus.force_saturation(high=True)
        y = rng.normal(size=(2, 1, 3, 8))
        out = fus(ad.tensor(y))
        conv_y = fus.last_conv_y
        assert np.max(np.abs(out.data - conv_y)) < 1e-6

    def test_saturation_low_passes_input_only(self, rng):
        fus = AttentionalFusion(rng=rng, dtype=np.float64)
        fus.force_saturation(high=False)
        y = rng.normal(size=(2, 1, 3, 8))
        out = fus(ad.tensor(y))
        assert np.max(np.abs(out.data - y)) < 1e-6

    def test_fresh_block_blends_half_half(self, rng):
        # zero all final-BN gammas: every attention weight is exactly 0.5
        fus = AttentionalFusion(rng=rng, dtype=np.float64)
        for att in (fus.att_mid, fus.att_out):
            att.local_bn2.gamma.data[...] = 0.0
            att.global_bn2.gamma.data[...] = 0.0
        y = rng.normal(size=(2, 1, 3, 8))
        out = fus(ad.tensor(y))
        np.testing.assert_allclose(out.data, 0.5 * fus.last_conv_y + 0.5 * y, atol=1e-12)

    def test_gradients_flow_to_all_parameters(self, rng):
        fus = AttentionalFusion(rng=rng, dtype=np.float64)
        y = ad.tensor(rng.normal(size=(2, 1, 3, 6)), requires_grad=True)
        ad.backward(ad.sum_(ad.mul(fus(y), fus(y))))
        assert y.grad is not None
        for name, p in fus.named_parameters():
            assert p.grad is not None, name

    def test_full_stack_gradient_matches_fd(self, rng):
        fus = AttentionalFusion(rng=rng, dtype=np.float64)
        fus.eval()  # freeze BN stats so the fd probe sees a fixed function
        y = rng.normal(size=(1, 1, 2, 5))

        def f(a):
            out = fus(ad.tensor(a))
            return float(ad.sum_(ad.mul(out, out)).data)

        yt = ad.tensor(y.copy(), requires_grad=True)
        ad.backward(ad.sum_(ad.mul(fus(yt), fus(yt))))
        (num,) = fd_gradients(f, [y])
        assert rel_err(yt.grad, num) < 1e-4


class TestBank:
    def test_eight_heads_eight_outputs(self, rng):
        bank = SubAttentionalBank(rng=rng, dtype=np.float64)
        outs = bank(ad.tensor(rng.normal(size=(2, 1, 3, 8))))
        assert len(outs) == N_ITEMS

    def test_heads_have_independent_parameters(self, rng):
        bank = SubAttentionalBank(rng=rng, dtype=np.float64)
        p0 = bank.heads[0].conv_first.weight
        p1 = bank.heads[1].conv_first.weight
        assert p0 is not p1
        assert not np.array_equal(p0.data, p1.data)

    def test_gradient_isolation_between_heads(self, rng):
        # a loss built from head 3 alone must not touch other heads; the
        # batched pass hands them exactly-zero gradients
        bank = SubAttentionalBank(rng=rng, dtype=np.float64)
        outs = bank(ad.tensor(rng.normal(size=(1, 1, 3, 8))))
        ad.backward(ad.sum_(ad.mul(outs[3], outs[3])))
        for i, head in enumerate(bank.heads):
            for name, p in head.named_parameters():
                if i == 3:
                    assert p.grad is not None, f"head 3 {name}"
                else:
                    assert p.grad is None or not np.any(p.grad), f"head {i} {name}"

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batched_bank_matches_per_head_reference(self, training):
        banks = [SubAttentionalBank(rng=np.random.default_rng(7), dtype=np.float64) for _ in range(2)]
        rng = np.random.default_rng(8)
        params = dict(banks[0].named_parameters())
        for name, buf in banks[0].state().items():
            if name not in params:
                buf[...] = rng.uniform(0.5, 2.0, size=buf.shape) if name.endswith("var") else rng.normal(size=buf.shape)
        banks[1].load_state(banks[0].state())
        for bank in banks:
            bank.train(training)
        y = rng.normal(size=(2, 1, 3, 8))
        g = rng.normal(size=(2, N_ITEMS, 3, 8))

        bank, ref = banks
        y_bank, y_ref = (ad.tensor(y.copy(), requires_grad=True) for _ in range(2))
        outs = bank(y_bank)
        ref_outs = [reference_fusion(head, y_ref) for head in ref.heads]
        for o in (outs, ref_outs):
            ad.backward(ad.sum_(ad.mul(ad.concat(o, axis=1), ad.tensor(g))))

        for o, r in zip(outs, ref_outs):
            np.testing.assert_allclose(o.data, r.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(y_bank.grad, y_ref.grad, rtol=0, atol=1e-12)
        # the sums run in another order; one-channel batch norms scale a
        # head's gradients (to ~1e3 on some seeds) and the rounding with them
        for head, ref_head in zip(bank.heads, ref.heads):
            ref_params = dict(ref_head.named_parameters())
            scale = max(np.abs(p.grad).max() for p in ref_params.values())
            for name, p in head.named_parameters():
                np.testing.assert_allclose(p.grad, ref_params[name].grad, rtol=0, atol=1e-12 * scale, err_msg=name)
        params, ref_state = dict(bank.named_parameters()), ref.state()
        for name, buf in bank.state().items():
            if name not in params:
                np.testing.assert_allclose(buf, ref_state[name], rtol=0, atol=1e-12, err_msg=name)

    def test_mutating_one_head_leaves_others_fixed(self, rng):
        bank = SubAttentionalBank(rng=rng, dtype=np.float64)
        x = ad.tensor(rng.normal(size=(1, 1, 3, 8)))
        before = [o.data.copy() for o in bank(x)]
        bank.heads[5].conv_refine.weight.data += 1.0
        after = [o.data.copy() for o in bank(x)]
        for i in range(N_ITEMS):
            if i == 5:
                assert not np.allclose(before[i], after[i])
            else:
                np.testing.assert_allclose(before[i], after[i], atol=1e-12)


class TestBaselines:
    def make_vecs(self, rng, n=3, d=6):
        arrays = [rng.normal(size=d) for _ in range(n)]
        return arrays, [ad.tensor(a.copy(), requires_grad=True) for a in arrays]

    def test_multiplication(self, rng):
        arrays, vecs = self.make_vecs(rng)
        out = baseline_fuse("mult", vecs)
        np.testing.assert_allclose(out.data, arrays[0] * arrays[1] * arrays[2], atol=1e-12)

    def test_concatenation_order(self, rng):
        arrays, vecs = self.make_vecs(rng)
        out = baseline_fuse("concat", vecs)
        np.testing.assert_array_equal(out.data, np.concatenate(arrays))

    def test_median_is_lower_median(self, rng):
        vecs = [ad.tensor(np.array([1.0, 5.0])), ad.tensor(np.array([2.0, 6.0])),
                ad.tensor(np.array([3.0, 4.0])), ad.tensor(np.array([9.0, 0.0]))]
        out = baseline_fuse("median", vecs)
        # even count: lower of the two middle values, per coordinate
        np.testing.assert_array_equal(out.data, [2.0, 4.0])

    def test_max(self, rng):
        arrays, vecs = self.make_vecs(rng)
        out = baseline_fuse("max", vecs)
        np.testing.assert_allclose(out.data, np.max(arrays, axis=0), atol=1e-12)

    def test_summation_and_mean(self, rng):
        arrays, vecs = self.make_vecs(rng)
        np.testing.assert_allclose(baseline_fuse("sum", vecs).data, np.sum(arrays, axis=0), atol=1e-12)
        np.testing.assert_allclose(baseline_fuse("mean", vecs).data, np.mean(arrays, axis=0), atol=1e-12)

    @pytest.mark.parametrize(
        "method",
        ["mult", "median", "max", "sum", "mean"],
        ids=["multiplication", "median", "max", "summation", "mean"],
    )
    def test_permutation_invariant_methods(self, method, rng):
        arrays, _ = self.make_vecs(rng, n=4)
        perm = [2, 0, 3, 1]
        a = baseline_fuse(method, [ad.tensor(arrays[i]) for i in range(4)])
        b = baseline_fuse(method, [ad.tensor(arrays[i]) for i in perm])
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_concatenation_is_order_sensitive(self, rng):
        arrays, _ = self.make_vecs(rng, n=2)
        a = baseline_fuse("concat", [ad.tensor(arrays[0]), ad.tensor(arrays[1])])
        b = baseline_fuse("concat", [ad.tensor(arrays[1]), ad.tensor(arrays[0])])
        assert not np.allclose(a.data, b.data)

    def test_batched_inputs(self, rng):
        stacked = rng.normal(size=(4, 3, 6))  # [B, n, d]
        vecs = [ad.tensor(stacked[:, i]) for i in range(3)]
        out = baseline_fuse("mean", vecs)
        np.testing.assert_allclose(out.data, stacked.mean(axis=1), atol=1e-12)
        out = baseline_fuse("concat", vecs)
        np.testing.assert_array_equal(out.data, stacked.reshape(4, 18))

    def test_gradients_flow(self, rng):
        for method in ("mult", "concat", "median", "max", "sum", "mean"):
            arrays, vecs = self.make_vecs(rng)
            ad.backward(ad.sum_(ad.mul(baseline_fuse(method, vecs), baseline_fuse(method, vecs))))
            for v in vecs:
                assert v.grad is not None, method

    def test_multiplication_gradient_matches_fd(self, rng):
        arrays, vecs = self.make_vecs(rng)
        ad.backward(ad.sum_(baseline_fuse("mult", vecs)))
        num = fd_gradients(lambda a, b, c: (a * b * c).sum(), arrays)
        for v, n in zip(vecs, num):
            assert rel_err(v.grad, n) < 1e-4

    def test_unknown_method_rejected(self, rng):
        _, vecs = self.make_vecs(rng)
        for method in ("average", "multiplication", "concatenation", "summation"):
            with pytest.raises(ConfigError):
                baseline_fuse(method, vecs)

    def test_single_vector_rejected(self, rng):
        with pytest.raises(ShapeError):
            baseline_fuse("mean", [ad.tensor(rng.normal(size=4))])

    def test_ragged_vectors_rejected(self, rng):
        with pytest.raises(ShapeError):
            baseline_fuse("mean", [ad.tensor(rng.normal(size=4)), ad.tensor(rng.normal(size=5))])

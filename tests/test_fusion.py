"""Attention-gated fusion block and baseline late-fusion rules."""

import numpy as np
import pytest

from conftest import fd_gradients, rel_err
from depest import autodiff as ad
from depest import fusion
from depest.errors import ConfigError, ShapeError
from depest.fusion import AttentionalFusion, SubAttentionalBank, baseline_fuse
from depest.layers import BatchNorm, Conv2d, batch_norm, conv2d
from depest.phq import N_ITEMS


class ReferenceAttention:
    """One head's attention unit as it was stored before the bank was stacked: one-channel modules."""

    def __init__(self, rng, dtype):
        for path in ("local", "global"):
            for stage in (1, 2):
                setattr(self, f"{path}_pw{stage}", Conv2d(1, 1, (1, 1), rng=rng, dtype=dtype))
                setattr(self, f"{path}_bn{stage}", BatchNorm(1, dtype=dtype))


class ReferenceHead:
    """One head as it was stored before the bank was stacked: one-channel modules."""

    def __init__(self, rng, dtype):
        self.conv_first = Conv2d(1, 1, (3, 3), padding=(1, 1), rng=rng, dtype=dtype)
        self.conv_refine = Conv2d(1, 1, (3, 3), padding=(1, 1), rng=rng, dtype=dtype)
        self.att_mid = ReferenceAttention(rng, dtype)
        self.att_out = ReferenceAttention(rng, dtype)

    def leaves(self):
        """(name in the stacked bank, one-channel Tensor) of every leaf."""
        for name in ("conv_first", "conv_refine"):
            conv = getattr(self, name)
            yield f"{name}.weight", conv.weight
            yield f"{name}.bias", conv.bias
        for unit in ("att_mid", "att_out"):
            att = getattr(self, unit)
            for path in ("local", "global"):
                for stage in (1, 2):
                    pw, bn = (getattr(att, f"{path}_{kind}{stage}") for kind in ("pw", "bn"))
                    yield f"{unit}.{path}_pw{stage}.scale", pw.weight
                    yield f"{unit}.{path}_pw{stage}.shift", pw.bias
                    for leaf in ("gamma", "beta", "running_mean", "running_var"):
                        yield f"{unit}.{path}_bn{stage}.{leaf}", getattr(bn, leaf)

    def train(self, mode):
        for unit in (self.att_mid, self.att_out):
            for name, bn in vars(unit).items():
                if "_bn" in name:
                    bn.train(mode)


def reference_heads(seed, dtype):
    rng = np.random.default_rng(seed)
    return [ReferenceHead(rng, dtype) for _ in range(N_ITEMS)]


def bank_and_reference(dtype, training, rng):
    """A bank and its eight heads as one-head modules holding slices of its arrays, random running statistics."""
    bank, refs = SubAttentionalBank(rng=np.random.default_rng(7), dtype=dtype), reference_heads(8, dtype)
    state = bank.state()
    for name in state:
        if name.endswith("running_mean"):
            state[name][...] = rng.normal(size=N_ITEMS)
        elif name.endswith("running_var"):
            state[name][...] = rng.uniform(0.5, 2.0, size=N_ITEMS)
    for k, head in enumerate(refs):
        for name, leaf in head.leaves():
            leaf.data[...] = head_slice(state[name], k).reshape(leaf.data.shape)
        head.train(training)
    bank.train(training)
    return bank, refs


def head_slice(stacked: np.ndarray, k: int) -> np.ndarray:
    """Head k's entries of a stacked array, whose head axis is the first of length N_ITEMS."""
    return np.take(stacked, k, axis=stacked.shape.index(N_ITEMS))


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


def joined_reference(heads, y):
    """The bank as it ran while each head stored its own one-channel modules: every pass
    joins each role's per-head parameters and batch-norm statistics along the head axis,
    runs the batched formulas and writes the statistics back."""

    def conv(convs, t):
        weight, bias = (ad.concat([getattr(c, name) for c in convs], axis=0) for name in ("weight", "bias"))
        return conv2d(t, weight, bias, padding=(1, 1))

    def pointwise(convs, t):
        scale = ad.concat([c.weight for c in convs], axis=1)
        shift = ad.reshape(ad.concat([c.bias for c in convs], axis=0), scale.data.shape)
        return ad.add(ad.mul(t, scale), shift)

    def norm(bns, t):
        stats = [np.concatenate([getattr(bn, name).data for bn in bns]) for name in ("running_mean", "running_var")]
        gamma, beta = (ad.concat([getattr(bn, name) for bn in bns], axis=0) for name in ("gamma", "beta"))
        out = batch_norm(t, gamma, beta, *stats, bns[0].training)
        for bn, mu, var in zip(bns, *stats):
            bn.running_mean.data[...], bn.running_var.data[...] = mu, var
        return out

    def attend(units, x):
        def path(t, name):
            pw1, bn1, pw2, bn2 = ([getattr(u, f"{name}_{role}") for u in units] for role in ("pw1", "bn1", "pw2", "bn2"))
            return norm(bn2, pointwise(pw2, ad.relu(norm(bn1, pointwise(pw1, t)))))

        glob = path(ad.mean(x, axis=(2, 3), keepdims=True), "global")
        return ad.sigmoid(ad.add(path(x, "local"), glob))

    x = ad.add(conv([h.conv_first for h in heads], y), y)
    w = attend([h.att_mid for h in heads], x)
    conv_y = conv([h.conv_refine for h in heads], y)
    step = ad.sub(conv_y, y)
    wp = attend([h.att_out for h in heads], ad.add(y, ad.mul(w, step)))
    out = ad.add(y, ad.mul(wp, step))
    return [ad.slice_axis(out, 1, k, k + 1) for k in range(len(heads))]


class TestChannelAttention:
    def test_output_in_unit_interval(self, rng):
        att = AttentionalFusion(rng=rng, dtype=np.float64).att_mid
        w = fusion._attend(att, ad.tensor(rng.normal(size=(2, 1, 3, 16))))
        assert w.data.shape == (2, 1, 3, 16)
        assert np.all(w.data > 0.0) and np.all(w.data < 1.0)

    def test_fresh_block_outputs_half(self, rng):
        # fresh BN ends both paths at beta=0, so the sigmoid sees 0
        att = AttentionalFusion(rng=rng, dtype=np.float64).att_mid
        att.local_bn2.gamma.data[...] = 0.0
        att.global_bn2.gamma.data[...] = 0.0
        w = fusion._attend(att, ad.tensor(rng.normal(size=(2, 1, 3, 8))))
        np.testing.assert_allclose(w.data, 0.5, atol=1e-12)

    def test_global_path_is_spatially_constant(self, rng):
        att = AttentionalFusion(rng=rng, dtype=np.float64).att_mid
        # zero the local path's last BN; remaining signal is pooled only
        att.local_bn2.gamma.data[...] = 0.0
        att.local_bn2.beta.data[...] = 0.0
        w = fusion._attend(att, ad.tensor(rng.normal(size=(3, 1, 2, 5))))
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

    def test_each_role_is_one_array_with_a_head_axis(self, rng):
        bank = SubAttentionalBank(rng=rng, dtype=np.float64)
        shapes = {name: p.data.shape for name, p in bank.named_parameters()}
        assert len(shapes) == 36 and len(bank.state()) == 52
        assert shapes["conv_first.weight"] == (N_ITEMS, 1, 3, 3) and shapes["conv_refine.bias"] == (N_ITEMS,)
        assert shapes["att_mid.local_pw1.scale"] == shapes["att_out.global_pw2.shift"] == (1, N_ITEMS, 1, 1)
        assert shapes["att_out.local_bn2.gamma"] == (N_ITEMS,)

    def test_heads_have_independent_parameters(self, rng):
        bank = SubAttentionalBank(rng=rng, dtype=np.float64)
        first = bank.conv_first.weight.data
        assert all(not np.array_equal(first[0], first[k]) for k in range(1, N_ITEMS))

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

    def test_head_views_read_the_stacked_arrays(self, rng):
        bank = SubAttentionalBank(rng=rng, dtype=np.float32)
        heads = bank.heads
        assert all(p.grad is None for head in heads for _, p in head.named_parameters())
        outs = bank(ad.tensor(rng.normal(size=(16, 1, 3, 64)).astype(np.float32)))
        ad.backward(ad.sum_(ad.mul(ad.concat(outs, axis=1), ad.tensor(rng.normal(size=(16, N_ITEMS, 3, 64))))))
        bank.conv_refine.weight.data = bank.conv_refine.weight.data + 1.0  # as the optimizers replace it
        stacked = dict(bank.named_parameters())
        for k, head in enumerate(heads):
            views = dict(head.named_parameters())
            assert list(views) == list(stacked)
            for name, p in stacked.items():
                assert views[name].data.tobytes() == head_slice(p.data, k).tobytes(), (k, name)
                assert views[name].grad.tobytes() == head_slice(p.grad, k).tobytes(), (k, name)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_stacked_bank_matches_the_joined_per_head_pass_bit_for_bit(self, training):
        # the pass the bank ran while each head kept its own modules, at
        # train_small's float32 map: outputs, every gradient element and the
        # batch-norm statistics keep their bits
        rng = np.random.default_rng(8)
        bank, refs = bank_and_reference(np.float32, training, rng)
        y = rng.normal(size=(16, 1, 3, 64)).astype(np.float32)
        g = ad.tensor(rng.normal(size=(16, N_ITEMS, 3, 64)).astype(np.float32))

        y_bank, y_ref = (ad.tensor(y.copy(), requires_grad=True) for _ in range(2))
        outs, ref_outs = bank(y_bank), joined_reference(refs, y_ref)
        for o in (outs, ref_outs):
            ad.backward(ad.sum_(ad.mul(ad.concat(o, axis=1), g)))

        for o, r in zip(outs, ref_outs):
            assert o.data.tobytes() == r.data.tobytes()
        assert y_bank.grad.tobytes() == y_ref.grad.tobytes()
        grads, state = {name: p.grad for name, p in bank.named_parameters()}, bank.state()
        for k, head in enumerate(refs):
            for name, leaf in head.leaves():
                if leaf.requires_grad:
                    assert head_slice(grads[name], k).tobytes() == leaf.grad.tobytes(), (k, name)
                else:
                    assert head_slice(state[name], k).tobytes() == leaf.data.tobytes(), (k, name)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batched_bank_matches_per_head_reference(self, training):
        # each head's block as a graph of its own, module by module; the
        # batch norms' sums run in another order, so values agree to rounding
        rng = np.random.default_rng(8)
        bank, refs = bank_and_reference(np.float64, training, rng)
        y = rng.normal(size=(2, 1, 3, 8))
        g = rng.normal(size=(2, N_ITEMS, 3, 8))

        y_bank, y_ref = (ad.tensor(y.copy(), requires_grad=True) for _ in range(2))
        outs = bank(y_bank)
        ref_outs = [reference_fusion(head, y_ref) for head in refs]
        for o in (outs, ref_outs):
            ad.backward(ad.sum_(ad.mul(ad.concat(o, axis=1), ad.tensor(g))))

        for o, r in zip(outs, ref_outs):
            np.testing.assert_allclose(o.data, r.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(y_bank.grad, y_ref.grad, rtol=0, atol=1e-12)
        # one-channel batch norms scale a head's gradients (to ~1e3 on some
        # seeds) and the rounding with them
        grads, state = {name: p.grad for name, p in bank.named_parameters()}, bank.state()
        for k, head in enumerate(refs):
            leaves = dict(head.leaves())
            scale = max(np.abs(p.grad).max() for p in leaves.values() if p.requires_grad)
            for name, leaf in leaves.items():
                if leaf.requires_grad:
                    got, want = head_slice(grads[name], k).ravel(), leaf.grad.ravel()
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale, err_msg=name)
                else:
                    np.testing.assert_allclose(head_slice(state[name], k), leaf.data[0], rtol=0, atol=1e-12, err_msg=name)

    def test_mutating_one_head_leaves_others_fixed(self, rng):
        bank = SubAttentionalBank(rng=rng, dtype=np.float64)
        x = ad.tensor(rng.normal(size=(1, 1, 3, 8)))
        before = [o.data.copy() for o in bank(x)]
        bank.conv_refine.weight.data[5] += 1.0
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

"""Layer ops against brute-force oracles and finite differences."""

import threading
import tracemalloc

import numpy as np
import pytest

from conftest import fd_gradients, rel_err, sigmoid
from depest import autodiff as ad
from depest import layers
from depest.errors import ConfigError, ShapeError
from depest.layers import (
    BatchNorm,
    BiLSTM,
    Conv1d,
    Conv2d,
    Linear,
    Module,
    batch_norm,
    bilstm,
    conv1d,
    conv2d,
    max_pool1d,
)

TOL = 1e-4


def brute_conv1d(x, w, b, stride, padding):
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    B, ci, T = xp.shape
    co, _, k = w.shape
    t_out = (T - k) // stride + 1
    out = np.zeros((B, co, t_out))
    for batch in range(B):
        for o in range(co):
            for t in range(t_out):
                out[batch, o, t] = (xp[batch, :, t * stride : t * stride + k] * w[o]).sum() + b[o]
    return out


def brute_conv2d(x, w, b, stride, padding):
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    B, ci, H, W = xp.shape
    co, _, kh, kw = w.shape
    h_out = (H - kh) // sh + 1
    w_out = (W - kw) // sw + 1
    out = np.zeros((B, co, h_out, w_out))
    for batch in range(B):
        for o in range(co):
            for i in range(h_out):
                for j in range(w_out):
                    seg = xp[batch, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[batch, o, i, j] = (seg * w[o]).sum() + b[o]
    return out


class TestConv1d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1), (3, 2)])
    def test_forward_matches_bruteforce(self, stride, padding, rng):
        x = rng.normal(size=(2, 3, 11))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=(4,))
        out = conv1d(ad.tensor(x), ad.tensor(w), ad.tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, brute_conv1d(x, w, b, stride, padding), atol=1e-12)

    def test_grads_match_fd(self, rng):
        x = rng.normal(size=(2, 2, 8))
        w = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=(3,))
        xt, wt, bt = (ad.tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        ad.backward(ad.sum_(ad.sigmoid(conv1d(xt, wt, bt, stride=2, padding=1))))
        num = fd_gradients(lambda a, ww, bb: sigmoid(brute_conv1d(a, ww, bb, 2, 1)).sum(), [x, w, b])
        assert rel_err(xt.grad, num[0]) < TOL
        assert rel_err(wt.grad, num[1]) < TOL
        assert rel_err(bt.grad, num[2]) < TOL

    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_allocates_little_beyond_its_output(self, stride, rng):
        # at stride 1 each tap's window goes to BLAS as it is, not as a copy;
        # at stride > 1 the forward also holds one gathered copy of every
        # tap's window, [taps, B, C_in, T_out], for the weight gradient
        x = ad.tensor(rng.normal(size=(4, 216, 600)).astype(np.float32))
        w = ad.tensor(rng.normal(size=(64, 216, 3)).astype(np.float32), requires_grad=True)
        b = ad.tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = conv1d(x, w, b, stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 0 if stride == 1 else 3 * 4 * 216 * out.data.shape[-1] * out.data.itemsize
        assert peak <= 3 * out.data.nbytes + held

    @pytest.mark.parametrize("stride", [1, 2])
    def test_weight_gradient_allocates_little_beyond_g(self, stride, rng):
        # each tap's window is contracted where it lies, not copied: the
        # window is 13x the size of g at stride 1
        x = ad.tensor(rng.normal(size=(4, 216, 600)).astype(np.float32))  # needs no gradient
        w = ad.tensor(rng.normal(size=(16, 216, 3)).astype(np.float32), requires_grad=True)
        b = ad.tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
        out = conv1d(x, w, b, stride=stride)
        g = np.ones_like(out.data)
        tracemalloc.start()
        try:
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * g.nbytes

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("padding", [0, 2])
    @pytest.mark.parametrize("stride", [2, 3, 4, 8])
    def test_strided_bits_match_per_tap_products(self, stride, padding, batch, rng):
        # the reference runs one GEMM per tap on the strided window where it
        # lies; the gathered windows must give the same bytes, and dx must
        # still scatter through the slices of the padded input
        x = rng.normal(size=(batch, 24, 97)).astype(np.float32)
        w = rng.normal(size=(8, 24, 3)).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        t_out = (xp.shape[-1] - 3) // stride + 1
        wins = [slice(j, j + stride * (t_out - 1) + 1, stride) for j in range(3)]
        ref = np.zeros((batch, 8, t_out), dtype=np.float32)
        for j, win in enumerate(wins):
            ref += np.matmul(w[..., j], xp[..., win])
        ref += b.reshape(1, -1, 1)
        g = rng.normal(size=ref.shape).astype(np.float32)
        dw = np.stack([np.matmul(g, xp[..., win].transpose(0, 2, 1)).sum(0) for win in wins], axis=-1)
        dxp = np.zeros_like(xp)
        for j, win in enumerate(wins):
            dxp[..., win] += np.matmul(w[..., j].T, g)
        dx = dxp[..., padding : padding + x.shape[-1]]

        xt, wt, bt = (ad.tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = conv1d(xt, wt, bt, stride=stride, padding=padding)
        out._backward(g)
        for got, want in ((out.data, ref), (wt.grad, dw), (bt.grad, g.sum(axis=(0, 2))), (xt.grad, dx)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_gathered_windows_die_with_the_graph(self, rng):
        # no training step or eval batch may carry the windows into the next
        x = ad.tensor(rng.normal(size=(4, 216, 600)).astype(np.float32))
        w = ad.tensor(rng.normal(size=(16, 216, 3)).astype(np.float32), requires_grad=True)
        b = ad.tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
        held = 3 * 4 * 216 * 150 * 4  # taps * B * C_in * T_out * itemsize at stride 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv1d(x, w, b, stride=4)
            assert out.data.shape[-1] == 150
            ad.backward(ad.sum_(out))
            del out
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before <= 0.05 * held

    # the shape checks are shared by both ranks; each error names its op
    @pytest.mark.parametrize("op, rank", [(conv1d, 1), (conv2d, 2)], ids=["conv1d", "conv2d"])
    def test_kernel_longer_than_input_rejected(self, op, rank):
        # only the first spatial axis is shorter than the kernel
        x = np.zeros((1, 2, 2) + (8,) * (rank - 1))
        with pytest.raises(ShapeError, match=op.__name__):
            op(ad.tensor(x), ad.tensor(np.zeros((1, 2) + (3,) * rank)), ad.tensor(np.zeros(1)))

    @pytest.mark.parametrize("op, rank", [(conv1d, 1), (conv2d, 2)], ids=["conv1d", "conv2d"])
    def test_channel_mismatch_rejected(self, op, rank):
        with pytest.raises(ShapeError, match=op.__name__):
            op(ad.tensor(np.zeros((1, 2) + (8,) * rank)), ad.tensor(np.zeros((1, 3) + (3,) * rank)), ad.tensor(np.zeros(1)))
        # an input without the batch axis is refused, even with matching channels
        with pytest.raises(ShapeError, match=op.__name__):
            op(ad.tensor(np.zeros((2,) + (8,) * rank)), ad.tensor(np.zeros((1, 2) + (3,) * rank)), ad.tensor(np.zeros(1)))


class TestConv2d:
    def test_forward_matches_bruteforce(self, rng):
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out = conv2d(ad.tensor(x), ad.tensor(w), ad.tensor(b), stride=(2, 1), padding=(1, 1))
        np.testing.assert_allclose(out.data, brute_conv2d(x, w, b, (2, 1), (1, 1)), atol=1e-12)

    def test_height_consuming_kernel(self, rng):
        # a kernel as tall as the input leaves a height-1 output
        x = rng.normal(size=(2, 3, 72, 10))
        w = rng.normal(size=(5, 3, 72, 3))
        b = np.zeros(5)
        out = conv2d(ad.tensor(x), ad.tensor(w), ad.tensor(b))
        assert out.data.shape == (2, 5, 1, 8)

    def test_grads_match_fd(self, rng):
        x = rng.normal(size=(2, 2, 5, 6))
        w = rng.normal(size=(3, 2, 2, 3))
        b = rng.normal(size=(3,))
        xt, wt, bt = (ad.tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        ad.backward(ad.sum_(ad.sigmoid(conv2d(xt, wt, bt, stride=(1, 2), padding=(1, 0)))))
        num = fd_gradients(lambda a, ww, bb: sigmoid(brute_conv2d(a, ww, bb, (1, 2), (1, 0))).sum(), [x, w, b])
        assert rel_err(xt.grad, num[0]) < TOL
        assert rel_err(wt.grad, num[1]) < TOL
        assert rel_err(bt.grad, num[2]) < TOL

    def test_full_height_kernel_grads_match_fd(self, rng):
        x = rng.normal(size=(2, 3, 5, 9))
        w = rng.normal(size=(4, 3, 5, 3))
        b = rng.normal(size=(4,))
        xt, wt, bt = (ad.tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = conv2d(xt, wt, bt, stride=(1, 2))
        np.testing.assert_allclose(out.data, brute_conv2d(x, w, b, (1, 2), (0, 0)), atol=1e-12)
        ad.backward(ad.sum_(ad.sigmoid(out)))
        num = fd_gradients(lambda a, ww, bb: sigmoid(brute_conv2d(a, ww, bb, (1, 2), (0, 0))).sum(), [x, w, b])
        assert rel_err(xt.grad, num[0]) < TOL
        assert rel_err(wt.grad, num[1]) < TOL
        assert rel_err(bt.grad, num[2]) < TOL

    @pytest.mark.parametrize("kernel,padding", [((5, 3), (0, 0)), ((3, 3), (1, 1))], ids=["full_height", "padded"])
    def test_input_without_grad_gets_none(self, rng, kernel, padding):
        # model inputs are data: their gradient is never formed
        x = ad.tensor(rng.normal(size=(2, 3, 5, 9)))
        w = ad.tensor(rng.normal(size=(4, 3) + kernel), requires_grad=True)
        b = ad.tensor(np.zeros(4), requires_grad=True)
        ad.backward(ad.sum_(conv2d(x, w, b, stride=(1, 2), padding=padding)))
        assert x.grad is None
        assert w.grad is not None


class TestPooling:
    def test_max_pool_forward(self):
        x = np.array([[[1.0, 5.0, 2.0, 2.0, 7.0]]])
        out = max_pool1d(ad.tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[5.0, 2.0]]])  # trailing odd element dropped

    def test_max_pool_grad_routes_to_argmax(self):
        x = ad.tensor(np.array([[[1.0, 5.0, 2.0, 2.0]]]), requires_grad=True)
        ad.backward(ad.sum_(max_pool1d(x, 2)))
        # tie in the second window goes to the first position
        np.testing.assert_allclose(x.grad, [[[0.0, 1.0, 1.0, 0.0]]])

    def test_max_pool_grad_fd(self, rng):
        for pool in (2, 3):  # pool 3 runs the window loop past its first step
            x = rng.normal(size=(2, 3, 11))
            xt = ad.tensor(x.copy(), requires_grad=True)
            ad.backward(ad.sum_(ad.sigmoid(max_pool1d(xt, pool))))
            t_out = 11 // pool
            (num,) = fd_gradients(
                lambda a: sigmoid(a[:, :, : t_out * pool].reshape(2, 3, t_out, pool).max(axis=-1)).sum(), [x]
            )
            assert rel_err(xt.grad, num) < TOL, pool

    @pytest.mark.parametrize("pool", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("T", [11, 17])
    def test_max_pool_matches_argmax_reference_bit_for_bit(self, rng, pool, T):
        # integer values in 0..2 tie often; signed zeros tie with different bits
        x = rng.integers(0, 3, size=(3, 4, T)).astype(np.float32)
        x[x == 0] *= np.where(rng.random(np.count_nonzero(x == 0)) < 0.5, -1, 1).astype(np.float32)
        g = rng.normal(size=(3, 4, T // pool)).astype(np.float32)
        xr = x[:, :, : T // pool * pool].reshape(3, 4, T // pool, pool)
        ref_idx = xr.argmax(axis=-1)[..., None]
        ref_out = np.take_along_axis(xr, ref_idx, axis=-1).squeeze(-1)
        ref_dx = np.zeros_like(x)
        np.put_along_axis(ref_dx[:, :, : T // pool * pool].reshape(xr.shape), ref_idx, g[..., None], axis=-1)

        xt = ad.tensor(x.copy(), requires_grad=True)
        out = max_pool1d(xt, pool)
        ad.backward(ad.sum_(ad.mul(out, ad.tensor(g))))
        assert out.data.tobytes() == ref_out.tobytes()
        assert xt.grad.tobytes() == ref_dx.tobytes()

    def test_max_pool_index_is_int8(self):
        x = ad.tensor(np.arange(12.0).reshape(1, 2, 6), requires_grad=True)
        out = max_pool1d(x, 3)
        # the backward closure holds the window index and no other array
        (idx,) = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert idx.dtype == np.int8
        np.testing.assert_array_equal(idx, 2)

    def test_max_pool_window_with_nan_outputs_nan(self):
        x = np.array([[[1.0, np.nan, np.nan, 2.0, 3.0, 4.0]]])
        out = max_pool1d(ad.tensor(x), 2).data
        assert np.isnan(out[0, 0, :2]).all()
        assert out[0, 0, 2] == 4.0

    def test_pool_beyond_the_int8_index_rejected(self):
        with pytest.raises(ConfigError):
            max_pool1d(ad.tensor(np.zeros((1, 1, 200))), 128)

    def test_pool_longer_than_input_rejected(self):
        with pytest.raises(ShapeError):
            max_pool1d(ad.tensor(np.zeros((1, 1, 3))), 4)
        with pytest.raises(ShapeError):
            max_pool1d(ad.tensor(np.zeros((1, 8))), 2)  # no batch axis


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        bn = BatchNorm(3, dtype=np.float64)
        x = rng.normal(loc=2.0, scale=4.0, size=(8, 3, 5))
        out = bn(ad.tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=(0, 2)), np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=(0, 2)), np.ones(3), atol=1e-3)

    def test_running_stats_update(self, rng):
        bn = BatchNorm(2, dtype=np.float64)
        x = rng.normal(loc=1.0, size=(16, 2))
        bn(ad.tensor(x))
        expect_mean = 0.1 * x.mean(axis=0)
        np.testing.assert_allclose(bn.running_mean.data, expect_mean, atol=1e-12)
        expect_var = 0.9 * 1.0 + 0.1 * x.var(axis=0)
        np.testing.assert_allclose(bn.running_var.data, expect_var, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_running_stats_are_gradient_free_tensors_in_the_module_dtype(self, dtype):
        bn = BatchNorm(4) if dtype is np.float32 else BatchNorm(4, dtype=dtype)
        for name in ("running_mean", "running_var"):
            stat = getattr(bn, name)
            assert isinstance(stat, ad.Tensor) and not stat.requires_grad
            assert stat.data.dtype == dtype and stat.data.shape == (4,)
            assert bn.state()[name] is stat.data
        assert [n for n, _ in bn.named_parameters()] == ["gamma", "beta"]
        assert list(bn.state()) == ["gamma", "beta", "running_mean", "running_var"]

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm(2, dtype=np.float64)
        for _ in range(200):
            bn(ad.tensor(rng.normal(loc=3.0, scale=2.0, size=(32, 2))))
        bn.eval()
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 2))
        out = bn(ad.tensor(x))
        expect = (x - bn.running_mean.data) / np.sqrt(bn.running_var.data + layers._BN_EPS)
        np.testing.assert_allclose(out.data, expect, atol=1e-10)

    def test_training_grads_match_fd(self, rng):
        x = rng.normal(size=(5, 2, 3))
        gamma = rng.normal(size=(2,))
        beta = rng.normal(size=(2,))

        def f(a, g, b):
            mu = a.mean(axis=(0, 2), keepdims=True)
            var = a.var(axis=(0, 2), keepdims=True)
            xhat = (a - mu) / np.sqrt(var + 1e-5)
            return sigmoid(g[None, :, None] * xhat + b[None, :, None]).sum()

        xt = ad.tensor(x.copy(), requires_grad=True)
        gt = ad.tensor(gamma.copy(), requires_grad=True)
        bt = ad.tensor(beta.copy(), requires_grad=True)
        out = batch_norm(xt, gt, bt, np.zeros(2), np.ones(2), training=True)
        ad.backward(ad.sum_(ad.sigmoid(out)))
        num = fd_gradients(f, [x, gamma, beta])
        assert rel_err(xt.grad, num[0]) < TOL
        assert rel_err(gt.grad, num[1]) < TOL
        assert rel_err(bt.grad, num[2]) < TOL


def unrolled_lstm_two_steps(x, w, u, b):
    """Hand-unrolled 2-step single-direction LSTM, gate order i,f,g,o."""

    H = u.shape[0]
    h = np.zeros(H)
    c = np.zeros(H)
    hs = []
    for t in range(x.shape[0]):
        z = x[t] @ w + h @ u + b
        i, f, g, o = z[:H], z[H : 2 * H], z[2 * H : 3 * H], z[3 * H :]
        c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
        h = sigmoid(o) * np.tanh(c)
        hs.append(h.copy())
    return np.stack(hs)


def reference_bilstm(x, wf, uf, bf, wb, ub, bb, g):
    """Step-by-step BiLSTM forward and backward: per-step GEMMs, no flushing.

    x: [B, T, D]; g: upstream gradient of the summary [B, 2H], entering
    the forward direction at its last step and the backward direction at
    step 0. Returns the per-step states [B, T, 2H] and the gradients of
    x, wf, uf, bf, wb, ub, bb.
    """

    B, T, _ = x.shape
    H = uf.shape[0]

    def run_dir(w, u, b, reverse):
        hs = np.zeros((B, T, H), dtype=x.dtype)
        cache = []
        h = np.zeros((B, H), dtype=x.dtype)
        c = np.zeros((B, H), dtype=x.dtype)
        for t in range(T - 1, -1, -1) if reverse else range(T):
            z = x[:, t] @ w + h @ u + b
            zi, zf, zg, zo = np.split(z, 4, axis=1)
            i_g, f_g, g_g, o_g = sigmoid(zi), sigmoid(zf), np.tanh(zg), sigmoid(zo)
            c_prev, h_prev = c, h
            c = f_g * c_prev + i_g * g_g
            hc = np.tanh(c)
            h = o_g * hc
            hs[:, t] = h
            cache.append((t, i_g, f_g, g_g, o_g, c_prev, hc, h_prev))
        return hs, cache

    def run_dir_bwd(w, u, cache, gh):
        dw, du, db = np.zeros_like(w), np.zeros_like(u), np.zeros(4 * H, dtype=x.dtype)
        dx = np.zeros_like(x)
        dh = gh.copy()
        dc = np.zeros((B, H), dtype=x.dtype)
        for t, i_g, f_g, g_g, o_g, c_prev, hc, h_prev in reversed(cache):
            do = dh * hc
            dc = dc + dh * o_g * (1.0 - hc * hc)
            dz = np.concatenate(
                [
                    dc * g_g * i_g * (1.0 - i_g),
                    dc * c_prev * f_g * (1.0 - f_g),
                    dc * i_g * (1.0 - g_g * g_g),
                    do * o_g * (1.0 - o_g),
                ],
                axis=1,
            )
            dw += x[:, t].T @ dz
            du += h_prev.T @ dz
            db += dz.sum(axis=0)
            dx[:, t] += dz @ w.T
            dh = dz @ u.T
            dc = dc * f_g
        return dx, dw, du, db

    hs_f, cache_f = run_dir(wf, uf, bf, reverse=False)
    hs_b, cache_b = run_dir(wb, ub, bb, reverse=True)
    dx_f, dwf, duf, dbf = run_dir_bwd(wf, uf, cache_f, g[:, :H])
    dx_b, dwb, dub, dbb = run_dir_bwd(wb, ub, cache_b, g[:, H:])
    return np.concatenate([hs_f, hs_b], axis=2), [dx_f + dx_b, dwf, duf, dbf, dwb, dub, dbb]


def summary_of(states):
    """[B, T, 2H] per-step states -> [B, 2H]: last forward step, first backward step."""
    H = states.shape[2] // 2
    return np.concatenate([states[:, -1, :H], states[:, 0, H:]], axis=1)


def stacked(arrays):
    """x, wf, uf, bf, wb, ub, bb as bilstm's operands x, w, u, b, each parameter stacked [forward, backward]."""
    x, *per_direction = arrays
    return [x] + [np.stack([per_direction[k], per_direction[k + 3]]) for k in range(3)]


def unstacked(grads):
    """The gradients of bilstm's operands x, w, u, b as those of x, wf, uf, bf, wb, ub, bb."""
    x, w, u, b = grads
    return [x, w[0], u[0], b[0], w[1], u[1], b[1]]


def stacked_tensors(arrays):
    return [ad.tensor(a.copy(), requires_grad=True) for a in stacked(arrays)]


def run_bilstm(arrays, g):
    """bilstm output and the gradients of x, wf, uf, bf, wb, ub, bb under upstream g."""
    tensors = stacked_tensors(arrays)
    out = bilstm(*tensors)
    ad.backward(ad.sum_(ad.mul(out, ad.tensor(g))))
    return out.data, unstacked([t.grad for t in tensors])


def lstm_arrays(rng, B, T, D, H, dtype, scale=0.5):
    shapes = [(B, T, D), (D, 4 * H), (H, 4 * H), (4 * H,), (D, 4 * H), (H, 4 * H), (4 * H,)]
    return [(rng.normal(size=s) * scale).astype(dtype) for s in shapes]


def step_bilstm(x, wf, uf, bf, wb, ub, bb, g):
    """BiLSTM output and gradients by the per-step formula that ``bilstm``'s bits are pinned to.

    One loop steps both directions on the strided gate slabs: each product
    in its own order (``dc * g * i * (1 - i)`` left to right), ``dz``
    flushed before the recurrent GEMM, ``dh`` and ``dc`` after ``dc *= f``,
    and each direction's reach counted until its ``dh`` and ``dc`` are all
    zero. The gradient GEMMs then run over each direction's reach in time
    order, and every gradient is added to zeros as ``autodiff`` accumulates.
    """

    def flush(a, floor):
        a[np.abs(a) < floor] = 0.0

    B, T, D = x.shape
    H = uf.shape[0]
    dtype = x.dtype
    xt = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * B, D)
    xr = np.ascontiguousarray(x[:, ::-1].transpose(1, 0, 2)).reshape(T * B, D)
    scale = np.full(4 * H, 0.5, dtype=dtype)
    scale[2 * H : 3 * H] = 1.0
    shift = 1.0 - scale
    gates = np.empty((2, T, B, 4 * H), dtype=dtype)
    for d, (rows, w, b) in enumerate(((xt, wf, bf), (xr, wb, bb))):
        np.matmul(rows, w, out=gates[d].reshape(T * B, 4 * H))
        gates[d] += b
    u = np.stack([uf, ub])
    h = np.zeros((2, B, H), dtype=dtype)
    hc = np.empty((2, B, H), dtype=dtype)
    cs = np.zeros((T + 1, 2, B, H), dtype=dtype)
    for s in range(T):
        z = np.matmul(h, u)
        z += gates[:, s]
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        gates[:, s] = z
        np.multiply(z[..., H : 2 * H], cs[s], out=cs[s + 1])
        cs[s + 1] += z[..., :H] * z[..., 2 * H : 3 * H]
        np.tanh(cs[s + 1], out=hc)
        np.multiply(z[..., 3 * H :], hc, out=h)
    out = np.concatenate([h[0], h[1]], axis=1)

    floor = np.sqrt(np.finfo(dtype).tiny)
    i_s, f_s, g_s, o_s = (gates[..., k * H : (k + 1) * H] for k in range(4))
    u_t = np.ascontiguousarray(u.transpose(0, 2, 1))
    dzs = np.empty((2, T, B, 4 * H), dtype=dtype)
    hs = np.empty((T, 2, B, H), dtype=dtype)
    dz = np.empty((2, B, 4 * H), dtype=dtype)
    dhc = np.zeros((2, 2, B, H), dtype=dtype)
    dh, dc = dhc
    dh[0], dh[1] = g[:, :H], g[:, H:]
    flush(dhc, floor)
    reach = [0, 0]
    tc = np.tanh(cs[T])
    for s in range(T - 1, -1, -1):
        live = dhc.any(axis=(0, 2, 3)).tolist()
        if not any(live):
            break
        reach[0] += live[0]
        reach[1] += live[1]
        i_g, f_g, g_g, o_g = i_s[:, s], f_s[:, s], g_s[:, s], o_s[:, s]
        hc, tc = tc, np.tanh(cs[s])
        np.multiply(o_s[:, s - 1], tc, out=hs[s])
        dc += dh * o_g * (1.0 - hc * hc)
        dz[..., :H] = dc * g_g * i_g * (1.0 - i_g)
        dz[..., H : 2 * H] = dc * cs[s] * f_g * (1.0 - f_g)
        dz[..., 2 * H : 3 * H] = dc * i_g * (1.0 - g_g * g_g)
        dz[..., 3 * H :] = dh * hc * o_g * (1.0 - o_g)
        flush(dz, floor)
        dzs[0, s], dzs[1, T - 1 - s] = dz
        np.matmul(dz, u_t, out=dh)
        dc *= f_g
        flush(dhc, floor)
    grads = [np.zeros_like(a) for a in (x, wf, uf, bf, wb, ub, bb)]
    dx = np.zeros((T * B, D), dtype=dtype)
    for d, (w, k) in enumerate(((wf, 1), (wb, 4))):
        n = reach[d]
        steps = slice(0, n) if d else slice(T - n, T)
        dz2 = dzs[d, steps].reshape(n * B, 4 * H)
        h_prev = np.ascontiguousarray(hs[T - n : T, d][:: -1 if d else 1]).reshape(n * B, H)
        rows = slice(steps.start * B, steps.stop * B)
        grads[k] += xt[rows].T @ dz2
        grads[k + 1] += h_prev.T @ dz2
        grads[k + 2] += dz2.sum(axis=0)
        dx[rows] += dz2 @ w.T
    flush(dx, np.finfo(dtype).tiny)
    grads[0] += dx.reshape(T, B, D).transpose(1, 0, 2)
    return out, grads


class TestBiLSTM:
    def test_forward_matches_unrolled_oracle(self, rng):
        D, H, T = 3, 2, 2
        x = rng.normal(size=(T, D))
        params = {k: rng.normal(size=s) for k, s in
                  [("wf", (D, 4 * H)), ("uf", (H, 4 * H)), ("bf", (4 * H,)),
                   ("wb", (D, 4 * H)), ("ub", (H, 4 * H)), ("bb", (4 * H,))]}
        out = bilstm(*map(ad.tensor, stacked([x[None]] + [params[k] for k in ("wf", "uf", "bf", "wb", "ub", "bb")])))
        fwd = unrolled_lstm_two_steps(x, params["wf"], params["uf"], params["bf"])
        bwd = unrolled_lstm_two_steps(x[::-1], params["wb"], params["ub"], params["bb"])[::-1]
        assert out.data.shape == (1, 2 * H)
        np.testing.assert_allclose(out.data[0, :H], fwd[-1], atol=1e-12)
        np.testing.assert_allclose(out.data[0, H:], bwd[0], atol=1e-12)

    def test_single_step_directions_agree_with_shared_weights(self, rng):
        # at T=1 both directions see the same single input
        lstm = BiLSTM(4, 3, rng=rng, dtype=np.float64)
        for p in (lstm.w, lstm.u, lstm.b):
            p.data[1] = p.data[0]
        out = lstm(ad.tensor(rng.normal(size=(2, 1, 4))))
        np.testing.assert_allclose(out.data[:, :3], out.data[:, 3:], atol=1e-12)

    def test_grads_match_fd(self, rng):
        D, H, T, B = 2, 2, 3, 2
        x = rng.normal(size=(B, T, D)) * 0.5
        arrays = [x] + [rng.normal(size=s) * 0.5 for s in
                        [(D, 4 * H), (H, 4 * H), (4 * H,), (D, 4 * H), (H, 4 * H), (4 * H,)]]

        def f(xv, wf, uf, bf, wb, ub, bb):
            total = 0.0
            for bi in range(B):
                fwd = unrolled_lstm_two_steps(xv[bi], wf, uf, bf)
                bwd = unrolled_lstm_two_steps(xv[bi][::-1], wb, ub, bb)[::-1]
                total += sigmoid(np.concatenate([fwd[-1], bwd[0]])).sum()
            return total

        tensors = stacked_tensors(arrays)
        ad.backward(ad.sum_(ad.sigmoid(bilstm(*tensors))))
        num = fd_gradients(f, arrays)
        for got, n in zip(unstacked([t.grad for t in tensors]), num):
            assert rel_err(got, n) < TOL

    def test_matches_step_reference_float64(self, rng):
        arrays = lstm_arrays(rng, B=2, T=7, D=3, H=4, dtype=np.float64)
        g = rng.normal(size=(2, 8))
        out, grads = run_bilstm(arrays, g)
        ref_states, ref_grads = reference_bilstm(*arrays, g)
        np.testing.assert_allclose(out, summary_of(ref_states), rtol=0, atol=1e-12)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_step_reference_float32(self, rng):
        arrays = lstm_arrays(rng, B=16, T=64, D=8, H=16, dtype=np.float32)
        g = rng.normal(size=(16, 32)).astype(np.float32)
        out, grads = run_bilstm(arrays, g)
        ref_states, ref_grads = reference_bilstm(*[a.astype(np.float64) for a in arrays], g.astype(np.float64))
        assert rel_err(out, summary_of(ref_states)) <= 1e-5
        for got, want in zip(grads, ref_grads):
            assert got.dtype == np.float32
            assert rel_err(got, want) <= 1e-5

    def test_long_sequence_float32_matches_float64_reference(self, rng):
        # the summary gradient dies out long before T=1500: the sqrt(tiny)
        # floor and the early exit must not move any gradient past 1e-5
        B, T = 2, 1500
        arrays = lstm_arrays(rng, B=B, T=T, D=8, H=16, dtype=np.float32)
        g = rng.normal(size=(B, 32)).astype(np.float32)
        out, grads = run_bilstm(arrays, g)
        ref_states, ref_grads = reference_bilstm(*[a.astype(np.float64) for a in arrays], g.astype(np.float64))
        assert rel_err(out, summary_of(ref_states)) <= 1e-5
        for got, want in zip(grads, ref_grads):
            assert got.dtype == np.float32
            assert rel_err(got, want) <= 1e-5
        # neither direction's backward reached the middle of the sequence
        assert not np.any(grads[0][:, T // 2])

    def test_zero_upstream_gradient_gives_zero_gradients(self, rng):
        arrays = lstm_arrays(rng, B=2, T=9, D=3, H=4, dtype=np.float32)
        _, grads = run_bilstm(arrays, np.zeros((2, 8), dtype=np.float32))
        for got, a in zip(grads, arrays):
            assert got.shape == a.shape
            assert not np.any(got)

    def test_summary_gradient_leaves_no_subnormals(self, rng):
        # the summary gradient decays through the recurrence; unflushed,
        # float32 reaches subnormals long before T=1500
        B, T, H = 2, 1500, 16
        arrays = lstm_arrays(rng, B=B, T=T, D=8, H=H, dtype=np.float32)
        g = np.ones((B, 2 * H), dtype=np.float32)
        _, grads = run_bilstm(arrays, g)
        dx = grads[0]
        assert np.all(np.isfinite(dx)) and np.any(dx != 0)
        assert not np.any((dx != 0) & (np.abs(dx) < np.finfo(np.float32).tiny))

    @pytest.mark.parametrize("replaced", ["forward", "backward"])
    def test_directions_independent_bit_for_bit(self, rng, replaced):
        # both directions step in one loop; neither may see the other's weights
        # or reach (the replaced direction's larger weights carry its gradient
        # through all 600 steps, the kept one's stops after about 200)
        B, T, H = 2, 600, 16
        arrays = lstm_arrays(rng, B=B, T=T, D=8, H=H, dtype=np.float32)
        g = rng.normal(size=(B, 2 * H)).astype(np.float32)
        other = list(arrays)
        swapped = range(1, 4) if replaced == "forward" else range(4, 7)
        for i in swapped:
            other[i] = (rng.normal(size=arrays[i].shape) * 2.0).astype(np.float32)
        out, grads = run_bilstm(arrays, g)
        out2, grads2 = run_bilstm(other, g)
        kept = slice(H, None) if replaced == "forward" else slice(None, H)
        assert np.array_equal(out[:, kept], out2[:, kept])
        for i in range(4, 7) if replaced == "forward" else range(1, 4):
            assert np.array_equal(grads[i], grads2[i])

    @pytest.mark.parametrize("dead", [0, 1])
    def test_zero_upstream_on_one_direction_gives_it_zero_gradients(self, rng, dead):
        B, H = 2, 4
        arrays = lstm_arrays(rng, B=B, T=9, D=3, H=H, dtype=np.float32)
        g = rng.normal(size=(B, 2 * H)).astype(np.float32)
        g[:, dead * H : (dead + 1) * H] = 0.0
        _, grads = run_bilstm(arrays, g)
        _, ref_grads = reference_bilstm(*[a.astype(np.float64) for a in arrays], g.astype(np.float64))
        own = range(1, 4) if dead == 0 else range(4, 7)
        for i in range(1, 7):
            assert grads[i].shape == arrays[i].shape
            if i in own:
                assert not np.any(grads[i])
            else:
                assert np.any(grads[i]) and rel_err(grads[i], ref_grads[i]) <= 1e-5
        assert rel_err(grads[0], ref_grads[0]) <= 1e-5

    def test_directions_stop_at_different_steps(self, rng):
        # the forward direction's gradient starts 1e-12 smaller, reaches the
        # flush floor first, and stops long before the backward one
        B, T, H = 2, 600, 16
        arrays = lstm_arrays(rng, B=B, T=T, D=8, H=H, dtype=np.float32)
        g = rng.normal(size=(B, 2 * H)).astype(np.float32)
        g[:, :H] *= np.float32(1e-12)
        out, grads = run_bilstm(arrays, g)
        ref_states, ref_grads = reference_bilstm(*[a.astype(np.float64) for a in arrays], g.astype(np.float64))
        assert rel_err(out, summary_of(ref_states)) <= 1e-5
        for got, want in zip(grads, ref_grads):
            assert rel_err(got, want) <= 1e-5
        # dx is nonzero where a direction reached: the last steps going
        # forward, the first going back, with a gap between them
        reached = np.any(grads[0], axis=(0, 2))
        n_back, n_fwd = np.argmin(reached), np.argmin(reached[::-1])
        assert not reached.all() and 0 < n_fwd < n_back
        # each direction runs as far as it would alone: its gradients are
        # those of a run where the other direction's upstream gradient is zero
        for half, own in ((slice(H, None), range(1, 4)), (slice(None, H), range(4, 7))):
            g_alone = g.copy()
            g_alone[:, half] = 0.0
            _, alone = run_bilstm(arrays, g_alone)
            for i in own:
                assert np.array_equal(grads[i], alone[i])

    @pytest.mark.parametrize("g_scale,full_reach", [(1.0, True), (1e-12, False)])
    def test_forward_caches_only_gates_and_cell_states(self, rng, g_scale, full_reach):
        # h and tanh(c) are not kept per step: backward rebuilds them for the
        # steps it reaches, and must match the reference also when it stops early
        B, T, D, H = 4, 200, 8, 32
        arrays = lstm_arrays(rng, B=B, T=T, D=D, H=H, dtype=np.float32, scale=0.2)
        tensors = stacked_tensors(arrays)
        tracemalloc.start()
        try:
            out = bilstm(*tensors)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        item = np.dtype(np.float32).itemsize
        gates, cs = 2 * T * B * 4 * H * item, (T + 1) * 2 * B * H * item
        # slack: the time-major copy of x that the gradient GEMMs read, the
        # output, and 16 kB of small objects; u is read where it lies
        slack = (T * B * D + B * 2 * H) * item + 16384
        assert held <= gates + cs + slack
        g = (rng.normal(size=(B, 2 * H)) * g_scale).astype(np.float32)
        ad.backward(ad.sum_(ad.mul(out, ad.tensor(g))))
        grads = unstacked([t.grad for t in tensors])
        assert np.all(np.any(grads[0], axis=(0, 2))) == full_reach
        ref_states, ref_grads = reference_bilstm(*[a.astype(np.float64) for a in arrays], g.astype(np.float64))
        assert rel_err(out.data, summary_of(ref_states)) <= 1e-5
        for got, want in zip(grads, ref_grads):
            assert rel_err(got, want) <= 1e-5

    @pytest.mark.parametrize(
        "B,T,D,H,dtype,scale,g_scale",
        [
            (16, 225, 16, 32, np.float32, 0.5, None),  # train_small's visual branch
            (16, 112, 32, 32, np.float32, 0.5, None),  # its audio branch
            (16, 16, 16, 32, np.float32, 0.5, None),  # its text branch
            (16, 400, 16, 128, np.float32, 0.1, None),  # the default width; its gradient dies early
            (4, 300, 8, 16, np.float32, 0.5, 1e-12),  # the forward direction dies first
            (1, 1, 3, 4, np.float32, 0.5, None),
            (8, 37, 5, 32, np.float32, 0.5, None),  # a chunk of 32 steps, then one of 5
            (8, 37, 5, 32, np.float64, 0.5, None),
        ],
    )
    def test_bits_equal_step_formula(self, rng, B, T, D, H, dtype, scale, g_scale):
        arrays = lstm_arrays(rng, B=B, T=T, D=D, H=H, dtype=dtype, scale=scale)
        g = rng.normal(size=(B, 2 * H)).astype(dtype)
        if g_scale is not None:
            g[:, :H] *= dtype(g_scale)
        out, grads = run_bilstm(arrays, g)
        want_out, want = step_bilstm(*arrays, g)
        assert out.tobytes() == want_out.tobytes()
        for got, ref in zip(grads, want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        reached = np.any(grads[0], axis=(0, 2))
        if H == 128:
            assert not reached.all()
        if g_scale is not None:  # the forward direction stopped first: a gap in the middle
            n_back, n_fwd = np.argmin(reached), np.argmin(reached[::-1])
            assert not reached.all() and 0 < n_fwd < n_back

    def test_backward_scratch_does_not_grow_with_T(self, rng):
        # backward keeps dz and the rebuilt input h of every step it reaches;
        # its other buffers are sized by the chunk of steps it lays out at
        # once, so beyond those two its peak is the same at any T
        B, D, H = 4, 8, 32
        item = np.dtype(np.float32).itemsize
        extra = {}
        for T in (64, 256):
            arrays = lstm_arrays(rng, B=B, T=T, D=D, H=H, dtype=np.float32, scale=0.2)
            tensors = stacked_tensors(arrays)
            g = rng.normal(size=(B, 2 * H)).astype(np.float32)
            loss = ad.sum_(ad.mul(bilstm(*tensors), ad.tensor(g)))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                ad.backward(loss)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert np.all(np.any(tensors[0].grad, axis=(0, 2)))  # both directions reached every step
            dzs, hs = 2 * T * B * 4 * H * item, 2 * T * B * H * item
            extra[T] = peak - dzs - hs
        # the chunk's 12 operand slabs of _CHUNK elements, the weight
        # gradients, the transposed recurrent weights and small objects
        assert extra[64] <= 16 * layers._CHUNK * item
        assert extra[256] - extra[64] <= 16384

    @pytest.mark.parametrize("B,T", [(3, 1), (1, 6), (1, 1)])
    def test_single_step_and_single_clip(self, rng, B, T):
        arrays = lstm_arrays(rng, B=B, T=T, D=3, H=4, dtype=np.float64)
        g = rng.normal(size=(B, 8))
        out, grads = run_bilstm(arrays, g)
        ref_states, ref_grads = reference_bilstm(*arrays, g)
        np.testing.assert_allclose(out, summary_of(ref_states), rtol=0, atol=1e-12)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_forget_gate_bias_init(self, rng):
        lstm = BiLSTM(4, 3, rng=rng)
        np.testing.assert_allclose(lstm.b.data[:, 3:6], np.ones((2, 3)))

    def test_summary_takes_last_step_per_direction(self, rng):
        arrays = lstm_arrays(rng, B=2, T=5, D=3, H=2, dtype=np.float64)
        out, _ = run_bilstm(arrays, np.zeros((2, 4)))
        ref_states, _ = reference_bilstm(*arrays, np.zeros((2, 4)))
        np.testing.assert_allclose(out[:, :2], ref_states[:, -1, :2], atol=1e-12)
        np.testing.assert_allclose(out[:, 2:], ref_states[:, 0, 2:], atol=1e-12)



def on_thread(fn):
    """Start fn() on a daemon thread; returns the thread and a dict that gets 'out' or 'error'."""
    box = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


class TestRecurrenceLock:
    """Below B x H = ``_MIN_RECURRENCE_OVERLAP`` a bilstm's step loops run under ``layers._recurrence``."""

    H = 8

    def arrays(self, rng, below):
        B = layers._MIN_RECURRENCE_OVERLAP // self.H - below
        return lstm_arrays(rng, B=B, T=4, D=3, H=self.H, dtype=np.float32), rng.normal(size=(B, 2 * self.H))

    @staticmethod
    def assert_bytes_equal(got, want):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_forward_below_the_bound_waits_for_the_lock(self, rng):
        arrays, _ = self.arrays(rng, below=1)
        with layers._recurrence:
            thread, box = on_thread(lambda: bilstm(*stacked_tensors(arrays)))
            thread.join(0.2)
            assert thread.is_alive()
        thread.join(30)
        assert not thread.is_alive() and "error" not in box
        self.assert_bytes_equal([box["out"].data], [bilstm(*stacked_tensors(arrays)).data])

    def test_backward_below_the_bound_waits_for_the_lock(self, rng):
        arrays, g = self.arrays(rng, below=1)
        tensors = stacked_tensors(arrays)
        loss = ad.sum_(ad.mul(bilstm(*tensors), ad.tensor(g)))
        with layers._recurrence:
            thread, box = on_thread(lambda: ad.backward(loss))
            thread.join(0.2)
            assert thread.is_alive()
        thread.join(30)
        assert not thread.is_alive() and "error" not in box
        self.assert_bytes_equal(unstacked([t.grad for t in tensors]), run_bilstm(arrays, g)[1])

    def test_at_the_bound_forward_and_backward_run_while_the_lock_is_held(self, rng):
        arrays, g = self.arrays(rng, below=0)
        with layers._recurrence:
            thread, box = on_thread(lambda: run_bilstm(arrays, g))
            thread.join(30)
            assert not thread.is_alive() and "error" not in box
        out, grads = box["out"]
        want_out, want_grads = run_bilstm(arrays, g)
        self.assert_bytes_equal([out, *grads], [want_out, *want_grads])

    def test_error_in_the_backward_step_loop_frees_the_lock(self, rng, monkeypatch):
        arrays, g = self.arrays(rng, below=1)
        tensors = stacked_tensors(arrays)
        loss = ad.sum_(ad.mul(bilstm(*tensors), ad.tensor(g)))
        flush = layers._flush

        def failing_flush(*args):
            if layers._recurrence.locked():  # inside the step loop
                raise RuntimeError("flush failed")
            return flush(*args)

        monkeypatch.setattr(layers, "_flush", failing_flush)
        with pytest.raises(RuntimeError, match="flush failed"):
            ad.backward(loss)
        assert not layers._recurrence.locked()


def test_flush_writes_positive_zero_below_floor_and_keeps_floor_and_nan():
    floor = np.float32(1e-3)
    values = [5e-4, -5e-4, -0.0, 1e-3, -1e-3, np.nan, -np.inf, 2.0, -1e-30]
    want = np.array([0.0, 0.0, 0.0, 1e-3, -1e-3, np.nan, -np.inf, 2.0, 0.0], dtype=np.float32)
    for buffers in ((), (np.empty(9, np.float32), np.empty(9, bool))):
        a = np.array(values, dtype=np.float32)
        small = layers._flush(a, floor, *buffers)
        # +0.0 whatever the sign: a multiply by a 0/1 mask would leave -0.0
        assert a.view(np.uint32).tolist() == want.view(np.uint32).tolist()
        assert small.tolist() == [True, True, True, False, False, False, False, False, True]
        if buffers:
            assert small is buffers[1]


class TestModuleSystem:
    def test_named_parameters_and_state_roundtrip(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv1d(2, 3, 3, rng=rng)
                self.bn = BatchNorm(3)
                self.fc = Linear(3, 4, rng=rng)

        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert "conv.weight" in names and "bn.gamma" in names and "fc.bias" in names
        buf_names = [n for n in net.state() if n not in names]
        assert "bn.running_mean" in buf_names

        state = {k: v.copy() for k, v in net.state().items()}
        other = Net()
        other.load_state(state)
        for (_, p1), (_, p2) in zip(net.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_list_attribute_entries_named_by_index(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.convs = [Conv1d(2, 3, 3, rng=rng), Conv1d(3, 3, 3, rng=rng)]
                self.bns = [BatchNorm(3), BatchNorm(3)]

        net = Net()
        params = [n for n, _ in net.named_parameters()]
        assert params == [
            "convs.0.weight", "convs.0.bias", "convs.1.weight", "convs.1.bias",
            "bns.0.gamma", "bns.0.beta", "bns.1.gamma", "bns.1.beta",
        ]
        assert [n for n in net.state() if n not in params] == [
            "bns.0.running_mean", "bns.0.running_var", "bns.1.running_mean", "bns.1.running_var",
        ]
        net.eval()
        assert not any(m.training for m in net.convs + net.bns)

        net.bns[1].running_mean.data[...] = 5.0
        other = Net()
        other.load_state({k: v.copy() for k, v in net.state().items()})
        for (n1, a1), (n2, a2) in zip(net.state().items(), other.state().items()):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_gradient_free_tensor_leaf_roundtrips_and_is_shape_checked(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 3, rng=rng)
                self.stat = ad.Tensor(np.zeros(3, dtype=np.float32))

        net = Net()
        net.stat.data[...] = [1.0, 2.0, 3.0]
        assert [n for n, _ in net.named_parameters()] == ["fc.weight", "fc.bias"]
        assert list(net.state()) == ["fc.weight", "fc.bias", "stat"]
        other = Net()
        other.load_state({k: v.astype(np.float64) for k, v in net.state().items()})
        assert other.stat.data.dtype == np.float32  # cast to the leaf's own dtype
        np.testing.assert_array_equal(other.stat.data, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(other.fc.weight.data, net.fc.weight.data)
        with pytest.raises(ShapeError, match="'stat'"):
            other.load_state({**net.state(), "stat": np.zeros(4)})

    def test_load_state_missing_key_rejected(self, rng):
        lin = Linear(2, 2, rng=rng)
        with pytest.raises(ShapeError):
            lin.load_state({"weight": lin.weight.data})

    def test_train_eval_propagates(self, rng):
        bn = BatchNorm(2)
        assert bn.training
        bn.eval()
        assert not bn.training

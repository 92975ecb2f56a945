"""Neural layers on top of the autodiff engine.

The ops ``conv1d`` and ``conv2d`` (one shared correlation kernel:
one GEMM per tap in 1-D, on windows gathered once per clip at stride > 1,
and im2col in 2-D), ``max_pool1d``, ``batch_norm``
and ``bilstm`` carry hand-derived backward closures (their loops would be
wasteful as compositions of elementwise graph nodes). All are validated
by finite-difference checks in the test suite.

``bilstm`` follows the cuDNN RNN recipe (Appleyard et al. 2016): time-major
buffers, each direction's input projection of all steps as one GEMM
before the loop, and its two independent directions stepped together in
one loop, forward and backward, so each step is one set of numpy calls
and one batched recurrent GEMM for both. In backward each direction's
stored ``dz`` then feeds one GEMM each for its weight, recurrent and input
gradients. Forward keeps only the activated gates and the cell states;
backward rebuilds h and tanh(c) from them, with the forward's own calls,
for just the chunks of steps it reaches (recompute over storage, Chen et
al. 2016). At the model's widths a backward step costs its count of numpy
calls, and a call on an H-wide slab strided inside the [2, B, 4H] gate
rows costs two to three times one on a contiguous array, so backward lays
each chunk's operands out slab-major and a step runs about fifteen calls
on contiguous arrays, with the bits of the plain per-step formula.
It returns only the [B, 2H] summary the model reads, so each direction's
backward starts from one gradient at its last step, which then decays.
Backward flushes ``dz``, ``dh`` and ``dc`` to zero below the square root
of the dtype's smallest normal number (flush-to-zero, as GPU float32
kernels do): no product inside a GEMM is then subnormal, which would be
many times slower on x86. Once a direction's ``dh`` and ``dc``
are all zero its every later ``dz`` is exactly zero, so its GEMMs cover
only the steps it reached, and the loop stops when both have stopped.

Small recurrences run one at a time. Below B x H =
``_MIN_RECURRENCE_OVERLAP`` a ``bilstm`` runs its forward step loop and
its backward chunk loop under the one process-wide lock ``_recurrence``.
There a step is 12 (forward) to 17 (backward) numpy calls on small
arrays, each of which releases the GIL and takes it back, so two
recurrences on the model's branch lanes would hand the GIL to each other
on almost every call: on lanes ``train_small``'s visual BiLSTM backward
took 32.9 ms against 11.2 ms serially. Under the lock the other lane's
convs, batch norms, pools, input projections and closing GEMMs still
overlap the recurrence. From the bound up the per-step GEMM dominates
and recurrences overlap. Only the schedule changes, never a bit. No fork
can copy the lock held: it is held only inside a step loop, a pass joins
its lanes before it returns, and ``data.map_sessions`` forks outside
passes.

Modules (``Conv1d``, ``Conv2d``, ``BatchNorm``, ``Linear``, ``BiLSTM``)
hold all their state as Tensors in the module's dtype: parameters need a
gradient, batch-norm running stats do not. One walk of the module tree
names them all by dotted path for checkpointing and optimizers; the
modules in a list attribute are named by their index (``convs.0.weight``).
"""

from __future__ import annotations

import contextlib
import itertools
import threading

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accum, _node
from .errors import ConfigError, ShapeError

_BN_MOMENTUM = 0.1  # weight of a batch's statistics in the running ones
_BN_EPS = 1e-5  # added to the variance before its square root
_CHUNK = 16384  # elements per operand slab of the steps a BiLSTM backward chunk lays out at once
# Below this B x H a bilstm runs its step loops under _recurrence (2 x86-64
# CPUs). In process, default convs, one training pass on lanes, lock against
# none, medians of 8 passes in two rounds (IQRs 25-150 ms): 313/284 against
# 362/323 ms at H=32, B=16; 430/362 against 463/487 at H=64, B=16; 323/313
# against 338/390 at H=128, B=8; 426/475 against 489/576 at H=128, B=12;
# but 537/601 against 517/515 at H=128, B=16, and perfbench train_full lost
# 4 of 4 pairs to a lock at every size.
_MIN_RECURRENCE_OVERLAP = 2048
_recurrence = threading.Lock()  # held only inside a step loop

# -- functional ops ----------------------------------------------------


def _conv(x: Tensor, weight: Tensor, bias: Tensor, stride: tuple, padding: tuple, op: str) -> Tensor:
    """Cross-correlation over the trailing ``len(stride)`` axes; the one kernel and shape check of every conv.

    x: [B, C_in, *size]; weight: [C_out, C_in, *kernel]; bias: [C_out];
    errors name ``op``. In 1-D at stride 1, each tap's window goes to
    ``np.matmul`` as it lies (``np.einsum`` would copy it). At stride > 1
    numpy would copy each window for BLAS, in forward and again for
    ``dw``; instead the forward copies each clip's tap windows once, while
    the clip's row is in cache, into a [taps, B, C_in, T_out] buffer that
    its GEMMs read and ``dw`` contracts. Every product keeps its shape and
    order, so the bits are those of the windows where they lie. In 2-D (the
    fusion bank's 3x3 convs on small maps) the windows stack into im2col
    columns [B, C_in*kh*kw, oh*ow] and each contraction is one GEMM. The
    input gradient is computed only when the input needs one.
    """
    xd, wd = x.data, weight.data
    rank = 2 + len(stride)
    if xd.ndim != rank or wd.ndim != rank:
        raise ShapeError(f"{op} expects rank-{rank} input [B,C,...] and weight [O,I,...], got {xd.shape}, {wd.shape}")
    if xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"{op} channel mismatch: input {xd.shape[1]}, weight {wd.shape[1]}")
    size = xd.shape[2:]
    kernel = wd.shape[2:]
    padded = tuple(n + 2 * p for n, p in zip(size, padding))
    if any(n < k for n, k in zip(padded, kernel)):
        raise ShapeError(f"{op} kernel {kernel} larger than padded input {padded}")
    out_size = tuple((n - k) // s + 1 for n, k, s in zip(padded, kernel, stride))
    xp = np.pad(xd, ((0, 0), (0, 0)) + tuple((p, p) for p in padding)) if any(padding) else xd
    # per kernel offset: its weight slice [O, I] and its input window
    taps = [
        ((Ellipsis,) + q, (Ellipsis,) + tuple(slice(a, a + s * (n - 1) + 1, s) for a, s, n in zip(q, stride, out_size)))
        for q in itertools.product(*map(range, kernel))
    ]
    B, I, O = xd.shape[0], xd.shape[1], wd.shape[0]
    if len(stride) == 1:
        out_data = np.zeros((B, O) + out_size, dtype=xd.dtype)
        if stride[0] == 1:
            wins = [xp[win] for _, win in taps]
            for (tap, _), xw in zip(taps, wins):
                out_data += np.matmul(wd[tap], xw)
        else:
            wins = np.empty((len(taps), B, I) + out_size, dtype=xd.dtype)
            for b in range(B):
                for k, (tap, win) in enumerate(taps):
                    wins[k, b] = xp[b][win]
                    out_data[b] += np.matmul(wd[tap], wins[k, b])
    else:
        cols = np.stack([xp[win] for _, win in taps], axis=2).reshape(B, I * len(taps), -1)
        w2 = wd.reshape(O, -1)  # [O, I*kh*kw], offsets in the order of the columns
        out_data = np.matmul(w2, cols).reshape((B, O) + out_size)
    out_data += bias.data.reshape((1, -1) + (1,) * len(size))

    def bwd(g):
        if len(stride) == 1:
            dw = np.stack([np.matmul(g, xw.transpose(0, 2, 1)).sum(axis=0) for xw in wins], axis=-1)
        else:
            g = g.reshape(B, O, -1)
            dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
        _accum(weight, dw.reshape(weight.data.shape))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            if len(stride) == 1:
                for tap, win in taps:
                    dxp[win] += np.matmul(wd[tap].T, g)
            else:
                dcols = np.matmul(w2.T, g).reshape((B, I, len(taps)) + out_size)
                for k, (_, win) in enumerate(taps):
                    dxp[win] += dcols[:, :, k]
            dx = dxp[(Ellipsis,) + tuple(slice(p, p + n) for p, n in zip(padding, size))] if any(padding) else dxp
            _accum(x, dx)
        _accum(bias, g.sum(axis=(0,) + tuple(range(2, g.ndim))))

    return _node(out_data, (x, weight, bias), bwd, op)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation along the last axis. x: [B, C_in, T]; weight: [C_out, C_in, k]; bias: [C_out].

    Output length: (T + 2*padding - k) // stride + 1.
    """
    return _conv(x, weight, bias, (stride,), (padding,), "conv1d")


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
) -> Tensor:
    """2-D cross-correlation. x: [B, C_in, H, W]; weight: [C_out, C_in, kh, kw]; bias: [C_out]."""
    return _conv(x, weight, bias, tuple(stride), tuple(padding), "conv2d")


def max_pool1d(x: Tensor, pool: int) -> Tensor:
    """Non-overlapping window maxima along the last axis (stride = pool). x: [B, C, T]."""
    if not 1 <= pool <= np.iinfo(np.int8).max:  # the window index is int8
        raise ConfigError(f"pool size must be in 1..127, got {pool}")
    if x.data.ndim != 3:
        raise ShapeError(f"max_pool1d expects [B,C,T] input, got {x.data.shape}")
    B, C, T = x.data.shape
    if T < pool:
        raise ShapeError(f"max_pool1d input length {T} shorter than pool {pool}")
    t_out = T // pool
    end = t_out * pool
    # a strict > keeps the first of tied windows, as argmax does; np.maximum
    # returns its second argument on a tie, so out keeps that window's bits
    # (-0.0 against 0.0). A masked write of idx would cost as much as argmax.
    out_data = x.data[..., 0:end:pool].copy()
    idx = np.zeros(out_data.shape, dtype=np.int8)
    for k in range(1, pool):
        window = x.data[..., k:end:pool]
        larger = window > out_data
        np.maximum(window, out_data, out=out_data)
        idx *= ~larger
        idx += larger.view(np.int8) * k

    def bwd(g):
        dx = np.zeros(x.data.shape, dtype=x.data.dtype)
        np.put_along_axis(dx[..., :end].reshape(B, C, t_out, pool), idx[..., None], g[..., None], axis=-1)
        _accum(x, dx)

    return _node(out_data, (x,), bwd, "max_pool1d")


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel normalization; channel axis is 1.

    Training mode normalizes by batch statistics over all non-channel axes
    and updates the running stats in place if ``ad.current.update_stats``;
    eval mode uses the stored stats. Variance is the biased (population)
    estimator throughout.
    """
    if x.data.ndim < 2:
        raise ShapeError(f"batch_norm expects a batch dimension, got shape {x.data.shape}")
    C = x.data.shape[1]
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ShapeError(f"batch_norm parameter shape mismatch for {C} channels")
    reduce_axes = (0,) + tuple(range(2, x.data.ndim))
    bshape = (1, C) + (1,) * (x.data.ndim - 2)

    if training:
        mu = x.data.mean(axis=reduce_axes)
        var = x.data.var(axis=reduce_axes)
        if ad.current.update_stats:
            running_mean *= 1.0 - _BN_MOMENTUM
            running_mean += _BN_MOMENTUM * mu
            running_var *= 1.0 - _BN_MOMENTUM
            running_var += _BN_MOMENTUM * var
    else:
        mu, var = running_mean, running_var

    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = (x.data - mu.reshape(bshape)) * inv.reshape(bshape)
    out_data = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    n = x.data.size // C

    def bwd(g):
        _accum(gamma, (g * xhat).sum(axis=reduce_axes))
        _accum(beta, g.sum(axis=reduce_axes))
        dxhat = g * gamma.data.reshape(bshape)
        if training:
            s1 = dxhat.sum(axis=reduce_axes, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=reduce_axes, keepdims=True)
            _accum(x, (inv.reshape(bshape) / n) * (n * dxhat - s1 - xhat * s2))
        else:
            _accum(x, dxhat * inv.reshape(bshape))

    return _node(out_data, (x, gamma, beta), bwd, "batch_norm")


def _flush(a: np.ndarray, floor: float, mag=None, small=None) -> np.ndarray:
    """Zero, in place, the values of ``a`` whose magnitude is below ``floor``; return where.

    Flushed values become +0.0 whatever their sign, and NaN is kept.
    ``mag`` and ``small``, a float and a bool array shaped like ``a``, take
    the magnitudes and the mask instead of fresh arrays.
    """
    small = np.less(np.abs(a, out=mag), floor, out=small)
    a[small] = 0.0
    return small


def bilstm(x: Tensor, w: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """Bidirectional LSTM over the time axis, summarised as its final states.

    x: [B, T, D]; w: [2, D, 4H]; u: [2, H, 4H]; b: [2, 4H], direction 0
    running forward and direction 1 backward. Gate slab order is input,
    forget, candidate, output. Returns [B, 2H]: the forward state after
    the last step joined to the backward state after step 0 (the last
    step that direction sees).

    Loop step s runs the forward direction at time s and the backward one
    at time T - 1 - s, on arrays stacked [direction, B, .]; the backward
    pass runs the steps in reverse. Forward caches only the activated gates
    [2, T, B, 4H] and the cell states [T + 1, 2, B, H]. A direction's
    reach, the steps it ran before its ``dh`` and ``dc`` were all zero, is
    counted per direction, and each direction's gradient GEMMs run over its
    own reach in time order.

    Backward walks the steps in chunks of ``_CHUNK // (2 B H)``. Per chunk
    it copies the gates into a slab-major buffer whose step j holds g,
    c_prev, i, f, 1 - g*g, o, 1 - i, 1 - f, 1 and 1 - o, each [2, B, H],
    so that slabs 0:3, 2:6 and 6:10 are the three factors of ``dz`` after
    ``dc`` (``dh`` for the o slab). It calls tanh once per cell state, as
    forward did, and forms 1 - tanh(c)^2 and the rebuilt input h = o *
    tanh(c) over the whole chunk. A step is then: ``dc += dh * o * (1 -
    tanh(c)^2)``; ``dz`` = ``[dc, dc, dc, dh] * [g, c_prev, i, tanh c]``,
    times ``[i, f, 1 - g*g, o]``, times ``[1 - i, 1 - f, 1, 1 - o]``;
    flush; copy ``dz`` into both directions' stored rows at once; ``dh =
    dz @ u.T`` from those rows; ``dc *= f``; flush. Why the bits are
    unchanged: a product or difference of two floats is correctly rounded
    wherever and in whatever batch it runs, and multiplying by 1 is
    exact, so only the grouping of products could change a bit, and
    every ``dz`` keeps its left-to-right order (``dc * g * i * (1 - i)``);
    tanh, whose SIMD tails may round by batch size, runs on the forward's
    own [2, B, H] shapes; the GEMMs see the same operands in the same
    layout.

    Below B x H = ``_MIN_RECURRENCE_OVERLAP`` the forward's step loop and
    the backward's chunk loop each hold ``_recurrence``, and release it
    also on error, so only one small recurrence runs at a time: at those
    widths two overlapping ones trade the GIL on almost every call. The
    lock is held only inside a loop, and a pass joins its lanes before it
    returns, so a fork outside passes (``data.map_sessions``) never copies
    it held.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"bilstm expects [B,T,D] input, got {x.data.shape}")
    B, T, D = x.data.shape
    if T < 1:
        raise ShapeError("bilstm needs at least one time step")
    H = u.data.shape[-2]
    for name, p, shape in (("w", w, (2, D, 4 * H)), ("u", u, (2, H, 4 * H)), ("b", b, (2, 4 * H))):
        if p.data.shape != shape:
            raise ShapeError(f"bilstm parameter {name} expected shape {shape}, got {p.data.shape}")

    dtype = x.data.dtype
    xt = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(T * B, D)  # time-major rows
    # sigmoid(z) = 0.5 * (1 + tanh(z / 2)): one tanh activates all four gate
    # slabs, scaled by 0.5 on i, f, o and by 1 on the candidate slab g
    scale = np.full(4 * H, 0.5, dtype=dtype)
    scale[2 * H : 3 * H] = 1.0
    shift = 1.0 - scale

    # gates[d, s] is direction d's input at step s (going back: the time-reversed
    # rows); cs slot s is step s's input cell state, slot 0 the zero initial state
    xr = np.ascontiguousarray(x.data[:, ::-1].transpose(1, 0, 2)).reshape(T * B, D)
    gates = np.empty((2, T, B, 4 * H), dtype=dtype)
    for d, rows in enumerate((xt, xr)):
        np.matmul(rows, w.data[d], out=gates[d].reshape(T * B, 4 * H))
        gates[d] += b.data[d]
    turn = _recurrence if B * H < _MIN_RECURRENCE_OVERLAP else contextlib.nullcontext()  # for both step loops
    h = np.zeros((2, B, H), dtype=dtype)
    hc = np.empty((2, B, H), dtype=dtype)
    cs = np.zeros((T + 1, 2, B, H), dtype=dtype)
    with turn:
        for s in range(T):
            z = np.matmul(h, u.data)
            z += gates[:, s]
            z *= scale
            np.tanh(z, out=z)
            z *= scale
            z += shift
            gates[:, s] = z  # the activated gates, kept for backward
            np.multiply(z[..., H : 2 * H], cs[s], out=cs[s + 1])
            cs[s + 1] += z[..., :H] * z[..., 2 * H : 3 * H]
            np.tanh(cs[s + 1], out=hc)
            np.multiply(z[..., 3 * H :], hc, out=h)
    out_data = np.concatenate([h[0], h[1]], axis=1)

    floor = np.sqrt(np.finfo(dtype).tiny)  # the product of two values above it is normal

    def bwd(g):
        u_t = np.ascontiguousarray(u.data.transpose(0, 2, 1))  # a transposed view makes the GEMM twice as slow
        # dz and each step's input h: direction 0's T steps, then direction 1's,
        # each in time order, so loop step s writes the pair rows s and 2T - 1 - s
        dzs = np.empty((2 * T, B, 4 * H), dtype=dtype)
        hs = np.empty((2 * T, B, H), dtype=dtype)
        # a chunk's operands, slab-major [step, slab, direction, B, H]; per
        # step, slabs 0:3, 2:6 and 6:10 are dz's three factors after dc or dh
        n = min(T, max(_CHUNK // (2 * B * H), 1))
        ops = np.empty((n, 10, 2, B, H), dtype=dtype)  # g, c_prev, i, f, 1-g*g, o, 1-i, 1-f, 1, 1-o
        ops[:, 8] = 1.0
        tcs = np.empty((n + 1, 2, B, H), dtype=dtype)  # tcs[j]: tanh(c) entering chunk step j
        dtanh = np.empty((n, 2, B, H), dtype=dtype)  # 1 - tanh(c)^2 after each step
        dz = np.empty((4, 2, B, H), dtype=dtype)
        dz_c, dz_o = dz[:3], dz[3]  # the slabs whose first factor is dc, and the one of dh
        dz_t = dz.transpose(1, 2, 0, 3)  # dz as [direction, B, 4, H] rows
        tmp = np.empty((2, B, H), dtype=dtype)
        dhc = np.zeros((2, 2, B, H), dtype=dtype)  # dh then dc, each [direction, B, H]
        dh, dc = dhc
        dh[0], dh[1] = g[:, :H], g[:, H:]
        half = dhc[:, 0].size  # a direction's dh and dc
        dz_bufs, dhc_bufs = ((np.empty_like(a), np.empty(a.shape, dtype=bool)) for a in (dz, dhc))
        small = _flush(dhc, floor, *dhc_bufs)
        # a direction whose dh and dc are all zero stays so; its reach is the
        # count of steps it ran before, all T while it lives
        live = [np.count_nonzero(small[:, d]) < half for d in (0, 1)]
        reach = [T if alive else 0 for alive in live]
        mul = np.multiply
        hi = T
        with turn:
            while hi and any(live):
                lo = max(hi - n, 0)
                k = hi - lo
                chunk = gates[:, lo:hi].reshape(2, k, B, 4, H).transpose(1, 3, 0, 2, 4)  # [k, slab, 2, B, H]
                np.copyto(ops[:k, 2:4], chunk[:, :2])
                np.copyto(ops[:k, 0], chunk[:, 2])
                np.copyto(ops[:k, 5], chunk[:, 3])
                np.copyto(ops[:k, 1], cs[lo:hi])
                mul(ops[:k, 0], ops[:k, 0], out=ops[:k, 4])
                np.subtract(1.0, ops[:k, 4], out=ops[:k, 4])
                np.subtract(1.0, ops[:k, 2:4], out=ops[:k, 6:8])
                np.subtract(1.0, ops[:k, 5], out=ops[:k, 9])
                # the forward's tanh call on each step's cell state rebuilds its
                # bits; the exact products around it run over the whole chunk
                for j in range(k + 1):
                    np.tanh(cs[lo + j], out=tcs[j])
                mul(tcs[1 : k + 1], tcs[1 : k + 1], out=dtanh[:k])
                np.subtract(1.0, dtanh[:k], out=dtanh[:k])
                # step s's input h is o of step s - 1 times tanh(c) entering step s
                # (at s = 0, o * tanh(0) is the zero state)
                mul(gates[:, lo - 1, :, 3 * H :], tcs[0], out=hs[lo : 2 * T - lo : 2 * T - 1 - 2 * lo])
                mul(ops[: k - 1, 5, 0], tcs[1:k, 0], out=hs[lo + 1 : hi])
                mul(ops[: k - 1, 5, 1], tcs[1:k, 1], out=hs[2 * T - hi : 2 * T - 1 - lo][::-1])
                for j in range(k - 1, -1, -1):
                    s = lo + j
                    op = ops[j]
                    # every product in the order of dc += dh * o * (1 - tanh(c)^2),
                    # dz_i = dc * g * i * (1 - i), dz_f = dc * c_prev * f * (1 - f),
                    # dz_g = dc * i * (1 - g*g) (* 1) and dz_o = dh * tanh(c) * o * (1 - o)
                    mul(dh, op[5], out=tmp)
                    mul(tmp, dtanh[j], out=tmp)
                    np.add(dc, tmp, out=dc)
                    mul(dc, op[0:3], out=dz_c)
                    mul(dh, tcs[j + 1], out=dz_o)
                    mul(dz, op[2:6], out=dz)
                    mul(dz, op[6:10], out=dz)
                    _flush(dz, floor, *dz_bufs)
                    pair = dzs[s : 2 * T - s : 2 * T - 1 - 2 * s]
                    np.copyto(pair.reshape(2, B, 4, H), dz_t)
                    np.matmul(pair, u_t, out=dh)
                    mul(dc, op[3], out=dc)
                    small = _flush(dhc, floor, *dhc_bufs)
                    if np.count_nonzero(small) >= half:  # else no direction can be all zero
                        for d in (0, 1):
                            if live[d] and np.count_nonzero(small[:, d]) == half:
                                live[d], reach[d] = False, T - s
                        if not any(live):
                            break
                hi = lo
        del ops, tcs, dtanh
        # each direction's reached steps as time-ordered [T * B] rows: the
        # last ones going forward, the first ones going back
        rows = [slice((T - reach[0]) * B, T * B), slice(0, reach[1] * B)]
        dz2, h2 = dzs.reshape(2, T * B, 4 * H), hs.reshape(2, T * B, H)
        _accum(w, np.stack([xt[r].T @ dz2[d, r] for d, r in enumerate(rows)]))
        _accum(u, np.stack([h2[d, r].T @ dz2[d, r] for d, r in enumerate(rows)]))
        _accum(b, np.stack([dz2[d, r].sum(axis=0) for d, r in enumerate(rows)]))
        del hs, h2  # before dx exists, so the peak stays that of the step loop
        dx = np.zeros((T * B, D), dtype=dtype)
        for d, r in enumerate(rows):
            dx[r] += dz2[d, r] @ w.data[d].T
        del dzs, dz2
        # two nearly cancelling directions can sum to a subnormal
        _flush(dx, np.finfo(dtype).tiny)
        _accum(x, dx.reshape(T, B, D).transpose(1, 0, 2))

    return _node(out_data, (x, w, u, b), bwd, "bilstm")


# -- parameter-owning modules ------------------------------------------


class Module:
    """Tiny Tensor container with dotted-name introspection; parameters are the Tensors that need a gradient."""

    def __init__(self):
        self.training = True

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _children(self):
        """Public attributes by name; each entry of a list attribute as ``name.i``."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, list):
                yield from ((f"{name}.{i}", v) for i, v in enumerate(value))
            else:
                yield name, value

    def _leaves(self, prefix: str = ""):
        """(dotted name, Tensor) of every Tensor below, in attribute order."""
        for name, value in self._children():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield full, value
            elif isinstance(value, Module):
                yield from value._leaves(f"{full}.")

    def named_parameters(self):
        return ((name, leaf) for name, leaf in self._leaves() if leaf.requires_grad)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def train(self, mode: bool = True):
        self.training = mode
        for _, value in self._children():
            if isinstance(value, Module):
                value.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def state(self) -> dict[str, np.ndarray]:
        """Flat name -> the array of every Tensor below: what a checkpoint stores."""
        return {name: leaf.data for name, leaf in self._leaves()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Give every Tensor below a copy of its array cast to its dtype; names and shapes must match exactly."""
        own = dict(self._leaves())
        missing = [name for name in own if name not in state]
        if missing:
            raise ShapeError(f"checkpoint missing entries: {missing[:5]}{'...' if len(missing) > 5 else ''}")
        for name, arr in state.items():
            if name not in own:
                raise ShapeError(f"unexpected checkpoint entry '{name}'")
            leaf = own[name]
            if leaf.data.shape != arr.shape:
                raise ShapeError(f"shape mismatch for '{name}': model {leaf.data.shape}, state {arr.shape}")
            leaf.data = arr.astype(leaf.data.dtype, copy=True)


def _uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


class _Conv(Module):
    """Weight [out, in, *kernel] then bias [out], both uniform in +-1/sqrt(in * prod(kernel))."""

    def __init__(self, in_channels, out_channels, kernel: tuple, stride: tuple, padding: tuple, *, rng, dtype):
        super().__init__()
        if min(in_channels, out_channels, *kernel) < 1:
            raise ConfigError(f"{type(self).__name__.lower()} sizes must be positive")
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * int(np.prod(kernel))
        self.weight = _uniform_init(rng, (out_channels, in_channels) + kernel, fan_in, dtype)
        self.bias = _uniform_init(rng, (out_channels,), fan_in, dtype)


class Conv1d(_Conv):
    def __init__(self, in_channels, out_channels, kernel_size=3, stride=1, padding=0, *, rng, dtype=np.float32):
        super().__init__(in_channels, out_channels, (kernel_size,), stride, padding, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Conv2d(_Conv):
    def __init__(self, in_channels, out_channels, kernel_size, stride=(1, 1), padding=(0, 0), *, rng, dtype=np.float32):
        super().__init__(in_channels, out_channels, tuple(kernel_size), tuple(stride), tuple(padding), rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm(Module):
    def __init__(self, num_features, dtype=np.float32):
        super().__init__()
        if num_features < 1:
            raise ConfigError("batch norm needs at least one feature")
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)
        self.running_mean = Tensor(np.zeros(num_features, dtype=dtype))
        self.running_var = Tensor(np.ones(num_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean.data, self.running_var.data, self.training)


class Linear(Module):
    """x @ weight.T + bias (``ad.affine``); out_features (K, out) gives K heads at once, weight [K, out, in] and bias [K, out]."""

    def __init__(self, in_features, out_features, *, rng, dtype=np.float32):
        super().__init__()
        out = out_features if isinstance(out_features, tuple) else (out_features,)
        if min(in_features, *out) < 1:
            raise ConfigError("linear sizes must be positive")
        self.weight = _uniform_init(rng, out + (in_features,), in_features, dtype)
        self.bias = _uniform_init(rng, out, in_features, dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ad.affine(x, self.weight, self.bias)


class BiLSTM(Module):
    """Weight w [2, D, 4H] uniform in +-1/sqrt(D), u [2, H, 4H] and b [2, 4H] in +-1/sqrt(H); direction 0 runs forward."""

    def __init__(self, input_size, hidden_size, *, rng, dtype=np.float32):
        super().__init__()
        if min(input_size, hidden_size) < 1:
            raise ConfigError("bilstm sizes must be positive")
        H = hidden_size
        self.w = _uniform_init(rng, (2, input_size, 4 * H), input_size, dtype)
        self.u = _uniform_init(rng, (2, H, 4 * H), H, dtype)
        self.b = _uniform_init(rng, (2, 4 * H), H, dtype)
        self.b.data[:, H : 2 * H] = 1.0  # forget-gate bias at 1 keeps early memory open

    def forward(self, x: Tensor) -> Tensor:
        return bilstm(x, self.w, self.u, self.b)

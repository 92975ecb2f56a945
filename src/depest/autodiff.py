"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a numpy array plus an optional gradient. Operations
build an implicit DAG by recording parent tensors and a backward closure;
``backward(loss)`` topologically sorts the graph reachable from a scalar
loss, runs each closure exactly once in reverse order and releases each
interior node as soon as its closure has run; only leaves keep gradients.
Branch outputs whose forwards ran on lanes carry their runner, and their
subgraphs' closures run on those lanes once every closure above has run.

Only the operations the model and its gradient checks use are
implemented: ``add``, ``sub``, ``mul``, ``log``, ``clamp_min``, ``relu``,
``sigmoid``, ``softmax``, the reductions ``sum_``, ``mean``,
``max_reduce`` and ``lower_median``, the shape ops ``reshape``,
``transpose``, ``slice_axis`` and ``concat``, and ``affine``.
Convolution, pooling, batch norm and the LSTM (which carry their own
hand-derived backwards) live in :mod:`depest.layers`; ``sigmoid`` is
the LSTM's own gate formula there, tanh(x/2)/2 + 1/2.

``current`` (a frozen ``Pass``) is what the running pass asks of its ops,
swapped for one block by its one setter ``passes(**changes)``. It is not
thread-local, since a ``data.map_lanes`` pool lane starts in a fresh
context; with one training loop per process, a pass's lanes start after
the swap and are joined before it is undone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools

import numpy as np

from .errors import GraphError, NumericError, ShapeError

class Tensor:
    """Array value node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_done", "_lanes")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _op=""):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._op = _op
        self._done = False
        self._lanes = None  # (run, k): branch output k of one lane pass; run(fn, items) is map_lanes

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op or 'leaf'}, grad={self.requires_grad})"


def tensor(data, requires_grad=False) -> Tensor:
    """Leaf tensor; integer and boolean data are promoted to float64."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "fc":
        arr = arr.astype(np.float64)
    return Tensor(arr, requires_grad=requires_grad)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = np.asarray(g)
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(data, parents, backward, op) -> Tensor:
    if any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward, _op=op)
    else:
        out = Tensor(data, _op=op)
    return out


@dataclasses.dataclass(frozen=True)
class Pass:
    """update_stats: whether training-mode batch norms fold a batch's statistics into their running ones."""

    update_stats: bool


current = Pass(update_stats=True)


@contextlib.contextmanager
def passes(**changes):
    """Run the block with ``current`` replaced by a copy that has ``changes``."""
    global current
    saved, current = current, dataclasses.replace(current, **changes)
    try:
        yield
    finally:
        current = saved


# -- backward pass -----------------------------------------------------


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Visits every reachable node exactly once in reverse topological order;
    once its closure has run, an interior node drops its closure, gradient
    and parents, so the activations they hold are freed during the pass.
    Phase 1 walks from the loss down to the lane-marked nodes, so each
    mark's gradient is complete; phase 2 has each forward's runner walk
    its marks' subgraphs, one per lane in branch order. They share no node
    or parameter and keep their serial closure order, so every bit is the
    serial one. A second call on the same loss raises: the graph is spent,
    so a fresh forward pass is required first.
    """
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
    if loss._done:
        raise GraphError("backward already ran for this graph; rebuild the loss first")
    if not np.all(np.isfinite(loss.data)):
        raise NumericError("loss is non-finite")

    loss.grad = np.ones_like(loss.data)
    marks = sorted(_walk(loss), key=lambda t: t._lanes[1])
    for run in dict.fromkeys(t._lanes[0] for t in marks):  # one lane pass per forward, which shares no parameter
        run(_walk, [t for t in marks if t._lanes[0] is run])
    loss._done = True


def _walk(root: Tensor) -> list:
    """Run the closures reachable from root, in reverse topological order; return the marked nodes it stopped at."""
    topo: list[Tensor] = []
    marks: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._lanes is not None and node is not root:
            marks.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    while topo:
        node = topo.pop()
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node.grad, node._parents, node._lanes = None, None, (), None
    return marks


# -- elementwise arithmetic --------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), bwd, "mul")


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def bwd(g):
        _accum(a, g / a.data)

    return _node(out_data, (a,), bwd, "log")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor) elementwise, in a's dtype; gradient passes only where a > floor."""
    mask = a.data > floor
    out_data = np.where(mask, a.data, a.data.dtype.type(floor))

    def bwd(g):
        _accum(a, g * mask)

    return _node(out_data, (a,), bwd, "clamp_min")


def relu(a: Tensor) -> Tensor:
    return clamp_min(a, 0.0)


def sigmoid(a: Tensor) -> Tensor:
    """tanh(x/2)/2 + 1/2: the BiLSTM's gate arithmetic, finite at any x and exactly 0 or 1 once tanh saturates."""
    out_data = np.tanh(0.5 * a.data) * 0.5 + 0.5

    def bwd(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bwd, "sigmoid")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, out_data * (g - dot))

    return _node(out_data, (a,), bwd, "softmax")


# -- reductions --------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _node(out_data, (a,), bwd, "sum")


def mean(a: Tensor, axis, keepdims=False) -> Tensor:
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = 1
    for ax in axes:
        n *= a.data.shape[ax]
    return mul(sum_(a, axis=axis, keepdims=keepdims), Tensor(np.asarray(1.0 / n, dtype=a.data.dtype)))


def _select(a: Tensor, idx: np.ndarray, axis: int, op: str) -> Tensor:
    """The entry at ``idx`` of each lane along ``axis``; gradient scatters back to it."""
    idx = np.expand_dims(idx, axis)
    out_data = np.take_along_axis(a.data, idx, axis=axis).squeeze(axis)

    def bwd(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis=axis)
        _accum(a, full)

    return _node(out_data, (a,), bwd, op)


def max_reduce(a: Tensor, axis: int) -> Tensor:
    """Maximum along one axis; ties route gradient to the lowest index."""
    return _select(a, np.argmax(a.data, axis=axis), axis, "max")


def lower_median(a: Tensor, axis: int) -> Tensor:
    """Lower median along one axis (deterministic for even counts)."""
    rank = (a.data.shape[axis] - 1) // 2
    return _select(a, np.argsort(a.data, axis=axis, kind="stable").take(rank, axis=axis), axis, "lower_median")


# -- shape manipulation ------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(out_data, (a,), bwd, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def bwd(g):
        _accum(a, g.transpose(inv))

    return _node(out_data, (a,), bwd, "transpose")


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out_data = a.data[sl]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        _accum(a, full)

    return _node(out_data, (a,), bwd, "slice")


def concat(tensors, axis: int) -> Tensor:
    """Join along an existing axis; backward hands each input its slice."""
    tensors = tuple(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    ends = tuple(itertools.accumulate(t.data.shape[axis] for t in tensors))
    lead = (slice(None),) * (axis % out_data.ndim)  # np.split's pieces, without its per-call cost

    def bwd(g):
        for t, lo, hi in zip(tensors, (0,) + ends, ends):
            _accum(t, g[lead + (slice(lo, hi),)])

    return _node(out_data, tensors, bwd, "concat")


# -- linear algebra ----------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w.T + b. x: [B, in], w: [out, in], b: [out].

    Stacked heads: w [K, out, in] and b [K, out] give y [B, K, out], whose
    head k is x @ w[k].T + b[k] for an x [B, in] shared by every head, or
    x[:, k] @ w[k].T + b[k] for x [B, K, in]. Each head's GEMMs are the
    ones a lone affine would run, and a shared x sums its heads'
    gradients in head order.
    """
    xd, wd = x.data, w.data
    if (wd.ndim not in (2, 3) or xd.ndim not in (2, wd.ndim) or xd.shape[-1] != wd.shape[-1]
            or xd.shape[1:-1] not in ((), wd.shape[:1])):
        raise ShapeError(f"affine shapes incompatible: x {xd.shape}, w {wd.shape}")
    heads = wd.ndim == 3
    xs = xd.swapaxes(0, 1) if xd.ndim == 3 else xd  # [K, B, in] per head, or [B, in]
    out_data = np.matmul(xs, wd.swapaxes(-1, -2)) + b.data[..., None, :]
    if heads:
        out_data = np.ascontiguousarray(out_data.swapaxes(0, 1))

    def bwd(g):
        gs = g.swapaxes(0, 1) if heads else g  # [K, B, out] or [B, out]
        dx = np.matmul(gs, wd)
        _accum(x, dx.swapaxes(0, 1) if xd.ndim == 3 else dx.sum(axis=0) if heads else dx)
        _accum(w, np.matmul(gs.swapaxes(-1, -2), xs))
        _accum(b, gs.sum(axis=-2))

    return _node(out_data, (x, w, b), bwd, "affine")

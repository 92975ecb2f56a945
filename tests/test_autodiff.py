"""Gradient and graph-mechanics checks for the autodiff engine.

Every differentiable op is compared against central finite differences
in float64; graph mechanics (topological order, double-backward guard,
scalar-only backward, releasing spent nodes) are exercised directly.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradients, rel_err, sigmoid
from depest import autodiff as ad
from depest.errors import GraphError, NumericError

TOL = 1e-4


def check_unary(op_graph, op_np, shape=(3, 4), low=-2.0, high=2.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(low, high, size=shape)
    xt = ad.tensor(x.copy(), requires_grad=True)
    out = ad.sum_(op_graph(xt))
    ad.backward(out)
    (num,) = fd_gradients(lambda a: op_np(a).sum(), [x])
    assert rel_err(xt.grad, num) < TOL


class TestElementwise:
    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        at = ad.tensor(a.copy(), requires_grad=True)
        bt = ad.tensor(b.copy(), requires_grad=True)
        out = ad.sum_(ad.mul(ad.add(at, bt), ad.add(at, bt)))
        ad.backward(out)
        num = fd_gradients(lambda x, y: ((x + y) ** 2).sum(), [a, b])
        assert rel_err(at.grad, num[0]) < TOL
        assert rel_err(bt.grad, num[1]) < TOL

    def test_log_relu_sigmoid(self):
        check_unary(ad.log, np.log, low=0.2, high=3.0)
        check_unary(ad.sigmoid, sigmoid)
        # relu kink avoided by keeping values away from 0
        check_unary(ad.relu, lambda x: np.maximum(x, 0.0), low=0.1, high=2.0)
        check_unary(ad.relu, lambda x: np.maximum(x, 0.0), low=-2.0, high=-0.1)

    def test_clamp_min_grad_masks_floor(self):
        x = np.array([-1.0, 0.5, 2.0])
        xt = ad.tensor(x.copy(), requires_grad=True)
        ad.backward(ad.sum_(ad.clamp_min(xt, 1.0)))
        np.testing.assert_allclose(xt.grad, [0.0, 0.0, 1.0])
        # relu is clamp_min at 0, and neither widens float32
        x32 = ad.tensor(x.astype(np.float32))
        for out in (ad.clamp_min(x32, 1.0), ad.relu(x32)):
            assert out.data.dtype == np.float32 and out._op == "clamp_min"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bits_are_the_bilstm_gate_formula(self, dtype):
        x = np.concatenate([np.linspace(-40.0, 40.0, 8001), [0.0, -0.0, 1e-30, -1e-30]]).astype(dtype)
        out = ad.sigmoid(ad.tensor(x)).data
        # a sigmoid slab of layers.bilstm: scaled by 0.5, tanh in place, scaled by 0.5, shifted by 0.5
        z = x * np.full(x.shape, 0.5, dtype=dtype)
        np.tanh(z, out=z)
        z *= np.full(x.shape, 0.5, dtype=dtype)
        z += np.full(x.shape, 0.5, dtype=dtype)
        assert out.dtype == dtype
        assert out.tobytes() == z.tobytes()
        assert out.tobytes() == (np.tanh(x * 0.5) * 0.5 + 0.5).tobytes()

    def test_sigmoid_extreme_inputs_finite(self):
        x = ad.tensor(np.array([-800.0, 800.0]))
        out = ad.sigmoid(x)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


class TestReductionsAndShape:
    def test_sum_axes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        for axis in (None, 0, 1, 2, (0, 2), (1, 2)):
            xt = ad.tensor(x.copy(), requires_grad=True)
            ad.backward(ad.sum_(ad.mul(ad.sum_(xt, axis=axis), ad.sum_(xt, axis=axis))))
            (num,) = fd_gradients(lambda a: (a.sum(axis=axis) ** 2).sum(), [x])
            assert rel_err(xt.grad, num) < TOL, f"axis={axis}"

    def test_mean(self):
        check_unary(lambda t: ad.mean(t, axis=1), lambda x: x.mean(axis=1))

    def test_softmax_forward_and_grad(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        xt = ad.tensor(x.copy(), requires_grad=True)
        out = ad.softmax(xt, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(3), atol=1e-12)

        w = rng.normal(size=(3, 5))  # fixed projection makes the scalar nontrivial
        ad.backward(ad.sum_(ad.mul(out, ad.tensor(w))))

        def f(a):
            e = np.exp(a - a.max(axis=1, keepdims=True))
            return (e / e.sum(axis=1, keepdims=True) * w).sum()

        (num,) = fd_gradients(f, [x])
        assert rel_err(xt.grad, num) < TOL

    def test_max_reduce_routes_to_lowest_tie(self):
        x = ad.tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
        ad.backward(ad.sum_(ad.max_reduce(x, axis=1)))
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_lower_median_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            x = rng.normal(size=(6, n))
            got = ad.lower_median(ad.tensor(x), axis=1).data
            want = np.sort(x, axis=1)[:, (n - 1) // 2]
            np.testing.assert_allclose(got, want)

    def test_lower_median_grad(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5))
        xt = ad.tensor(x.copy(), requires_grad=True)
        ad.backward(ad.sum_(ad.mul(ad.lower_median(xt, axis=1), ad.lower_median(xt, axis=1))))
        (num,) = fd_gradients(lambda a: (np.sort(a, axis=1)[:, 2] ** 2).sum(), [x])
        assert rel_err(xt.grad, num) < TOL

    def test_reshape_transpose_slice_concat(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 6))
        xt = ad.tensor(x.copy(), requires_grad=True)
        a = ad.reshape(xt, (3, 4))
        b = ad.transpose(a, (1, 0))
        c = ad.slice_axis(b, 0, 1, 3)
        e = ad.concat([c, c], axis=0)
        ad.backward(ad.sum_(ad.mul(e, e)))

        def f(v):
            a = v.reshape(3, 4).T[1:3]
            e = np.concatenate([a, a])
            return (e**2).sum()

        (num,) = fd_gradients(f, [x])
        assert rel_err(xt.grad, num) < TOL

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat_grad_matches_fd(self, axis):
        # inputs of unequal length along the joined axis
        rng = np.random.default_rng(9)
        xs = [rng.normal(size=tuple(np.insert([2, 3], axis % 3, n))) for n in (1, 3, 2)]
        w = rng.normal(size=np.concatenate(xs, axis=axis).shape)
        ts = [ad.tensor(x.copy(), requires_grad=True) for x in xs]
        out = ad.concat(ts, axis=axis)
        np.testing.assert_array_equal(out.data, np.concatenate(xs, axis=axis))
        ad.backward(ad.sum_(ad.mul(ad.mul(out, out), ad.tensor(w))))
        nums = fd_gradients(lambda *v: (np.concatenate(v, axis=axis) ** 2 * w).sum(), xs)
        for t, num in zip(ts, nums):
            assert rel_err(t.grad, num) < TOL

    def test_matmul_and_affine(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=(2,))
        xt = ad.tensor(x.copy(), requires_grad=True)
        wt = ad.tensor(w.copy(), requires_grad=True)
        bt = ad.tensor(b.copy(), requires_grad=True)
        ad.backward(ad.sum_(ad.sigmoid(ad.affine(xt, wt, bt))))
        num = fd_gradients(lambda a, ww, bb: sigmoid(a @ ww.T + bb).sum(), [x, w, b])
        assert rel_err(xt.grad, num[0]) < TOL
        assert rel_err(wt.grad, num[1]) < TOL
        assert rel_err(bt.grad, num[2]) < TOL


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        # x feeds two paths that rejoin; d/dx (x*x + x*x) = 4x
        x = ad.tensor(np.array([3.0]), requires_grad=True)
        a = ad.mul(x, x)
        b = ad.mul(x, x)
        ad.backward(ad.sum_(ad.add(a, b)))
        np.testing.assert_allclose(x.grad, [12.0])

    def test_backward_requires_scalar(self):
        x = ad.tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(GraphError):
            ad.backward(ad.mul(x, x))

    def test_double_backward_rejected(self):
        x = ad.tensor(np.array([1.0]), requires_grad=True)
        loss = ad.sum_(ad.mul(x, x))
        ad.backward(loss)
        with pytest.raises(GraphError):
            ad.backward(loss)

    def test_nonfinite_loss_rejected(self):
        x = ad.tensor(np.array([0.0]), requires_grad=True)
        with np.errstate(divide="ignore"):
            loss = ad.sum_(ad.log(x))
        with pytest.raises(NumericError):
            ad.backward(loss)

    def test_no_grad_leaves_untouched(self):
        x = ad.tensor(np.ones(3), requires_grad=False)
        y = ad.tensor(np.ones(3), requires_grad=True)
        ad.backward(ad.sum_(ad.mul(x, y)))
        assert x.grad is None
        np.testing.assert_allclose(y.grad, np.ones(3))

    def test_backward_releases_interior_nodes(self):
        x = ad.tensor(np.arange(3.0), requires_grad=True)
        w = ad.tensor(np.ones(3), requires_grad=True)
        h = ad.mul(x, w)
        y = ad.sigmoid(h)
        loss = ad.sum_(y)
        ad.backward(loss)
        for node in (h, y, loss):
            assert node._backward is None and node._parents == () and node.grad is None
        np.testing.assert_allclose(x.grad, sigmoid(np.arange(3.0)) * (1.0 - sigmoid(np.arange(3.0))))
        np.testing.assert_allclose(w.grad, x.data * x.grad)

    def test_interior_activation_freed_before_the_pass_ends(self):
        # the large node's array is gone by the time the closure next to the
        # inputs runs, not only when backward returns
        x = ad.tensor(np.array([2.0]), requires_grad=True)
        near = ad.mul(x, x)
        big = ad.mul(near, ad.tensor(np.ones(1 << 16)))
        alive = weakref.ref(big.data)
        loss = ad.sum_(big)
        del big
        seen = []
        run = near._backward

        def probe(g):
            seen.append(alive() is not None)
            run(g)

        near._backward = probe
        ad.backward(loss)
        assert seen == [False]
        np.testing.assert_allclose(x.grad, [4.0 * (1 << 16)])

    def test_deep_chain_iterative_topo(self):
        # long chains would blow the recursion limit with a recursive sort
        x = ad.tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ad.add(y, ad.tensor(np.array([0.0])))
        ad.backward(ad.sum_(y))
        np.testing.assert_allclose(x.grad, [1.0])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["add", "mul", "sub"]),
)
def test_broadcast_grads_match_fd(rows, cols, opname):
    rng = np.random.default_rng(rows * 13 + cols)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=(cols,))
    op = getattr(ad, opname)
    np_op = {"add": np.add, "mul": np.multiply, "sub": np.subtract}[opname]
    at = ad.tensor(a.copy(), requires_grad=True)
    bt = ad.tensor(b.copy(), requires_grad=True)
    ad.backward(ad.sum_(op(at, bt)))
    num = fd_gradients(lambda x, y: np_op(x, y).sum(), [a, b])
    assert rel_err(at.grad, num[0]) < TOL
    assert rel_err(bt.grad, num[1]) < TOL

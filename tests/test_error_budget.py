"""The float32 error budget of the BiLSTM and strided conv kernels, against float64.

Each case runs a kernel once in float32 and once in float64 on the same
float64 inputs cast, backpropagates the same upstream gradient and
measures max |error| / max |float64 value| for the output and for each
input's gradient. The recorded figures are the current kernels' errors
at seed 0. A kernel that changes bits (a reassociated product, another
GEMM layout) must keep every figure within ``FACTOR`` times its record;
the finite-difference checks and the acceptance suite still apply too.
A change that lowers a figure may lower its record.

Shapes: ``train_small``'s visual branch (a 216 -> 16 channel conv at
stride 4 over 1800 frames, then a BiLSTM of hidden size 32 over the 225
steps left after pooling, at B=16), plus the default model's hidden size
128 over a short sequence at B=16 and over its visual and audio branches'
lengths (T=899 and 448) at B=4, where B=16 would take over 10 s a case.
"""

import numpy as np
import pytest

from conftest import rel_err
from depest import autodiff as ad
from depest.layers import BiLSTM, Conv1d, bilstm, conv1d

FACTOR = 2.0


def _bilstm_case(B, T, D, H):
    def build(rng):
        m = BiLSTM(D, H, rng=rng, dtype=np.float64)
        return bilstm, [rng.normal(size=(B, T, D)), m.w.data, m.u.data, m.b.data], (B, 2 * H)

    return build


def _conv_case(rng):
    c = Conv1d(216, 16, 3, stride=4, rng=rng, dtype=np.float64)
    inputs = [rng.normal(size=(16, 216, 1800)), c.weight.data, c.bias.data]
    return lambda x, w, b: conv1d(x, w, b, stride=4), inputs, (16, 16, 450)


# case -> (inputs, recorded errors of the output and of each input's gradient)
CASES = {
    "bilstm_h32": (_bilstm_case(16, 225, 16, 32), (1.51e-7, 3.55e-7, 6.16e-7, 5.30e-7, 1.10e-6)),  # x, w, u, b
    "bilstm_h128": (_bilstm_case(16, 40, 64, 128), (2.98e-7, 5.71e-7, 7.41e-7, 8.51e-7, 1.02e-6)),
    "bilstm_h128_t899": (_bilstm_case(4, 899, 64, 128), (2.64e-7, 5.62e-7, 1.11e-6, 8.12e-7, 6.33e-7)),
    "bilstm_h128_t448": (_bilstm_case(4, 448, 64, 128), (2.49e-7, 5.61e-7, 6.25e-7, 7.52e-7, 7.59e-7)),
    "conv1d_stride4": (_conv_case, (4.60e-7, 1.75e-7, 2.60e-7, 1.11e-7)),  # x, weight, bias
}


def float32_errors(build, seed=0):
    """Relative max error of the float32 output and gradients against float64."""
    rng = np.random.default_rng(seed)
    op, inputs, out_shape = build(rng)
    g = rng.normal(size=out_shape)
    runs = []
    for dtype in (np.float32, np.float64):
        leaves = [ad.tensor(a.astype(dtype), requires_grad=True) for a in inputs]
        out = op(*leaves)
        ad.backward(ad.sum_(ad.mul(out, ad.tensor(g.astype(dtype)))))
        runs.append([out.data] + [t.grad for t in leaves])
    return [rel_err(low, high) for low, high in zip(*runs)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_float32_error_within_budget(case):
    build, recorded = CASES[case]
    errors = float32_errors(build)
    assert len(errors) == len(recorded)
    over = [(k, err, rec) for k, (err, rec) in enumerate(zip(errors, recorded)) if err > FACTOR * rec]
    assert not over, f"{case}: (entry, error, record) beyond {FACTOR}x the record: {over}"

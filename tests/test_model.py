"""Full classifier: branches, fusion wiring, heads, state round trip, branch lanes."""

import concurrent.futures
import ctypes
import gc
import io
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradients, rel_err, tiny_clip
from depest import autodiff as ad
from depest import data, model as model_mod, tensorio
from depest.cli import main
from depest.config import model_config, parse_config
from depest.errors import ConfigError, DataError, NumericError, ShapeError
from depest.model import (
    FUSION_MODES,
    BranchConfig,
    ModalityBranch,
    ModelConfig,
    MultiModalClassifier,
    batch_inputs,
)
from depest.musdl import MusdlConfig
from depest.phq import N_ITEMS
from depest.sam import SamConfig, SamOptimizer
from depest.training import evaluate_clips, train

SMALL_AUDIO = BranchConfig(in_channels=8, conv_channels=(4,), pools=(2,), strides=(1,), lstm_hidden=3, out_dim=6)
SMALL_VISUAL = BranchConfig(
    in_channels=3, conv_channels=(4,), pools=(1,), strides=(1,), lstm_hidden=3, out_dim=6, conv2d_height=72
)
SMALL_TEXT = BranchConfig(in_channels=512, conv_channels=(4,), pools=(1,), strides=(1,), lstm_hidden=3, out_dim=6)


def small_config(modality="av", fusion="subatten"):
    return ModelConfig(
        modality=modality,
        fusion=fusion,
        feature_dim=6,
        audio=SMALL_AUDIO,
        visual=SMALL_VISUAL,
        text=SMALL_TEXT,
    )


def small_inputs(rng, B=2, modality="av"):
    out = {}
    if "a" in modality:
        out["audio"] = ad.tensor(rng.normal(size=(B, 8, 12)))
    if "v" in modality:
        out["visual"] = ad.tensor(rng.normal(size=(B, 3, 72, 6)))
    if "t" in modality:
        out["text"] = ad.tensor(rng.normal(size=(B, 512, 4)))
    return out


class TestConfig:
    def test_bad_modality_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(modality="x", fusion="subatten", feature_dim=6)

    def test_bad_fusion_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(modality="avt", fusion="attention", feature_dim=6)

    def test_branch_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(modality="a", fusion="subatten", feature_dim=16, audio=SMALL_AUDIO)

    def test_active_modality_without_branch_rejected(self):
        with pytest.raises(ConfigError, match="text branch"):
            ModelConfig(modality="avt", fusion="subatten", feature_dim=6, audio=SMALL_AUDIO, visual=SMALL_VISUAL)

    def test_active_order_is_fixed(self):
        assert small_config("avt").active == ("a", "v", "t")
        assert small_config("av").active == ("a", "v")

    def test_branch_stage_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            BranchConfig(
                in_channels=8, conv_channels=(4, 8), pools=(2,), strides=(1, 1), lstm_hidden=3, out_dim=6
            )


class TestBranch:
    def test_audio_branch_shape(self, rng):
        branch = ModalityBranch(SMALL_AUDIO, rng=rng, dtype=np.float64)
        out = branch(ad.tensor(rng.normal(size=(2, 8, 12))))
        assert out.data.shape == (2, 6)

    def test_visual_branch_collapses_height(self, rng):
        branch = ModalityBranch(SMALL_VISUAL, rng=rng, dtype=np.float64)
        out = branch(ad.tensor(rng.normal(size=(2, 3, 72, 6))))
        assert out.data.shape == (2, 6)

    def test_visual_rows_fold_into_conv1d_channels(self, rng):
        # [B, 3, 72, T] is read as [B, 216, T], channel c*72 + h
        model = MultiModalClassifier(small_config("av"), rng=rng, dtype=np.float64)
        assert dict(model.named_parameters())["branch_v.convs.0.weight"].data.shape == (4, 216, 3)
        x = rng.normal(size=(2, 3, 72, 6))
        folded = model.branch_v(ad.tensor(x.reshape(2, 216, 6))).data
        np.testing.assert_array_equal(model.branch_v(ad.tensor(x)).data, folded)

    def test_partial_height_collapse_rejected(self, rng):
        branch = ModalityBranch(SMALL_VISUAL, rng=rng, dtype=np.float64)
        with pytest.raises(ShapeError):
            branch(ad.tensor(rng.normal(size=(2, 3, 80, 6))))

    def test_output_depends_on_input(self, rng):
        # a uniform shift would be erased by BN centering, so poke one cell
        branch = ModalityBranch(SMALL_AUDIO, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 8, 12))
        a = branch(ad.tensor(x)).data
        x2 = x.copy()
        x2[0, 3, 5] += 1.0
        b = branch(ad.tensor(x2)).data
        assert not np.allclose(a, b)


class TestForward:
    @pytest.mark.parametrize("fusion", ["subatten", "atten", "concat", "mult", "median", "max", "sum", "mean"])
    def test_distribution_shape_and_normalization(self, fusion, rng):
        model = MultiModalClassifier(small_config("av", fusion), rng=rng, dtype=np.float64)
        out = model(**small_inputs(rng, B=3, modality="av"))
        assert out.data.shape == (3, 8, 32)
        np.testing.assert_allclose(out.data.sum(axis=2), np.ones((3, 8)), atol=1e-9)
        assert np.all(out.data > 0.0)

    def test_three_modalities(self, rng):
        model = MultiModalClassifier(small_config("avt", "subatten"), rng=rng, dtype=np.float64)
        out = model(**small_inputs(rng, B=2, modality="avt"))
        assert out.data.shape == (2, 8, 32)

    def test_single_modality_bypasses_fusion(self, rng):
        model = MultiModalClassifier(small_config("a", "subatten"), rng=rng, dtype=np.float64)
        assert not hasattr(model, "bank")
        out = model(audio=small_inputs(rng, B=2, modality="a")["audio"])
        assert out.data.shape == (2, 8, 32)

    def test_missing_modality_input_rejected(self, rng):
        model = MultiModalClassifier(small_config("av"), rng=rng, dtype=np.float64)
        with pytest.raises(DataError):
            model(audio=small_inputs(rng, modality="a")["audio"])

    def test_output_sensitive_to_each_modality(self, rng):
        model = MultiModalClassifier(small_config("av", "concat"), rng=rng, dtype=np.float64)
        model.eval()
        base = small_inputs(rng, B=1, modality="av")
        ref = model(**base).data
        bumped_a = {"audio": ad.tensor(base["audio"].data + 1.0), "visual": base["visual"]}
        bumped_v = {"audio": base["audio"], "visual": ad.tensor(base["visual"].data + 1.0)}
        assert not np.allclose(model(**bumped_a).data, ref)
        assert not np.allclose(model(**bumped_v).data, ref)

    def test_gradients_reach_every_parameter(self, rng):
        model = MultiModalClassifier(small_config("av", "subatten"), rng=rng, dtype=np.float64)
        out = model(**small_inputs(rng, B=2, modality="av"))
        ad.backward(ad.sum_(ad.mul(out, out)))
        for name, p in model.named_parameters():
            assert p.grad is not None, name

    def test_subatten_graph_size(self, rng):
        # the bank stores each role of its 8 heads as one array with a head
        # axis, the model reads its stacked output and the item heads are one
        # stacked affine: 69 graph nodes in this forward, where slicing out
        # the 8 heads' outputs and joining them back made it 78, joining the
        # heads' parameters on every pass 137 and 8 one-channel head graphs 375
        model = MultiModalClassifier(small_config("avt", "subatten"), rng=rng, dtype=np.float64)
        assert graph_nodes(model(**small_inputs(rng, B=2, modality="avt"))) <= 69

    def test_atten_graph_size(self, rng):
        # a lone block joins no copies of its parameters and the 8 item
        # heads are one stacked affine under one softmax: 69 graph nodes in
        # this forward, where an affine per head made it 86, one gather node
        # per parameter 123 and a softmax per head 95
        model = MultiModalClassifier(small_config("avt", "atten"), rng=rng, dtype=np.float64)
        assert graph_nodes(model(**small_inputs(rng, B=2, modality="avt"))) <= 69

    def test_mult_graph_size(self, rng):
        # the branch vectors multiply in order, one mul node each after the
        # first, and the 8 item heads are one stacked affine under one
        # softmax: 24 graph nodes in this forward, where an affine per head
        # made it 33, stacking the vectors and slicing them back out 44 and
        # a softmax per head 39
        model = MultiModalClassifier(small_config("avt", "mult"), rng=rng, dtype=np.float64)
        assert graph_nodes(model(**small_inputs(rng, B=2, modality="avt"))) <= 24

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-input", "input-per-item"])
    def test_stacked_item_heads_match_one_affine_per_item_bit_for_bit(self, shared):
        # the eight item heads as eight Linear layers, as they ran before they
        # were stacked, at train_small's float32 sizes: one input shared by
        # every head (one branch, a reducing rule or one fusion block), or the
        # bank's [B, N_ITEMS, 3, 64] map, one item's channel each
        rng = np.random.default_rng(9)
        B, C, n = 16, 32, 192

        def f32(*shape):
            return rng.normal(size=shape).astype(np.float32)

        w, b, g = f32(N_ITEMS, C, n), f32(N_ITEMS, C), ad.tensor(f32(B, N_ITEMS, C))
        x = f32(B, n) if shared else f32(B, N_ITEMS, 3, 64)
        xt, wt, bt = (ad.tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = ad.affine(xt if shared else ad.reshape(xt, (B, N_ITEMS, n)), wt, bt)
        xr = ad.tensor(x.copy(), requires_grad=True)
        wr, br = ([ad.tensor(a[k].copy(), requires_grad=True) for k in range(N_ITEMS)] for a in (w, b))
        inputs = [xr] * N_ITEMS if shared else [ad.reshape(ad.slice_axis(xr, 1, k, k + 1), (B, n)) for k in range(N_ITEMS)]
        ref = ad.reshape(ad.concat([ad.affine(*args) for args in zip(inputs, wr, br)], axis=1), (B, N_ITEMS, C))
        for o in (out, ref):
            ad.backward(ad.sum_(ad.mul(o, g)))
        assert out.data.shape == (B, N_ITEMS, C) and out.data.tobytes() == ref.data.tobytes()
        assert xt.grad.tobytes() == xr.grad.tobytes()
        for k in range(N_ITEMS):
            assert wt.grad[k].tobytes() == wr[k].grad.tobytes() and bt.grad[k].tobytes() == br[k].grad.tobytes()

    def test_fresh_default_model_draws_each_stacked_role_within_its_one_head_bound(self):
        # the byte tests load their values, so only a fresh draw shows a fan-in
        # slip: each stacked role stays inside the bound of one head or one
        # direction, reaches near it, and differs from head to head
        cfg = model_config(parse_config())
        model = MultiModalClassifier(cfg, rng=np.random.default_rng(0))
        params = {name: p.data for name, p in model.named_parameters()}
        assert len(params) == 69 and len(model.state()) == 93
        assert sum(a.size for a in params.values()) == 1_141_824
        H, head_in = cfg.audio.lstm_hidden, params["heads.weight"].shape[-1]
        assert head_in == cfg.feature_dim * len(cfg.active)
        drawn = {}  # bound -> the values drawn under it
        for name, a in params.items():
            if name.startswith("bank.conv_"):
                bound, parts = 1 / 3, list(a)  # each head's one-channel 3x3 conv
            elif "_pw" in name:
                bound, parts = 1.0, list(a[0])  # [1, heads, 1, 1]: a one-channel 1x1 conv's fan-in
            elif name.startswith("heads."):
                bound, parts = 1 / np.sqrt(head_in), list(a)
            elif name.endswith("lstm.w"):
                bound, parts = 1 / np.sqrt(a.shape[1]), list(a)
            elif name.endswith(("lstm.u", "lstm.b")):
                bound, parts = 1 / np.sqrt(H), list(a)
                if name.endswith("b"):
                    assert np.all(a[:, H : 2 * H] == 1.0), name  # both directions' forget slabs
                    parts = list(np.delete(a, np.s_[H : 2 * H], axis=1))
            else:
                continue
            assert len(parts) == (2 if "lstm" in name else N_ITEMS), name
            assert len({p.tobytes() for p in parts}) == len(parts), name
            assert all(np.abs(p).max() <= bound for p in parts), name
            drawn.setdefault(bound, []).extend(p.ravel() for p in parts)
        assert len(drawn) >= 5
        for bound, values in drawn.items():
            assert np.abs(np.concatenate(values)).max() > 0.9 * bound, bound

    def test_head_gradient_isolation(self, rng):
        # a loss reading only item 0 sends zero gradient to other heads
        model = MultiModalClassifier(small_config("av", "concat"), rng=rng, dtype=np.float64)
        out = model(**small_inputs(rng, B=2, modality="av"))
        item0 = ad.slice_axis(out, 1, 0, 1)
        ad.backward(ad.sum_(ad.mul(item0, item0)))
        g = model.heads.weight.grad  # [N_ITEMS, n_classes, in], one row block per item
        assert np.abs(g[0]).max() > 0.0
        assert not np.any(g[1:])

    def test_subatten_heads_see_different_features(self, rng):
        # independent bank heads produce distinct head inputs, so the
        # same downstream weights give different item rows
        cfg = small_config("av", "subatten")
        model = MultiModalClassifier(cfg, rng=rng, dtype=np.float64)
        model.heads.weight.data[1:] = model.heads.weight.data[0]
        model.heads.bias.data[1:] = model.heads.bias.data[0]
        out = model(**small_inputs(rng, B=1, modality="av")).data[0]
        assert not np.allclose(out[0], out[1])

    def test_full_model_gradient_matches_fd(self, rng):
        # probe the audio input and a deep parameter through the whole
        # composite graph; the visual branch stays in the loss so its
        # path is exercised without probing every pixel
        model = MultiModalClassifier(small_config("av", "mean"), rng=rng, dtype=np.float64)
        model.eval()  # frozen BN keeps the probed function deterministic
        a = rng.normal(size=(1, 8, 12))
        v = rng.normal(size=(1, 3, 72, 6))
        fc_bias = model.branch_v.fc.bias.data.copy()

        def f(av, bias):
            model.branch_v.fc.bias.data = bias.copy()
            out = model(audio=ad.tensor(av), visual=ad.tensor(v))
            return float(ad.sum_(ad.mul(out, out)).data)

        at = ad.tensor(a.copy(), requires_grad=True)
        out = model(audio=at, visual=ad.tensor(v.copy()))
        ad.backward(ad.sum_(ad.mul(out, out)))
        grad_bias = model.branch_v.fc.bias.grad.copy()
        num_a, num_bias = fd_gradients(f, [a, fc_bias])
        assert rel_err(at.grad, num_a) < 1e-3
        assert rel_err(grad_bias, num_bias) < 1e-3


def graph_nodes(out):
    """Op nodes in the graph that produced out (leaves have no op)."""
    seen, todo, nodes = set(), [out], 0
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            todo.extend(t._parents)
            nodes += bool(t._op)
    return nodes


def force_lanes(monkeypatch, cpus, min_work=8 * 3):
    """cpus available, and the lane gate at min_work: by default the tiny models' batch of 8 x lstm_hidden 3."""
    monkeypatch.setattr(data, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(model_mod, "_MIN_LANE_WORK", min_work)


def record_pools(monkeypatch):
    """Each branch pool started, with its worker count and whether it was shut down with wait."""
    pools = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.workers, self.joined = max_workers, False
            pools.append(self)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            self.joined = self.joined or wait

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return pools


class TestBranchLanes:
    @pytest.mark.parametrize("modality, fusion", [("avt", f) for f in FUSION_MODES] + [("av", "max"), ("av", "subatten")])
    def test_lanes_match_one_bit_for_bit(self, monkeypatch, modality, fusion):
        # 3 CPUs give one lane per branch (3 threads, more than a 2-CPU machine
        # has cores); a short switch interval makes the threads interleave often
        runs = []
        started = record_pools(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (3, 2, 1):
                force_lanes(monkeypatch, cpus)
                model = MultiModalClassifier(small_config(modality, fusion), rng=np.random.default_rng(4))
                out = model(**small_inputs(np.random.default_rng(5), B=8, modality=modality))
                ad.backward(ad.sum_(ad.mul(out, out)))
                grads = {name: p.grad for name, p in model.named_parameters()}
                runs.append((out.data, grads, {k: v for k, v in model.state().items() if k not in grads}))
        finally:
            sys.setswitchinterval(interval)
        # one pool for the forward and one for the backward at 3 and at 2 CPUs, none at 1
        assert [p.workers for p in started] == [min(cpus, len(modality)) - 1 for cpus in (3, 3, 2, 2)]
        out1, grads1, bufs1 = runs[-1]
        assert len(bufs1) > 0
        for out, grads, bufs in runs[:-1]:
            assert np.array_equal(out, out1)
            assert grads.keys() == grads1.keys()
            assert all(np.array_equal(grads[k], grads1[k]) for k in grads1)
            assert bufs.keys() == bufs1.keys()
            assert all(np.array_equal(bufs[k], bufs1[k]) for k in bufs1)

    @pytest.mark.parametrize(
        "modality, min_work, cpus, pools",
        [("avt", 24, 2, [1]), ("avt", 24, 4, [2]), ("av", 24, 2, [1]), ("avt", 25, 2, []), ("a", 24, 2, []),
         ("avt", 24, 1, [])],
    )
    def test_one_pool_each_way_from_batch_times_hidden(self, monkeypatch, modality, min_work, cpus, pools):
        # batch 8 x lstm_hidden 3 = 24: at the gate the forward and the backward each start one pool, just below none
        force_lanes(monkeypatch, cpus, min_work)
        started = record_pools(monkeypatch)
        model = MultiModalClassifier(small_config(modality), rng=np.random.default_rng(4))
        out = model(**small_inputs(np.random.default_rng(5), B=8, modality=modality))
        assert [p.workers for p in started] == pools
        ad.backward(ad.sum_(out))
        assert [(p.workers, p.joined) for p in started] == [(w, True) for w in pools * 2]

    def test_caller_runs_lane_zero(self, monkeypatch):
        # 3 branches on 2 lanes: audio and text on the calling thread, visual on the worker
        force_lanes(monkeypatch, 2)
        model = MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(4))
        ran_on = {}
        for m in "avt":
            branch = getattr(model, f"branch_{m}")

            def forward(x, m=m, inner=branch.forward):
                ran_on[m] = threading.get_ident()
                return inner(x)

            branch.forward = forward
        model(**small_inputs(np.random.default_rng(5), B=8, modality="avt"))
        assert ran_on["a"] == ran_on["t"] == threading.get_ident() != ran_on["v"]

    def test_first_forward_pins_blas_to_one_thread(self):
        try:
            from numpy._core import _multiarray_umath

            ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
        except (ImportError, OSError, AttributeError):
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        probe = """
import ctypes
import numpy as np
from numpy._core import _multiarray_umath
from depest import autodiff as ad
from depest.model import BranchConfig, ModelConfig, MultiModalClassifier

threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
before = threads()
branch = BranchConfig(in_channels=8, conv_channels=(4,), pools=(1,), strides=(1,), lstm_hidden=3, out_dim=6)
model = MultiModalClassifier(
    ModelConfig(modality="avt", fusion="subatten", feature_dim=6, audio=branch, visual=branch, text=branch),
    rng=np.random.default_rng(0),
)
x = ad.tensor(np.zeros((2, 8, 5)))
model(audio=x, visual=x, text=x)
print(before, threads())
"""
        src = str(Path(model_mod.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        before, after = out.stdout.split()
        if before != "2":
            pytest.skip("OpenBLAS caps its threads at this machine's CPU count")
        assert after == "1"

    def test_branches_run_serially_where_blas_cannot_be_pinned(self, monkeypatch):
        # an OpenBLAS without the setter (numpy 1.x, another BLAS): no symbol to find
        force_lanes(monkeypatch, 2)
        started = record_pools(monkeypatch)
        monkeypatch.setattr(model_mod.ctypes, "CDLL", lambda path: object())
        model_mod._one_blas_thread.cache_clear()
        try:
            model = MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(4))
            model(**small_inputs(np.random.default_rng(5), B=8, modality="avt"))
            assert not model_mod._one_blas_thread()
        finally:
            model_mod._one_blas_thread.cache_clear()
        assert started == []

    def test_serial_forward_caps_malloc_arenas_once(self, monkeypatch):
        # batch 2 runs the branches serially, so no lane pass is there to make the call
        calls, real_cdll = [], ctypes.CDLL

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))

        monkeypatch.setattr(model_mod.ctypes, "CDLL", lambda path: Libc() if path is None else real_cdll(path))
        model_mod._one_blas_thread.cache_clear()
        try:
            model = MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(4))
            for _ in range(2):
                model(**small_inputs(np.random.default_rng(5), B=2, modality="avt"))
        finally:
            model_mod._one_blas_thread.cache_clear()
        assert calls == [(-8, 1)]

    def test_no_thread_outlives_a_pass(self, monkeypatch, rng):
        force_lanes(monkeypatch, 2)
        started = record_pools(monkeypatch)
        before = threading.active_count()
        model = MultiModalClassifier(small_config("avt"), rng=rng)
        out = model(**small_inputs(rng, B=8, modality="avt"))
        assert threading.active_count() == before
        ad.backward(ad.sum_(out))
        assert threading.active_count() == before
        clips = [tiny_clip(rng, (1, 2, 0, 3, 1, 0, 2, 1), clip_index=k) for k in range(9)]
        evaluate_clips(model, clips, MusdlConfig(n_classes=4, n_expanded=32, sigma=5.0), batch_size=8)
        assert threading.active_count() == before
        # the forward, its backward and the eval batch of 8 (its batch of 1 runs serially), each joined before returning
        assert [(p.workers, p.joined) for p in started] == [(1, True)] * 3

    def test_a_pass_leaves_no_array_to_the_cyclic_collector(self, monkeypatch, rng):
        # a forward on lanes and its backward, then an eval: every Tensor and
        # array dies with its last reference, none waits in a reference cycle
        force_lanes(monkeypatch, 2)
        started = record_pools(monkeypatch)
        model = MultiModalClassifier(small_config("avt"), rng=rng)
        clips = [tiny_clip(rng, (1, 2, 0, 3, 1, 0, 2, 1), clip_index=k) for k in range(9)]
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            ad.backward(ad.sum_(model(**small_inputs(rng, B=8, modality="avt"))))
            evaluate_clips(model, clips, MusdlConfig(n_classes=4, n_expanded=32, sigma=5.0), batch_size=8)
            gc.collect()
            kept = [type(o).__name__ for o in gc.garbage if isinstance(o, (ad.Tensor, np.ndarray))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert kept == []
        assert [p.workers for p in started] == [1] * 3  # the forward, its backward and the eval batch of 8

    def test_worker_branch_error_reaches_the_caller_and_stops_the_pass(self, monkeypatch):
        # 3 branches on 2 lanes: visual raises on the worker while audio runs
        # on the caller, and text, the caller's next branch, never starts
        force_lanes(monkeypatch, 2)
        started = record_pools(monkeypatch)
        model = MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(4))
        audio_started, failed, ran = threading.Event(), threading.Event(), []

        def visual(x):
            audio_started.wait(5)
            failed.set()
            raise NumericError("visual branch failed")

        def audio(x, inner=model.branch_a.forward):
            audio_started.set()
            failed.wait(5)
            time.sleep(0.1)  # time for the error to reach the scheduler
            ran.append("a")
            return inner(x)

        def text(x, inner=model.branch_t.forward):
            ran.append("t")
            return inner(x)

        model.branch_a.forward, model.branch_v.forward, model.branch_t.forward = audio, visual, text
        before = threading.active_count()
        with pytest.raises(NumericError, match="visual branch failed"):
            model(**small_inputs(np.random.default_rng(5), B=8, modality="avt"))
        assert ran == ["a"]
        assert threading.active_count() == before
        assert [(p.workers, p.joined) for p in started] == [(1, True)]

    def test_worker_branch_backward_error_reaches_the_caller(self, monkeypatch):
        # 3 branches on 2 lanes: the visual branch's backward runs on the worker, and its error reaches backward's caller
        force_lanes(monkeypatch, 2)
        started = record_pools(monkeypatch)
        model = MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(4))
        ran_on = []

        def visual(x, inner=model.branch_v.forward):
            out = inner(x)

            def bwd(g):
                ran_on.append(threading.get_ident())
                raise NumericError("visual backward failed")

            out._backward = bwd
            return out

        model.branch_v.forward = visual
        out = model(**small_inputs(np.random.default_rng(5), B=8, modality="avt"))
        before = threading.active_count()
        with pytest.raises(NumericError, match="visual backward failed"):
            ad.backward(ad.sum_(out))
        assert len(ran_on) == 1 and ran_on[0] != threading.get_ident()
        assert threading.active_count() == before
        assert [(p.workers, p.joined) for p in started] == [(1, True), (1, True)]

    def test_training_on_lanes_matches_serial_bit_for_bit(self, monkeypatch):
        # two epochs of SAM steps and evals through train, lanes forced against one CPU
        rng = np.random.default_rng(6)
        clips = [tiny_clip(rng, tuple(rng.integers(0, 4, size=N_ITEMS)), participant_id=f"P{k:03d}",
                           gender=("female", "male")[k % 2]) for k in range(16)]
        runs = []
        for cpus in (2, 1):
            force_lanes(monkeypatch, cpus)
            started = record_pools(monkeypatch)
            model = MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(4))
            log = io.StringIO()
            train(model, clips, SamConfig(rho=0.05, lr=0.05, momentum=0.9),
                  MusdlConfig(n_classes=4, n_expanded=32, sigma=5.0), epochs=2, batch_size=8, seed=3, log_fh=log)
            runs.append((log.getvalue(), model.state(), len(started)))
        (log2, state2, pools2), (log1, state1, pools1) = runs
        # per epoch: 2 steps x 2 SAM passes, a forward and a backward each, and 2 eval batches
        assert (pools2, pools1) == (20, 0)
        assert log2 == log1 and len(log1.splitlines()) == 2
        assert state2.keys() == state1.keys()
        assert all(state2[k].tobytes() == state1[k].tobytes() for k in state1)

    def test_cli_train_then_preprocess_in_one_process(self, monkeypatch, tmp_path):
        # preprocess forks its session workers after train ran threaded passes
        force_lanes(monkeypatch, 2)
        started = record_pools(monkeypatch)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "feature_dim = 8\nlstm_hidden = 4\naudio_channels = 8\naudio_strides = 4\naudio_pools = 2\n"
            "visual_channels = 8\nvisual_strides = 4\nvisual_pools = 2\ntext_channels = 8\nbatch_size = 8\n"
        )
        raw, clips = tmp_path / "raw", tmp_path / "clips"
        assert main(["synth-data", "--out-dir", str(raw), "--participants", "8", "--duration-s", "70"]) == 0
        prep = ["preprocess", "--manifest", str(raw / "manifest.csv"), "--config", str(cfg)]
        assert main(prep + ["--out-dir", str(clips)]) == 0
        before = threading.active_count()
        assert main(["train", "--clips-dir", str(clips), "--out-dir", str(tmp_path / "run"),
                     "--config", str(cfg), "--epochs", "1"]) == 0
        assert started and all(p.joined for p in started) and threading.active_count() == before
        assert main(prep + ["--out-dir", str(tmp_path / "again")]) == 0


class TestSamRunningStats:
    @pytest.mark.parametrize("rho", [0.05, 0.0])
    @pytest.mark.parametrize("cpus", [None, 2], ids=["serial", "lanes"])
    def test_step_updates_running_stats_once_at_the_unperturbed_weights(self, monkeypatch, cpus, rho):
        # SAM's perturbed pass updates no batch-norm statistics, on the pool
        # lane (the visual branch) too: a step leaves the running stats of one
        # training-mode forward of the weights it started from
        if cpus:
            force_lanes(monkeypatch, cpus)
        inputs = small_inputs(np.random.default_rng(5), B=8, modality="avt")
        ref, model = (MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(4)) for _ in range(2))
        before = {k: v.copy() for k, v in model.state().items()}
        ref(**inputs)
        started = record_pools(monkeypatch)

        def loss_fn():
            out = model(**inputs)
            return ad.sum_(ad.mul(out, out))

        SamOptimizer(list(model.parameters()), SamConfig(rho=rho, lr=0.1)).step(loss_fn)
        # a pool for each forward and each backward, one pass at rho = 0 and two above
        assert len(started) == (2 + 2 * (rho > 0) if cpus else 0)
        want, got = ref.state(), model.state()
        stats = [k for k in got if k.endswith(("running_mean", "running_var"))]
        assert len(stats) == 2 * (3 + 8)  # a batch norm per branch and 8 in the bank
        for k in stats:
            assert got[k].tobytes() == want[k].tobytes(), k
            assert not np.array_equal(got[k], before[k]), k


class TestClipPlumbing:
    def test_clip_to_inputs_layout(self, rng):
        clip = tiny_clip(rng, (1, 0, 2, 0, 1, 0, 0, 3))
        inputs = batch_inputs([clip], small_config("avt"))
        assert inputs["audio"].data.shape == (1, 8, 12)
        assert inputs["visual"].data.shape == (1, 3, 72, 6)
        assert inputs["text"].data.shape == (1, 512, 4)
        # visual transpose: [T,72,3] -> [3,72,T], content preserved
        np.testing.assert_allclose(
            inputs["visual"].data[0, :, :, 2], clip.visual[2].T.astype(np.float32), atol=1e-7
        )

    def test_clip_without_visual_frames_rejected(self, rng):
        clip = tiny_clip(rng, (0,) * 8, t_vis=6)
        clip.visual = np.zeros((0, 72, 3))
        with pytest.raises(DataError):
            batch_inputs([clip], small_config("av"))

    def test_unused_modalities_skipped(self, rng):
        clip = tiny_clip(rng, (0,) * 8)
        inputs = batch_inputs([clip], small_config("a"))
        assert set(inputs) == {"audio"}

    def test_batch_inputs_stacks(self, rng):
        clips = [tiny_clip(rng, (0,) * 8, clip_index=k) for k in range(3)]
        batch = batch_inputs(clips, small_config("av"))
        assert batch["audio"].data.shape == (3, 8, 12)
        assert batch["visual"].data.shape == (3, 3, 72, 6)

    def test_batch_inputs_are_c_contiguous(self, rng):
        # the visual branch folds [B,3,72,T] into [B,216,T] as a view
        clips = [tiny_clip(rng, (0,) * 8, clip_index=k) for k in range(3)]
        batch = batch_inputs(clips, small_config("avt"))
        for key, t in batch.items():
            assert t.data.flags.c_contiguous, key
            assert t.data.dtype == np.float32
        np.testing.assert_array_equal(batch["visual"].data[1], clips[1].visual.transpose(2, 1, 0).astype(np.float32))
        np.testing.assert_array_equal(batch["text"].data[2], clips[2].text.T.astype(np.float32))

    def test_batch_inputs_ragged_rejected(self, rng):
        clips = [tiny_clip(rng, (0,) * 8), tiny_clip(rng, (0,) * 8, t_audio=20)]
        with pytest.raises(ShapeError):
            batch_inputs(clips, small_config("a"))
        # the error names the first clip that differs from clip 0
        clips = [tiny_clip(rng, (0,) * 8, participant_id=f"P00{k}", clip_index=k, t_vis=7 if k >= 2 else 6)
                 for k in range(4)]
        with pytest.raises(ShapeError, match=r"clip 2 of P002 is \(3, 72, 7\), clip 0 of P000 is \(3, 72, 6\)"):
            batch_inputs(clips, small_config("av"))

    def test_batch_inputs_empty_rejected(self):
        with pytest.raises(DataError):
            batch_inputs([], small_config("a"))


class TestStateTransfer:
    def test_state_roundtrip_reproduces_outputs(self, rng):
        cfg = small_config("av", "subatten")
        model = MultiModalClassifier(cfg, rng=rng, dtype=np.float64)
        model.eval()
        inputs = small_inputs(rng, B=2, modality="av")
        ref = model(**inputs).data

        fresh = MultiModalClassifier(cfg, rng=np.random.default_rng(99), dtype=np.float64)
        fresh.eval()
        assert not np.allclose(fresh(**inputs).data, ref)
        fresh.load_state(model.state())
        np.testing.assert_array_equal(fresh(**inputs).data, ref)

    def test_checkpoint_holds_exactly_the_trained_state(self, tmp_path):
        # one SAM step moves the running statistics; a save and load then
        # gives a fresh model every state() entry's bits and dtype
        model = MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(4))
        inputs = small_inputs(np.random.default_rng(5), B=4, modality="avt")

        def loss_fn():
            out = model(**inputs)
            return ad.sum_(ad.mul(out, out))

        SamOptimizer(list(model.parameters()), SamConfig(rho=0.05, lr=0.1)).step(loss_fn)
        tensorio.save_checkpoint(tmp_path / "model.ckpt", epoch=1, config_text="", state=model.state())
        fresh = MultiModalClassifier(small_config("avt"), rng=np.random.default_rng(9))
        init = {k: v.copy() for k, v in fresh.state().items()}
        fresh.load_state(tensorio.load_checkpoint(tmp_path / "model.ckpt").state)
        want, got = model.state(), fresh.state()
        assert list(got) == list(want)
        stats = [k for k in want if k.endswith(("running_mean", "running_var"))]
        assert len(stats) == 22 and not any(np.array_equal(want[k], init[k]) for k in stats)
        for k in want:
            assert got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes(), k

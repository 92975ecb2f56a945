"""Span tracer that wraps depest's public functions from outside the package.

Nothing under ``src/`` knows about it: ``Tracer.install`` rebinds every
public function of the traced modules, in every depest module that holds
a reference to it (so names imported with ``from .x import y`` are
caught too), and replaces ``forward``/``__call__`` on the ``Module``
subclasses of ``model`` and ``fusion`` (those classes bind
``__call__ = forward`` at class creation, so patching ``forward`` alone
would miss calls).

Each span records its self time: its duration minus the time covered by
the spans it encloses. Spans are bucketed by scope: ``step`` inside a
SAM step, ``eval`` inside ``evaluate_clips``, ``other`` elsewhere, so a
layer's per-step time is not mixed with its eval-time forward passes.

Layer ops have no public backward entry point; their backward time is
taken by wrapping the backward closure of the graph node each wrapped op
returns.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

TRACED_MODULES = (
    "autodiff", "layers", "model", "fusion", "musdl", "sam", "sampling", "phq",
    "training", "synthetic", "features", "dsp", "data", "tensorio", "cli",
)
LAYER_OPS = ("conv1d", "conv2d", "bilstm", "batch_norm", "max_pool1d")
MODULE_CLASS_OWNERS = ("model", "fusion")
# autodiff's elementwise ops run thousands of times per pass; only the
# backward driver is timed there and graph nodes are counted instead
AUTODIFF_TIMED = ("backward",)
KEYPOINT_TEXT = ("features.read_keypoints", "features.write_keypoints")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)  # (scope, span) -> seconds
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.nodes = defaultdict(int)  # scope -> graph nodes created
        self.text_bytes = defaultdict(int)  # span -> keypoint text bytes
        self.data_wait_s = 0.0
        self.data_waits = 0
        self.scope = "other"
        self._open = []  # child-time accumulator of each open span
        self._wait_from = None

    def reset(self):
        """Drop everything recorded so far (used after the warm-up)."""
        for table in (self.self_s, self.total_s, self.calls, self.nodes, self.text_bytes):
            table.clear()
        self.data_wait_s = 0.0
        self.data_waits = 0
        self._wait_from = None

    # -- span bookkeeping ------------------------------------------------

    def span(self, name, fn, scope=None):
        tracer = self

        def traced(*args, **kwargs):
            outer = tracer.scope
            if scope is not None:
                tracer.scope = scope
            child = [0.0]
            tracer._open.append(child)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._open.pop()
                key = (tracer.scope, name)
                tracer.self_s[key] += dt - child[0]
                tracer.total_s[key] += dt
                tracer.calls[key] += 1
                if tracer._open:
                    tracer._open[-1][0] += dt
                tracer.scope = outer

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"depest.{name}") for name in TRACED_MODULES}
        every = [importlib.import_module("depest.config")] + list(mods.values())

        def rebind(orig, new):
            for m in every:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, new)
                    elif isinstance(val, dict):  # dispatch tables such as cli._COMMANDS
                        for key, entry in list(val.items()):
                            if entry is orig:
                                val[key] = new

        for short, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if short == "autodiff" and fname not in AUTODIFF_TIMED:
                    continue
                rebind(fn, self._wrap_function(f"{short}.{fname}", fn))

        ad = mods["autodiff"]
        node = ad._node
        rebind(node, self._count_nodes(node))

        for short in MODULE_CLASS_OWNERS:
            mod = mods[short]
            for cname, cls in list(vars(mod).items()):
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__ and "forward" in vars(cls)):
                    continue
                orig = vars(cls)["forward"]
                traced = self.span(f"{short}.{cname}.forward", orig)
                cls.forward = traced
                if vars(cls).get("__call__") is orig:
                    cls.__call__ = traced

        sam_opt = mods["sam"].SamOptimizer
        sam_opt.step = self._wrap_sam_step(sam_opt.step)

    def _wrap_function(self, name, fn):
        short = name.split(".", 1)[1]
        if name.startswith("layers.") and short in LAYER_OPS:
            return self._wrap_layer_op(name, short, fn)
        if name == "training.evaluate_clips":
            return self.span(name, fn, scope="eval")
        if name == "sampling.draw_indices":
            return self._wrap_draw(self.span(name, fn))
        if name in KEYPOINT_TEXT:
            return self._wrap_text_io(name, self.span(name, fn))
        return self.span(name, fn)

    def _wrap_layer_op(self, name, op, fn):
        fwd = self.span(f"{name}.fwd", fn)
        bwd_name = f"{name}.bwd"
        tracer = self

        def layer_op(*args, **kwargs):
            out = fwd(*args, **kwargs)
            node = out if out._op == op else out._parents[0]  # unbatched ops return a reshape
            if node._backward is not None:
                node._backward = tracer.span(bwd_name, node._backward)
            return out

        return layer_op

    def _count_nodes(self, node):
        tracer = self

        def counted(*args, **kwargs):
            tracer.nodes[tracer.scope] += 1
            return node(*args, **kwargs)

        return counted

    def _wrap_draw(self, traced):
        tracer = self

        def draw(*args, **kwargs):
            # the wait for a batch starts at the sampler draw and ends when
            # the SAM step begins (batch_inputs, target slicing, weights)
            tracer._wait_from = time.perf_counter()
            return traced(*args, **kwargs)

        return draw

    def _wrap_text_io(self, name, traced):
        tracer = self
        reading = name.endswith("read_keypoints")

        def text_io(path, *args, **kwargs):
            if reading:
                tracer.text_bytes[name] += os.path.getsize(path)
            out = traced(path, *args, **kwargs)
            if not reading:
                tracer.text_bytes[name] += os.path.getsize(path)
            return out

        return text_io

    def _wrap_sam_step(self, step):
        tracer = self
        traced_step = self.span("sam.step", step, scope="step")

        def sam_step(opt, loss_fn):
            if tracer._wait_from is not None:
                tracer.data_wait_s += time.perf_counter() - tracer._wait_from
                tracer.data_waits += 1
                tracer._wait_from = None
            return traced_step(opt, tracer.span("sam.loss_eval", loss_fn))

        return sam_step

    # -- export ----------------------------------------------------------

    def export(self) -> dict:
        """Plain-JSON view of the collected spans and counters."""
        keys = sorted(self.calls)
        return {
            "spans": [
                {"scope": s, "name": n, "calls": self.calls[(s, n)],
                 "self_s": self.self_s[(s, n)], "total_s": self.total_s[(s, n)]}
                for s, n in keys
            ],
            "nodes": dict(self.nodes),
            "text_bytes": dict(self.text_bytes),
            "data_wait_s": self.data_wait_s,
            "data_waits": self.data_waits,
        }

"""Machine-speed probe interleaved with a workload's timed operations.

On a shared machine the speed a process gets drifts by tens of percent
over minutes (neighbours contend for cores, caches and memory), which
moves every wall time in a run together. A short fixed probe is run
between timed operations; each operation's time is rescaled by how much
slower than ``REF_PROBE_S`` the probes on either side of it ran, which
cancels the drift that the probe and the operation share. The probe is
benchmark code, so a change to depest cannot change it.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

# about the probe's time on a 2-CPU x86-64 machine (numpy 2.4, OpenBLAS,
# 1 thread); it only sets the unit of the rescaled times
REF_PROBE_S = 0.03
# On the 2-CPU development machine the speed of a fixed kernel stays
# correlated over about 4 s (autocorrelation 0.48 at 1 s, 0.19 at 4 s,
# 0 at 10 s), so operations at least this long are left unscaled.
PACE_MAX_OP_S = 5.0


class Pace:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((16, 128)).astype(np.float32)
        self._w = rng.standard_normal((128, 512)).astype(np.float32)
        self._u = rng.standard_normal((128, 512)).astype(np.float32)
        self._v = rng.standard_normal(216)
        self._big = rng.standard_normal(200_000)
        self.spent = 0.0  # seconds spent probing
        self.created = time.monotonic()
        self.last = self.probe()
        self.first_factor = REF_PROBE_S / self.last

    def probe(self) -> float:
        """One probe: small GEMMs, elementwise numpy and float formatting."""
        t0 = time.perf_counter()
        h = self._x
        for _ in range(150):
            h = np.tanh(self._x @ self._w + h @ self._u)[:, :128]
        for _ in range(70):
            " ".join(f"{v:.8g}" for v in self._v)
        for _ in range(2):
            np.sort(self._big * 1.0001)
        dt = time.perf_counter() - t0
        self.spent += dt
        return dt

    def factor(self) -> float:
        """Reference speed over the speed seen since the last call."""
        now = self.probe()
        f = REF_PROBE_S / (0.5 * (self.last + now))
        self.last = now
        return f

    @contextlib.contextmanager
    def section(self, record: list):
        """Append (wall seconds, pace factor) of the enclosed block to record."""
        t0 = time.perf_counter()
        probed = self.spent
        yield
        dt = time.perf_counter() - t0 - (self.spent - probed)  # probes inside are not counted
        record.append((dt, self.factor()))

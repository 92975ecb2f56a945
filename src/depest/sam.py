"""Sharpness-aware minimization wrapped around plain SGD.

Each step evaluates the loss twice: once at the current weights to get
an ascent direction, once at the perturbed weights w + rho * g/||g|| to
get the gradient the base optimizer actually applies. Weights are
snapshot-restored bit-for-bit before the base update, the perturbation
norm is exactly rho under the global (all parameters flattened) L2
norm, and a zero first gradient skips the perturbation and falls back
to a plain step. The perturbed pass, under ``passes(update_stats=False)``,
updates no batch-norm statistics (Foret et al.'s ``disable_running_stats``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, backward, passes
from .errors import ConfigError


@dataclass(frozen=True)
class SamConfig:
    rho: float
    lr: float
    momentum: float = 0.0

    def __post_init__(self):
        if self.rho < 0:
            raise ConfigError(f"rho must be >= 0, got {self.rho}")
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0,1), got {self.momentum}")


class Sgd:
    """Vanilla SGD with optional heavy-ball momentum."""

    def __init__(self, params, lr: float, momentum: float = 0.0):
        self.params = list(params)
        if not self.params:
            raise ConfigError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ConfigError(f"learning rate must be > 0, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params] if momentum else None

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def apply_gradients(self, grads) -> None:
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if g is None:
                continue
            if self._velocity is not None:
                self._velocity[i] = self.momentum * self._velocity[i] + g
                g = self._velocity[i]
            p.data = p.data - self.lr * g.astype(p.data.dtype)

    def step(self) -> None:
        self.apply_gradients([p.grad for p in self.params])


class SamOptimizer:
    """Two-pass sharpness-aware step driving a base SGD.

    The caller provides a closure that rebuilds the loss from current
    parameter values; the optimizer runs it twice per step, the second
    time perturbed and updating no running statistics. With rho=0 the
    trajectory is identical to the base optimizer alone.
    """

    def __init__(self, params, config: SamConfig):
        self.params = list(params)
        self.config = config
        self.base = Sgd(self.params, lr=config.lr, momentum=config.momentum)

    def _eval_grads(self, loss_fn) -> tuple[float, list]:
        self.base.zero_grad()
        loss = loss_fn()
        if not isinstance(loss, Tensor):
            raise ConfigError("loss closure must return a scalar graph tensor")
        backward(loss)  # raises NumericError on a non-finite loss
        # references, not copies: the next pass starts from p.grad = None and the update replaces p.data
        return float(loss.data), [p.grad for p in self.params]

    @staticmethod
    def _global_norm(grads) -> float:
        total = 0.0
        for g in grads:
            if g is not None:
                total += float(np.sum(g.astype(np.float64) ** 2))
        return float(np.sqrt(total))

    def step(self, loss_fn) -> float:
        """Run one SAM update; returns the unperturbed loss value."""
        loss_value, g1 = self._eval_grads(loss_fn)

        norm = self._global_norm(g1) if self.config.rho > 0.0 else 0.0
        if norm == 0.0:
            # rho = 0, or the ascent direction is undefined: a plain step with the first gradient
            self.base.apply_gradients(g1)
            return loss_value

        scale = self.config.rho / norm
        snapshot = [p.data for p in self.params]  # the perturbation below replaces p.data, never writes it
        for p, g in zip(self.params, g1):
            if g is not None:
                p.data = p.data + scale * g.astype(p.data.dtype)

        try:
            with passes(update_stats=False):
                _, g2 = self._eval_grads(loss_fn)
        finally:
            for p, s in zip(self.params, snapshot):
                p.data = s

        self.base.apply_gradients(g2)
        return loss_value

"""Adam with decoupled weight decay, plus the global gradient norm."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


class Adam:
    """Bias-corrected Adam; weight decay is decoupled from the moments."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape} for {name}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad**2).sum())
    return math.sqrt(total)

"""Adam with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam; weight decay is decoupled from the moments.

    The caller owns the learning rate and its schedule and passes it to
    every ``step``; it also clears the gradients between steps.
    """

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0):
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape} for {name}")
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr * update

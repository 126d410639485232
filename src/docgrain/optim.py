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

    A step updates the moments and the parameters in place. Its
    intermediates go to two scratch rows sized to the largest parameter,
    which every parameter reuses through views, so a step allocates no
    array of a parameter's size.
    """

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0):
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._scratch = np.empty((2, max((p.data.size for p in params.values()), default=0)))

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for name, p in self.params.items():
            shape = p.data.shape
            g = p.grad
            if g is not None and g.shape != shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {shape} for {name}")
            a = self._scratch[0, : p.data.size].reshape(shape)
            b = self._scratch[1, : p.data.size].reshape(shape)
            if g is None:
                g = b
                g.fill(0.0)
            m = self.m[name]
            v = self.v[name]
            # The textbook expressions, one temporary at a time:
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
            # update = (m/bc1) / (sqrt(v/bc2) + eps) + wd*w, w -= lr*update.
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=b)
                a += b
            a *= lr
            p.data -= a

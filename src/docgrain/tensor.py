"""Dense float64 tensors with reverse-mode differentiation.

Every operation records a backward closure on a dynamically built graph;
calling ``backward()`` on a scalar walks the graph in reverse topological
order. The numerical heavy lifting is delegated to numpy, the tape and all
gradients are implemented here. A single graph is confined to one thread.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

_grad_enabled = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all routing goes through the module-level ops.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other), scale(self, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        raise TypeError("tensor division only supports scalars")

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return sum_all(self)

    def mean(self):
        return scale(sum_all(self), 1.0 / self.data.size)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ValueError(f"shape mismatch in add: {a.shape} vs {b.shape}") from None

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ValueError(f"shape mismatch in mul: {a.shape} vs {b.shape}") from None

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * s)

    return _make(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, or of two equal-length stacks of
    matrices (one product per leading index). The backward pass computes a
    gradient only for operands that require one."""
    if not (
        a.data.ndim == b.data.ndim in (2, 3)
        and a.shape[:-2] == b.shape[:-2]
        and a.shape[-1] == b.shape[-2]
    ):
        raise ValueError(f"shape mismatch in matmul: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b._accumulate(a.data.swapaxes(-1, -2) @ g)

    return _make(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a matrix ``x`` and a bias row ``b``, as one node."""
    data = _affine(x.data, w, b)

    def backward(g: np.ndarray) -> None:
        _affine_backward(x, w, b, g)

    return _make(data, (x, w, b), backward)


def _affine(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    if x.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ValueError(f"shape mismatch in linear: {x.shape} @ {w.shape} + {b.shape}")
    return x @ w.data + b.data


def _affine_backward(x: Tensor, w: Tensor, b: Tensor, g: np.ndarray) -> None:
    x._accumulate(g @ w.data.T)
    w._accumulate(x.data.T @ g)
    b._accumulate(g.sum(axis=0))


def project_heads(x: Tensor, w: Tensor, b: Tensor, heads: int, keys: bool = False) -> Tensor:
    """``x @ w + b`` split column-wise into ``heads`` equal blocks, stacked
    head-major: (heads, n, d_k), or (heads, d_k, n) with ``keys`` so that
    the score product needs no transpose. Head ``i`` holds columns
    ``i*d_k:(i+1)*d_k``."""
    n, d = x.shape[0], w.shape[1]
    if d % heads != 0:
        raise ValueError(f"width {d} not divisible by {heads} heads")
    split = _affine(x.data, w, b).reshape(n, heads, d // heads)
    data = np.ascontiguousarray(split.transpose((1, 2, 0) if keys else (1, 0, 2)))

    def backward(g: np.ndarray) -> None:
        g_split = g.transpose((2, 0, 1) if keys else (1, 0, 2))
        _affine_backward(x, w, b, g_split.reshape(n, d))

    return _make(data, (x, w, b), backward)


def merge_heads(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stacked heads (heads, n, d_k) concatenated column-wise to
    (n, heads*d_k), then ``@ w + b``: the inverse layout of
    ``project_heads``, as one node."""
    if a.data.ndim != 3:
        raise ValueError(f"merge_heads expects (heads, n, d_k), got shape {a.shape}")
    heads, n, dk = a.shape
    merged = a.data.transpose(1, 0, 2).reshape(n, heads * dk)
    data = _affine(merged, w, b)

    def backward(g: np.ndarray) -> None:
        a._accumulate((g @ w.data.T).reshape(n, heads, dk).transpose(1, 0, 2))
        w._accumulate(merged.T @ g)
        b._accumulate(g.sum(axis=0))

    return _make(data, (a, w, b), backward)


def attention_weights(q: Tensor, kt: Tensor, bias: Tensor | None, scale: float) -> Tensor:
    """Row-wise ``softmax(q @ kt * scale + bias)`` per head, as one node.

    ``q`` is (heads, n, d_k), ``kt`` (heads, d_k, m) and ``bias``
    (heads, n, m) or None. Each head's (n, m) block is computed in place in
    the output buffer, so no (heads, n, m) temporary is made; the backward
    pass needs only that buffer.
    """
    heads, n, dk = q.shape
    if kt.shape[:2] != (heads, dk) or (bias is not None and bias.shape != (heads, n, kt.shape[2])):
        bias_shape = None if bias is None else bias.shape
        raise ValueError(f"shape mismatch in attention_weights: {q.shape}, {kt.shape}, {bias_shape}")
    y = np.empty((heads, n, kt.shape[2]))
    for i in range(heads):
        yi = y[i]
        np.matmul(q.data[i], kt.data[i], out=yi)
        yi *= scale
        if bias is not None:
            yi += bias.data[i]
        yi -= yi.max(axis=-1, keepdims=True)
        np.exp(yi, out=yi)
        yi /= yi.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        gq = np.empty_like(q.data)
        gkt = np.empty_like(kt.data)
        # The bias gradient is the score gradient itself: write it straight
        # into a fresh bias.grad, or add it to one an earlier layer left.
        fresh = bias is not None and bias.grad is None
        if fresh:
            bias.grad = np.empty_like(bias.data)
        for i in range(heads):
            yi, gi = y[i], g[i]
            gs = bias.grad[i] if fresh else np.empty_like(yi)
            np.subtract(gi, (gi * yi).sum(axis=-1, keepdims=True), out=gs)
            gs *= yi
            if bias is not None and not fresh:
                bias.grad[i] += gs
            gs = gs * scale
            np.matmul(gs, kt.data[i].T, out=gq[i])
            np.matmul(q.data[i].T, gs, out=gkt[i])
        q._accumulate(gq)
        kt._accumulate(gkt)

    return _make(y, (q, kt) if bias is None else (q, kt, bias), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        a._accumulate(np.full_like(a.data, float(g)))

    return _make(np.asarray(a.data.sum()), (a,), backward)


def gather(table: Tensor, idx) -> Tensor:
    """Rows (or scalars) of ``table`` selected along axis 0 by ``idx``.

    ``idx`` may be any integer array shape; the backward pass scatter-adds
    into the table, so repeated indices accumulate.
    """
    idx = np.asarray(idx, dtype=np.int64)
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"gather index out of range for table with {n} rows")
    data = table.data[idx]

    def backward(g: np.ndarray) -> None:
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _make(data, (table,), backward)


def add_lookups(x: Tensor, lookups: Sequence[tuple[Tensor, object, int]]) -> Tensor:
    """``x`` plus table rows, as one node: for each ``(table, idx, col)``, in
    list order, row ``idx[i]`` of ``table`` is added into columns
    ``col:col + table.shape[1]`` of row ``i`` of the (n, d) ``x``.

    The backward pass hands ``g`` to ``x`` and scatter-adds each lookup's
    column block of ``g`` into its table, so repeated indices and repeated
    tables accumulate.
    """
    resolved = []
    for table, idx, col in lookups:
        idx = np.asarray(idx, dtype=np.int64)
        rows, width = table.shape
        if x.data.ndim != 2 or idx.shape != x.shape[:1] or col < 0 or col + width > x.shape[1]:
            raise ValueError(f"add_lookups shapes: input {x.shape}, table {table.shape} at column {col}, index {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= rows):
            raise ValueError(f"add_lookups index out of range for table with {rows} rows")
        resolved.append((table, idx, slice(col, col + width)))
    data = x.data.copy()
    for table, idx, cols in resolved:
        data[:, cols] += table.data[idx]

    def backward(g: np.ndarray) -> None:
        x._accumulate(g)
        for table, idx, cols in resolved:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g[:, cols])

    return _make(data, (x, *(table for table, _, _ in resolved)), backward)


def gather_heads(tables: Sequence[Tensor], indices: Sequence) -> Tensor:
    """Summed per-head lookups, head-major: entry ``[h, ...]`` is
    ``sum_t tables[t][indices[t][...], h]``.

    Every table is (rows, heads) and every index array has one common
    shape S; the result is (heads, *S). The backward pass scatter-adds with
    ``bincount``, so repeated indices accumulate.
    """
    idxs = [np.asarray(idx, dtype=np.int64) for idx in indices]
    if not tables or len(tables) != len(idxs):
        raise ValueError(f"gather_heads needs one index array per table, got {len(tables)} and {len(idxs)}")
    heads, shape = tables[0].shape[1], idxs[0].shape
    for table, idx in zip(tables, idxs):
        if table.data.ndim != 2 or table.shape[1] != heads or idx.shape != shape:
            raise ValueError(f"gather_heads shapes: table {table.shape}, index {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
            raise ValueError(f"gather_heads index out of range for table with {table.shape[0]} rows")
    columns = [np.ascontiguousarray(table.data.T) for table in tables]
    data = np.empty((heads, *shape))
    for h in range(heads):
        np.take(columns[0][h], idxs[0], out=data[h])
        for col, idx in zip(columns[1:], idxs[1:]):
            data[h] += col[h].take(idx)

    def backward(g: np.ndarray) -> None:
        flat_g = g.reshape(heads, -1)
        for table, idx in zip(tables, idxs):
            flat = idx.ravel()
            rows = table.shape[0]
            table._accumulate(np.stack([np.bincount(flat, weights=gh, minlength=rows) for gh in flat_g], axis=1))

    return _make(data, tuple(tables), backward)


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ValueError("concat_rows of empty sequence")
    data = np.concatenate([t.data for t in tensors], axis=0)
    sizes = [t.shape[0] for t in tensors]

    def backward(g: np.ndarray) -> None:
        off = 0
        for t, size in zip(tensors, sizes):
            t._accumulate(g[off : off + size])
            off += size

    return _make(data, tuple(tensors), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        full[start:stop] = g
        a._accumulate(full)

    return _make(a.data[start:stop].copy(), (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row standardization along the last axis, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    norm = centered * inv
    data = norm * gain.data + bias.data
    d = x.shape[-1]

    def backward(g: np.ndarray) -> None:
        gnorm = g * gain.data
        gvar = (gnorm * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        gmu = -(gnorm * inv).sum(axis=-1, keepdims=True) + gvar * (-2.0 / d) * centered.sum(axis=-1, keepdims=True)
        gx = gnorm * inv + gvar * 2.0 * centered / d + gmu / d
        x._accumulate(gx)
        gain._accumulate(_unbroadcast(g * norm, gain.shape))
        bias._accumulate(_unbroadcast(g, bias.shape))

    return _make(data, (x, gain, bias), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    data = a.data * cdf

    def backward(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * a.data**2) * _INV_SQRT2PI
        a._accumulate(g * (cdf + a.data * pdf))

    return _make(data, (a,), backward)


IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, targets, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean negative log-softmax over the non-ignored positions."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValueError(f"cross_entropy shapes: logits {logits.shape}, targets {targets.shape}")
    keep = targets != ignore_index
    count = int(keep.sum())
    if count == 0:
        raise ValueError("cross_entropy: all positions ignored")
    n_classes = logits.shape[1]
    if targets[keep].min() < 0 or targets[keep].max() >= n_classes:
        raise ValueError(f"target out of range for {n_classes} classes")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(logits.shape[0])
    losses = lse - shifted[rows, targets.clip(0)]
    data = np.asarray(losses[keep].mean())

    def backward(g: np.ndarray) -> None:
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows[keep], targets[keep]] -= 1.0
        p[~keep] = 0.0
        logits._accumulate(p * (float(g) / count))

    return _make(data, (logits,), backward)


def grad_check(
    f: Callable[[Tensor], Tensor],
    theta: Tensor,
    h: float = 1e-5,
    coords: Iterable[tuple[int, ...]] | None = None,
) -> float:
    """Max relative error between reverse-mode and central differences.

    ``f`` must be a deterministic scalar-valued function of ``theta``.
    ``coords`` restricts which entries are perturbed (all by default);
    the relative error denominator is max(|analytic|, |numeric|, 1e-8),
    and a non-finite error counts as infinite.
    """
    theta.zero_grad()
    out = f(theta)
    if not np.isfinite(out.data).all():
        raise ValueError("grad_check: function value is not finite")
    out.backward()
    analytic = np.zeros_like(theta.data) if theta.grad is None else theta.grad.copy()

    if coords is None:
        coords = list(np.ndindex(*theta.shape)) if theta.shape else [()]
    worst = 0.0
    flat = theta.data
    with no_grad():
        for c in coords:
            saved = flat[c]
            flat[c] = saved + h
            up = float(f(theta).data)
            flat[c] = saved - h
            down = float(f(theta).data)
            flat[c] = saved
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err if math.isfinite(err) else math.inf)
    theta.zero_grad()
    return worst

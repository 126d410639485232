"""Dense float64 tensors with reverse-mode differentiation.

Every operation records a backward closure on a dynamically built graph;
calling ``backward()`` on a scalar walks the graph in reverse topological
order and releases it as it goes: each node's closure and parents are
dropped before the closure runs, so saved activations are freed during the
sweep, and a second ``backward()`` through the released graph raises
``RuntimeError``. The numerical heavy lifting is delegated to numpy, the
tape and all gradients are implemented here. A single graph is confined to
one thread.

Each sublayer of the post-LN Transformer layer is one node:
``self_attention`` (projections, per-head softmax, head merge and output
affine), ``gelu_ffn`` and ``residual_layer_norm``. So is each input stage,
a sum plus table-row lookups (``add_lookups``, ``fine_input_sum``,
``coarse_input_sum``), and the head plus loss, ``linear_cross_entropy``.
Their arithmetic order, including the order in which gradients are added
into a shared input, is fixed: the tests hold their outputs and gradients
byte-equal to chains of single-step reference ops. A taped attention keeps
the weights of all heads in one (heads, n, n) buffer for its backward
pass; without a tape, once they would pass ``_SCORE_TILE`` scores, one
(n, n) buffer scores the heads in turn, with the same bits.

Every gradient reaches a tensor through ``_accumulate``: a first one is
copied into a C-contiguous ``.grad`` that the tensor owns, later ones are
added into it in place, so no two gradients share memory.

numpy is the only dependency: the GELU's erf is scipy's cephes erf,
evaluated in numpy with the same coefficients and operation order, so it
gives scipy's bits without importing scipy.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

_grad_enabled = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-6
# Above this many attention scores (512 KiB), a self_attention that no
# tape records scores its heads one at a time.
_SCORE_TILE = 2**16
_RELEASED = "backward() through a graph that an earlier backward() released"


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
        """Add ``g`` into ``.grad``, copying a first ``g`` into a C-contiguous
        array."""
        if self.grad is None:
            self.grad = np.array(g, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        The sweep releases the graph as it goes: each node's backward
        closure and parents are dropped just before the closure runs, so an
        activation is freed once the last closure that reads it has run.
        The root keeps its value and every node its ``.grad``; a second
        ``backward()`` through a released node raises ``RuntimeError``."""
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
            if node._backward is _released:
                raise RuntimeError(_RELEASED)
            seen.add(id(node))
            stack.append((node, True))
            # Leaves have nothing to run; leaving them out keeps the order
            # of the nodes that do.
            for p in node._parents:
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            backward = node._backward
            if backward is None:
                continue
            node._backward, node._parents = _released, ()
            if node.grad is not None:
                backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _released(g: np.ndarray) -> None:
    """Stands in for the backward closure of a node once a sweep has run
    and dropped it."""
    raise RuntimeError(_RELEASED)


def _taped(parents: tuple[Tensor, ...]) -> bool:
    """Whether ``_make`` records a node over ``parents`` on the tape."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _taped(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices. The backward pass computes a gradient only
    for operands that require one."""
    if not (a.data.ndim == b.data.ndim == 2 and a.shape[1] == b.shape[0]):
        raise ValueError(f"shape mismatch in matmul: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor, rows: int | None = None) -> Tensor:
    """``x[:rows] @ w + b`` for a matrix ``x`` and a bias row ``b``, as one
    node: every row of ``x`` by default, else its first ``rows``."""
    data = _affine(x.data[:rows], w, b)

    def backward(g: np.ndarray) -> None:
        _affine_backward(x, w, b, g)

    return _make(data, (x, w, b), backward)


def _affine(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    if x.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ValueError(f"shape mismatch in linear: {x.shape} @ {w.shape} + {b.shape}")
    out = x @ w.data
    out += b.data
    return out


def _affine_backward(x: Tensor, w: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Gradients of ``x[:len(g)] @ w + b``; the rows of ``x`` past ``len(g)``
    receive zeros."""
    n = g.shape[0]
    if x.requires_grad:
        gx = g @ w.data.T
        if n < x.shape[0]:
            full = np.zeros_like(x.data)
            full[:n] = gx
            gx = full
        x._accumulate(gx)
    w._accumulate(x.data[:n].T @ g)
    b._accumulate(g.sum(axis=0))


def self_attention(
    h: Tensor,
    wq: Tensor,
    bq: Tensor,
    wk: Tensor,
    bk: Tensor,
    wv: Tensor,
    bv: Tensor,
    wo: Tensor,
    bo: Tensor,
    heads: int,
    bias: Tensor | None,
) -> Tensor:
    """Multi-head scaled dot-product self-attention over the rows of ``h``,
    as one node.

    Head ``i`` attends with columns ``i*d_k:(i+1)*d_k`` of the projections
    ``h @ wq + bq``, ``h @ wk + bk`` and ``h @ wv + bv``: its weights are
    ``softmax(q_i @ k_i.T / sqrt(d_k) + bias[i])`` row-wise, with ``bias``
    (heads, n, n) or None. The heads' ``weights @ v_i`` are concatenated
    column-wise, then ``@ wo + bo``. With a tape, the weights of all heads
    are computed in place in one (heads, n, n) buffer, which the backward
    pass reuses, and the softmax and its gradient run over all heads at
    once. Without one, more than ``_SCORE_TILE`` scores are computed one
    head at a time in one (n, n) buffer, with the same bits.
    """
    n, d = h.shape[0], wq.shape[1]
    if n == 0:
        raise ValueError("self_attention over an empty sequence")
    if d % heads != 0:
        raise ValueError(f"width {d} not divisible by {heads} heads")
    if bias is not None and bias.shape != (heads, n, n):
        raise ValueError(f"attention bias of shape {bias.shape} for {heads} heads over {n} rows")
    dk = d // heads
    # Head-major stacks: q and v (heads, n, d_k), keys (heads, d_k, n).
    q = np.ascontiguousarray(_affine(h.data, wq, bq).reshape(n, heads, dk).transpose(1, 0, 2))
    kt = np.ascontiguousarray(_affine(h.data, wk, bk).reshape(n, heads, dk).transpose(1, 2, 0))
    v = np.ascontiguousarray(_affine(h.data, wv, bv).reshape(n, heads, dk).transpose(1, 0, 2))
    score_scale = 1.0 / math.sqrt(dk)
    parents = (h, wq, bq, wk, bk, wv, bv, wo, bo)
    if bias is not None:
        parents += (bias,)
    # Without a tape nothing reads the weights after ``weights @ v``. The
    # stacked products are one BLAS call per head, so scoring one head at a
    # time makes the same calls; tiles of rows would not, and OpenBLAS
    # picks its kernel, and with it the bits, by a product's shape.
    per_head = heads * n * n > _SCORE_TILE and not _taped(parents)
    y = np.empty((n, n) if per_head else (heads, n, n))
    # Head i's ``weights @ v`` is written into columns i*d_k:(i+1)*d_k of
    # ``merged``, so merging the heads copies nothing.
    merged = np.empty((n, d))
    context = merged.reshape(n, heads, dk).transpose(1, 0, 2)
    for t in range(heads) if per_head else [slice(None)]:
        np.matmul(q[t], kt[t], out=y)
        y *= score_scale
        if bias is not None:
            y += bias.data[t]
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        np.matmul(y, v[t], out=context[t])
    data = _affine(merged, wo, bo)

    def backward(g: np.ndarray) -> None:
        g_heads = (g @ wo.data.T).reshape(n, heads, dk).transpose(1, 0, 2)
        wo._accumulate(merged.T @ g)
        bo._accumulate(g.sum(axis=0))
        g_y = g_heads @ v.swapaxes(-1, -2)
        gv = y.swapaxes(-1, -2) @ g_heads
        gs = g_y - (g_y * y).sum(axis=-1, keepdims=True)
        gs *= y
        if bias is not None and bias.requires_grad:
            bias._accumulate(gs)
        gs = gs * score_scale
        gq = gs @ kt.swapaxes(-1, -2)
        gkt = q.swapaxes(-1, -2) @ gs
        # Back to (n, d) column blocks; h receives q's term, then k's, then v's.
        _affine_backward(h, wq, bq, gq.transpose(1, 0, 2).reshape(n, d))
        _affine_backward(h, wk, bk, gkt.transpose(2, 0, 1).reshape(n, d))
        _affine_backward(h, wv, bv, gv.transpose(1, 0, 2).reshape(n, d))

    return _make(data, parents, backward)


# The coefficients of cephes ndtr.c, the rational approximations behind
# scipy.special.erf. U and Q have an implicit leading 1 (cephes p1evl).
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """cephes ``polevl``: ``(c0 * x + c1) * x + ... + cN`` in that order."""
    acc = x * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _p1evl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """cephes ``p1evl``: ``polevl`` with an implicit leading coefficient 1."""
    acc = x + coefs[0]
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``scipy.special.erf(x)`` into ``out``, which may be ``x``, bit for bit:
    cephes ndtr.c's arithmetic in its order, and no floating-point warning.

    ``|x| <= 1`` is ``x * T(x*x) / U(x*x)``. Above that erf is
    ``1 - erfc(|x|)`` with the sign of ``x``, and ``erfc(a)`` is
    ``exp(-a*a) * P(a) / Q(a)`` below 8. From 8 up ``erfc(a) < 1.2e-29``,
    which ``1 - erfc(a)`` rounds away: cephes's R/S quotient there, its
    underflow to 0 past ``a*a > MAXLOG`` and P/Q at 8 all give exactly 1,
    so ``a`` is clamped to 8."""
    # The first branch also runs over the large entries, where x * x may
    # overflow and T/U be inf/inf; they are overwritten below.
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.square(x)
        # z > 1 exactly where |x| > 1, rounding being monotone; a NaN compares
        # False and stays NaN on the first branch.
        big = np.flatnonzero(z > 1.0)
        large = x.take(big)  # gathered before out, which may be x, is written
        np.multiply(x, _polevl(z, _ERF_T), out=out)
        out /= _p1evl(z, _ERF_U)
    if big.size:
        a = np.minimum(np.abs(large), 8.0)
        # The C library's exp, which cephes calls: numpy's SIMD exp differs
        # from it in the last bit on some inputs. numpy's complex exp calls
        # the C library's cexp per element, and cexp(r + 0j) is exp(r).
        e = np.exp((-a * a).astype(np.complex128)).real
        out.put(big, np.copysign(1.0 - e * _polevl(a, _ERFC_P) / _p1evl(a, _ERFC_Q), large))
    return out


def gelu_ffn(h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``gelu(h @ w1 + b1) @ w2 + b2`` with the exact (erf-based) GELU, as
    one node that keeps the pre-activation and its normal cdf. The erf is
    ``_erf``, scipy's cephes erf evaluated in numpy."""
    pre = _affine(h.data, w1, b1)
    # cdf = 0.5 * (1 + erf(pre / sqrt(2))), one buffer
    cdf = pre * _INV_SQRT2
    _erf(cdf, cdf)
    cdf += 1.0
    cdf *= 0.5
    act = pre * cdf
    data = _affine(act, w2, b2)

    def backward(g: np.ndarray) -> None:
        g_act = g @ w2.data.T
        w2._accumulate(act.T @ g)
        b2._accumulate(g.sum(axis=0))
        pdf = np.exp(-0.5 * np.square(pre)) * _INV_SQRT2PI
        _affine_backward(h, w1, b1, g_act * (cdf + pre * pdf))

    return _make(data, (h, w1, b1, w2, b2), backward)


def residual_layer_norm(h: Tensor, delta: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``h + delta`` standardized per row, then ``* gain + bias``: the
    post-LN residual step, as one node."""
    d = h.shape[-1]
    if h.data.ndim != 2 or delta.shape != h.shape or gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"residual_layer_norm shapes: {h.shape} + {delta.shape}, gain {gain.shape}, bias {bias.shape}")
    centered = h.data + delta.data
    centered -= centered.mean(axis=-1, keepdims=True)
    var = np.square(centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    norm = centered * inv
    data = norm * gain.data
    data += bias.data

    def backward(g: np.ndarray) -> None:
        gnorm = g * gain.data
        gvar = (gnorm * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        gx = gnorm * inv
        gmu = -gx.sum(axis=-1, keepdims=True) + gvar * (-2.0 / d) * centered.sum(axis=-1, keepdims=True)
        gx = gx + gvar * 2.0 * centered / d + gmu / d
        h._accumulate(gx)
        delta._accumulate(gx)
        gain._accumulate((g * norm).sum(axis=0))
        bias._accumulate(g.sum(axis=0))

    return _make(data, (h, delta, gain, bias), backward)


def _scatter_add(table: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """``table.grad[idx[i]] += g[i]`` for every ``i`` in order, into a
    zeroed gradient on first use, so repeated indices accumulate.

    One ``np.add.at`` over the flattened gradient: every element receives
    its terms in the order a row-wise ``np.add.at`` adds them, so the sums
    are the same bits, and numpy's one-dimensional path is several times
    faster than its row-wise one."""
    if table.grad is None:
        table.grad = np.zeros(table.shape)
    elif not table.grad.flags.c_contiguous:
        table.grad = np.ascontiguousarray(table.grad)
    width = math.prod(table.shape[1:])
    flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    np.add.at(table.grad.reshape(-1), flat, np.ascontiguousarray(g).reshape(-1))


def _rows_of(table: Tensor, idx, op: str) -> np.ndarray:
    """``idx`` as int64, checked to hold row numbers of ``table``."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"{op} index out of range for table with {table.shape[0]} rows")
    return idx


def _lookup_sum(op: str, data: np.ndarray, lookups, inputs: tuple[Tensor, ...], backward_inputs) -> Tensor:
    """The (n, d) ``data`` computed from ``inputs``, plus table rows, as one
    node: for each ``(table, idx, col)`` of ``lookups``, in list order, row
    ``idx[i]`` of ``table`` is added into columns ``col:col + table.shape[1]``
    of row ``i``. The backward pass calls ``backward_inputs(g)``, then
    scatter-adds each lookup's column block of ``g`` into its table, so
    repeated indices and repeated tables accumulate."""
    blocks = []
    for table, idx, col in lookups:
        idx = np.asarray(idx, dtype=np.int64)
        cols = slice(col, col + table.shape[-1])
        if (data.ndim != 2 or table.data.ndim != 2 or idx.shape != data.shape[:1]
                or col < 0 or cols.stop > data.shape[1]):
            raise ValueError(f"{op} shapes: input {data.shape}, table {table.shape} at column {col}, index {idx.shape}")
        idx = _rows_of(table, idx, op)
        data[:, cols] += table.data[idx]
        blocks.append((table, idx, cols))

    def backward(g: np.ndarray) -> None:
        backward_inputs(g)
        for table, idx, cols in blocks:
            _scatter_add(table, idx, g[:, cols])

    return _make(data, (*inputs, *(table for table, _, _ in blocks)), backward)


def add_lookups(x: Tensor, lookups: Sequence[tuple[Tensor, object, int]]) -> Tensor:
    """``x`` plus the table rows of ``lookups``, as one node (``_lookup_sum``)."""
    return _lookup_sum("add_lookups", x.data.copy(), lookups, (x,), x._accumulate)


def fine_input_sum(word: Tensor, ids, patch_raw: np.ndarray, patch_w: Tensor, patch_b: Tensor, lookups) -> Tensor:
    """Rows ``word[ids]``, then rows ``patch_raw @ patch_w + patch_b``, plus
    the table rows of ``lookups``, as one node (``_lookup_sum``)."""
    ids = _rows_of(word, ids, "fine_input_sum")
    patch = _affine(patch_raw, patch_w, patch_b)
    if ids.ndim != 1 or word.data.ndim != 2 or word.shape[1] != patch.shape[1]:
        raise ValueError(f"fine_input_sum shapes: word table {word.shape}, index {ids.shape}, patch rows {patch.shape}")
    n_text = ids.shape[0]

    def backward(g: np.ndarray) -> None:
        _scatter_add(word, ids, g[:n_text])
        _affine_backward(Tensor(patch_raw), patch_w, patch_b, g[n_text:])

    data = np.concatenate([word.data[ids], patch])
    return _lookup_sum("fine_input_sum", data, lookups, (word, patch_w, patch_b), backward)


def coarse_input_sum(agg: Tensor, bits: np.ndarray, emb: Tensor, proj: Tensor, lookups) -> Tensor:
    """``agg + (bits @ emb) @ proj`` plus the table rows of ``lookups``, as
    one node (``_lookup_sum``)."""
    if not (
        agg.data.ndim == bits.ndim == emb.data.ndim == proj.data.ndim == 2
        and bits.shape == (agg.shape[0], emb.shape[0])
        and proj.shape == (emb.shape[1], agg.shape[1])
    ):
        raise ValueError(f"coarse_input_sum shapes: {agg.shape} + ({bits.shape} @ {emb.shape}) @ {proj.shape}")
    mixed = bits @ emb.data

    def backward(g: np.ndarray) -> None:
        agg._accumulate(g)
        g_mixed = g @ proj.data.T
        proj._accumulate(mixed.T @ g)
        emb._accumulate(bits.T @ g_mixed)

    return _lookup_sum("coarse_input_sum", agg.data + mixed @ proj.data, lookups, (agg, emb, proj), backward)


def gather_heads(tables: Sequence[Tensor], indices: Sequence) -> Tensor:
    """Summed per-head lookups, head-major: entry ``[h, ...]`` is
    ``sum_t tables[t][indices[t][...], h]``.

    Every table is (rows, heads) and every index array has one common
    shape S; the result is (heads, *S). The backward pass scatter-adds with
    ``bincount``, so repeated indices accumulate.
    """
    if not tables or len(tables) != len(indices):
        raise ValueError(f"gather_heads needs one index array per table, got {len(tables)} and {len(indices)}")
    idxs = [_rows_of(table, idx, "gather_heads") for table, idx in zip(tables, indices)]
    heads, shape = tables[0].shape[1], idxs[0].shape
    for table, idx in zip(tables, idxs):
        if table.data.ndim != 2 or table.shape[1] != heads or idx.shape != shape:
            raise ValueError(f"gather_heads shapes: table {table.shape}, index {idx.shape}")
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


IGNORE_INDEX = -100


def linear_cross_entropy(x: Tensor, w: Tensor, b: Tensor, targets, weight: float = 1.0) -> Tensor:
    """The mean negative log-softmax of the logits ``x[:n] @ w + b`` at the
    n ``targets``, over the positions not ``IGNORE_INDEX``, times ``weight``,
    as one node."""
    targets = np.asarray(targets, dtype=np.int64)
    if x.data.ndim != 2 or targets.ndim != 1 or targets.shape[0] > x.shape[0]:
        raise ValueError(f"linear_cross_entropy shapes: input {x.shape}, targets {targets.shape}")
    n = targets.shape[0]
    logits = _affine(x.data[:n], w, b)
    keep = targets != IGNORE_INDEX
    count = int(keep.sum())
    if count == 0:
        raise ValueError("linear_cross_entropy: all positions ignored")
    n_classes = logits.shape[1]
    if targets[keep].min() < 0 or targets[keep].max() >= n_classes:
        raise ValueError(f"target out of range for {n_classes} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(n)
    losses = lse - shifted[rows, targets.clip(0)]
    data = np.asarray(losses[keep].mean() * weight)

    def backward(g: np.ndarray) -> None:
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows[keep], targets[keep]] -= 1.0
        p[~keep] = 0.0
        p *= float(g) * weight / count
        _affine_backward(x, w, b, p)

    return _make(data, (x, w, b), backward)


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

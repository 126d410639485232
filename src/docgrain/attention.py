"""Self-attention, spatial-aware attention, and the Transformer layer.

Spatial-aware attention adds learnable per-head relative biases to the
pre-softmax scores: a 1D-index term and 2D terms over top-left corner
differences. Raw offsets are mapped to a bounded table through a
sign-symmetric bucket scheme (exact near zero, logarithmic further out),
so the bias depends only on coordinate differences and is translation
invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .document import BBox
from .tensor import (
    Tensor,
    add,
    concat_cols,
    dropout,
    gather_col,
    gelu,
    layer_norm,
    matmul,
    relu,
    scale,
    slice_cols,
    softmax,
    transpose,
)


def rel_bucket(offset, buckets: int = 32, max_distance: int = 1000):
    """Bucket index for a signed offset (scalar or integer array).

    Half the buckets serve each sign; |offset| below buckets/4 gets its own
    bucket, larger magnitudes share logarithmically spaced buckets up to
    max_distance, beyond which the index saturates.
    """
    if buckets % 2 != 0 or buckets < 4:
        raise ValueError(f"buckets must be even and >= 4, got {buckets}")
    half = buckets // 2
    max_exact = half // 2
    if max_distance <= max_exact:
        raise ValueError(f"max_distance must exceed {max_exact} for {buckets} buckets")
    off = np.asarray(offset, dtype=np.int64)
    out = np.where(off > 0, half, 0).astype(np.int64)
    mag = np.abs(off)
    log_scale = (half - max_exact) / math.log(max_distance / max_exact)
    large = max_exact + (np.log(np.maximum(mag, 1) / max_exact) * log_scale).astype(np.int64)
    out += np.where(mag < max_exact, mag, np.minimum(large, half - 1))
    return int(out) if np.isscalar(offset) or np.ndim(offset) == 0 else out


@dataclass(frozen=True)
class AttentionConfig:
    heads: int
    rel_buckets: int = 32
    rel_max_distance: int = 1000


@dataclass
class RelativeBiasTables:
    """Per-head learnable scalars indexed by bucket, shape (buckets, heads)."""

    rel_1d: Tensor
    rel_x: Tensor
    rel_y: Tensor


@dataclass
class SpatialIndices:
    """Precomputed bucket index matrices for one sequence."""

    idx_1d: np.ndarray
    idx_x: np.ndarray
    idx_y: np.ndarray


def spatial_indices(
    boxes: list[BBox], positions, cfg: AttentionConfig
) -> SpatialIndices:
    """Bucketized (j - i) offsets for 1D positions and top-left corners."""
    pos = np.asarray(positions, dtype=np.int64)
    if len(boxes) != pos.shape[0]:
        raise ValueError(f"{len(boxes)} boxes vs {pos.shape[0]} positions")
    x0 = np.array([int(b.x0) for b in boxes], dtype=np.int64)
    y0 = np.array([int(b.y0) for b in boxes], dtype=np.int64)
    return SpatialIndices(
        idx_1d=rel_bucket(pos[None, :] - pos[:, None], cfg.rel_buckets, cfg.rel_max_distance),
        idx_x=rel_bucket(x0[None, :] - x0[:, None], cfg.rel_buckets, cfg.rel_max_distance),
        idx_y=rel_bucket(y0[None, :] - y0[:, None], cfg.rel_buckets, cfg.rel_max_distance),
    )


@dataclass
class LayerParams:
    """One Transformer layer: projections, layer norms, and the FFN."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


def multi_head_attention(
    h: Tensor,
    params: LayerParams,
    heads: int,
    bias_tables: RelativeBiasTables | None = None,
    indices: SpatialIndices | None = None,
) -> Tensor:
    """Scaled dot-product attention over all rows, heads concatenated.

    With bias tables the per-head relative terms are added to the scores
    before the softmax; without them this is the canonical form.
    """
    n, d = h.shape
    if d % heads != 0:
        raise ValueError(f"width {d} not divisible by {heads} heads")
    if (bias_tables is None) != (indices is None):
        raise ValueError("bias tables and spatial indices must be given together")
    dk = d // heads
    inv_sqrt_dk = 1.0 / math.sqrt(dk)
    q = add(matmul(h, params.wq), params.bq)
    k = add(matmul(h, params.wk), params.bk)
    v = add(matmul(h, params.wv), params.bv)
    outputs = []
    for head in range(heads):
        lo, hi = head * dk, (head + 1) * dk
        qs, ks, vs = slice_cols(q, lo, hi), slice_cols(k, lo, hi), slice_cols(v, lo, hi)
        scores = scale(matmul(qs, transpose(ks)), inv_sqrt_dk)
        if bias_tables is not None:
            scores = add(scores, gather_col(bias_tables.rel_1d, indices.idx_1d, head))
            scores = add(scores, gather_col(bias_tables.rel_x, indices.idx_x, head))
            scores = add(scores, gather_col(bias_tables.rel_y, indices.idx_y, head))
        outputs.append(matmul(softmax(scores), vs))
    return add(matmul(concat_cols(outputs), params.wo), params.bo)


def feed_forward(h: Tensor, params: LayerParams, activation: str = "gelu") -> Tensor:
    act = gelu if activation == "gelu" else relu
    inner = act(add(matmul(h, params.ffn_w1), params.ffn_b1))
    return add(matmul(inner, params.ffn_w2), params.ffn_b2)


def transformer_layer(
    h: Tensor,
    params: LayerParams,
    heads: int,
    bias_tables: RelativeBiasTables | None = None,
    indices: SpatialIndices | None = None,
    activation: str = "gelu",
    dropout_rate: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """LN(FFN(LN(MHA))) with residual paths around the MHA and the FFN."""
    attended = multi_head_attention(h, params, heads, bias_tables, indices)
    if dropout_rate > 0.0:
        attended = dropout(attended, dropout_rate, dropout_rng)
    u = layer_norm(add(h, attended), params.ln1_gain, params.ln1_bias)
    inner = feed_forward(u, params, activation)
    if dropout_rate > 0.0:
        inner = dropout(inner, dropout_rate, dropout_rng)
    return layer_norm(add(u, inner), params.ln2_gain, params.ln2_bias)

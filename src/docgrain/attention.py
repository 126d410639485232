"""Self-attention, spatial-aware attention, and the Transformer layer.

Spatial-aware attention adds learnable per-head relative biases to the
pre-softmax scores: a 1D-index term and 2D terms over top-left corner
differences. Raw offsets are mapped to a bounded table through a
sign-symmetric bucket scheme (exact near zero, logarithmic further out),
so the bias depends only on coordinate differences and is translation
invariant by construction.

All heads run at once on head-major stacks: Q and V are (heads, n, d_k)
and K is (heads, d_k, n). The summed relative bias of all three tables is
one (heads, n, n) tensor, built by ``spatial_bias`` once per forward pass
and shared by every spatial layer, since the tables are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    add,
    attention_weights,
    dropout,
    gather_heads,
    gelu,
    layer_norm,
    linear,
    matmul,
    merge_heads,
    project_heads,
    relu,
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


def spatial_indices(coords: np.ndarray, positions, cfg: AttentionConfig) -> SpatialIndices:
    """Bucketized (j - i) offsets for 1D positions and top-left corners,
    from an (n, 4) int array of normalized (x0, y0, x1, y1) coordinates."""
    pos = np.asarray(positions, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64)
    if coords.shape != (pos.shape[0], 4):
        raise ValueError(f"coordinates of shape {coords.shape} vs {pos.shape[0]} positions")
    x0, y0 = coords[:, 0], coords[:, 1]
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


def spatial_bias(tables: RelativeBiasTables, indices: SpatialIndices) -> Tensor:
    """The summed relative bias of all three tables, (heads, n, n)."""
    return gather_heads(
        [tables.rel_1d, tables.rel_x, tables.rel_y],
        [indices.idx_1d, indices.idx_x, indices.idx_y],
    )


def multi_head_attention(h: Tensor, params: LayerParams, heads: int, bias: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention over all rows, heads concatenated.

    ``bias`` (heads, n, n), from ``spatial_bias``, is added to the scaled
    scores before the softmax; without it this is the canonical form.
    """
    q = project_heads(h, params.wq, params.bq, heads)
    kt = project_heads(h, params.wk, params.bk, heads, keys=True)
    v = project_heads(h, params.wv, params.bv, heads)
    weights = attention_weights(q, kt, bias, 1.0 / math.sqrt(q.shape[2]))
    return merge_heads(matmul(weights, v), params.wo, params.bo)


def feed_forward(h: Tensor, params: LayerParams, activation: str = "gelu") -> Tensor:
    act = gelu if activation == "gelu" else relu
    return linear(act(linear(h, params.ffn_w1, params.ffn_b1)), params.ffn_w2, params.ffn_b2)


def transformer_layer(
    h: Tensor,
    params: LayerParams,
    heads: int,
    bias: Tensor | None = None,
    activation: str = "gelu",
    dropout_rate: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """LN(FFN(LN(MHA))) with residual paths around the MHA and the FFN."""
    attended = multi_head_attention(h, params, heads, bias)
    if dropout_rate > 0.0:
        attended = dropout(attended, dropout_rate, dropout_rng)
    u = layer_norm(add(h, attended), params.ln1_gain, params.ln1_bias)
    inner = feed_forward(u, params, activation)
    if dropout_rate > 0.0:
        inner = dropout(inner, dropout_rate, dropout_rng)
    return layer_norm(add(u, inner), params.ln2_gain, params.ln2_bias)

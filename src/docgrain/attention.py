"""Self-attention, spatial-aware attention, and the Transformer layer.

Spatial-aware attention adds learnable per-head relative biases to the
pre-softmax scores: a 1D-index term and 2D terms over top-left corner
differences. Raw offsets are mapped to a bounded table through a
sign-symmetric bucket scheme (exact near zero, logarithmic further out),
so the bias depends only on coordinate differences and is translation
invariant by construction. ``spatial_indices(coords, positions,
buckets, max_distance)`` takes ``ModelConfig.rel_buckets`` and
``rel_max_distance`` as they are, and reads the buckets from a table of
``rel_bucket`` over every offset up to max(1000, max_distance), built once
per (buckets, max_distance) pair; longer offsets all share the saturated
end buckets.

A Transformer layer is four tape nodes: ``multi_head_attention`` is one
``self_attention`` node (all heads at once on head-major stacks),
``feed_forward`` one ``gelu_ffn`` node, and each is added back to its input
and normalized by a ``residual_layer_norm`` node. The summed relative bias
of all three tables is one (heads, n, n) tensor, built by ``spatial_bias``
once per forward pass and shared by every spatial layer, since the tables
are shared.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, gather_heads, gelu_ffn, residual_layer_norm, self_attention


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


@dataclass
class RelativeBiasTables:
    """Per-head learnable scalars indexed by bucket, shape (buckets, heads)."""

    rel_1d: Tensor
    rel_x: Tensor
    rel_y: Tensor


@dataclass
class SpatialIndices:
    """Bucket index matrices for one sequence, built once per forward pass."""

    idx_1d: np.ndarray
    idx_x: np.ndarray
    idx_y: np.ndarray


# Every 0..1000 coordinate difference has its own table entry.
_TABLE_SPAN = 1000


@functools.lru_cache(maxsize=8)
def bucket_table(buckets: int, max_distance: int, span: int) -> np.ndarray:
    """``rel_bucket`` of every offset in [-span, span], at index offset + span."""
    table = rel_bucket(np.arange(-span, span + 1), buckets, max_distance)
    table.flags.writeable = False
    return table


def _bucketed(values: np.ndarray, table: np.ndarray, span: int) -> np.ndarray:
    shifted = (values + span)[None, :] - values[:, None]  # (j - i) + span
    if values.size and np.ptp(values) > span:
        # rel_bucket is constant from max_distance <= span outward, so
        # clamping longer offsets onto the table's ends changes no bucket.
        np.clip(shifted, 0, 2 * span, out=shifted)
    return table[shifted]


def spatial_indices(coords: np.ndarray, positions, buckets: int, max_distance: int) -> SpatialIndices:
    """Bucketized (j - i) offsets for 1D positions and top-left corners,
    from an (n, 4) int array of normalized (x0, y0, x1, y1) coordinates,
    read from one bucket table per (buckets, max_distance) pair."""
    pos = np.asarray(positions, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64)
    if coords.shape != (pos.shape[0], 4):
        raise ValueError(f"coordinates of shape {coords.shape} vs {pos.shape[0]} positions")
    span = max(_TABLE_SPAN, max_distance)
    table = bucket_table(buckets, max_distance, span)
    return SpatialIndices(
        idx_1d=_bucketed(pos, table, span),
        idx_x=_bucketed(coords[:, 0], table, span),
        idx_y=_bucketed(coords[:, 1], table, span),
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
    p = params
    return self_attention(h, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo, heads, bias)


def feed_forward(h: Tensor, params: LayerParams) -> Tensor:
    return gelu_ffn(h, params.ffn_w1, params.ffn_b1, params.ffn_w2, params.ffn_b2)


def transformer_layer(h: Tensor, params: LayerParams, heads: int, bias: Tensor | None = None) -> Tensor:
    """LN(FFN(LN(MHA))) with residual paths around the MHA and the FFN."""
    u = residual_layer_norm(h, multi_head_attention(h, params, heads, bias), params.ln1_gain, params.ln1_bias)
    return residual_layer_norm(u, feed_forward(u, params), params.ln2_gain, params.ln2_bias)

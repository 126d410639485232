"""Self-attention, spatial-aware attention, and the Transformer layer.

Spatial-aware attention adds learnable per-head relative biases to the
pre-softmax scores: a 1D-index term and 2D terms over top-left corner
differences. Raw offsets are mapped to ``REL_BUCKETS`` table rows through a
sign-symmetric bucket scheme (exact near zero, logarithmic out to
``REL_MAX_DISTANCE``), so the bias depends only on coordinate differences
and is translation invariant by construction. ``spatial_indices(coords,
positions)`` reads the buckets from one module table of ``rel_bucket``
over every offset in [-1000, 1000]; longer offsets, which only 1D
positions of sequences past 1001 tokens reach, share its saturated ends.

A Transformer layer is four tape nodes: ``multi_head_attention`` is one
``self_attention`` node (all heads at once on head-major stacks),
``feed_forward`` one ``gelu_ffn`` node, and each is added back to its input
and normalized by a ``residual_layer_norm`` node. The summed relative bias
of all three tables is one (heads, n, n) tensor, built by ``spatial_bias``
once per forward pass and shared by every spatial layer, since the tables
are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, gather_heads, gelu_ffn, residual_layer_norm, self_attention


REL_BUCKETS = 32
REL_MAX_DISTANCE = 1000


def rel_bucket(offset):
    """Bucket index for a signed offset (scalar or integer array).

    Half the buckets serve each sign; |offset| below REL_BUCKETS/4 gets its
    own bucket, larger magnitudes share logarithmically spaced buckets up to
    REL_MAX_DISTANCE, beyond which the index saturates.
    """
    half = REL_BUCKETS // 2
    max_exact = half // 2
    off = np.asarray(offset, dtype=np.int64)
    out = np.where(off > 0, half, 0).astype(np.int64)
    mag = np.abs(off)
    log_scale = (half - max_exact) / math.log(REL_MAX_DISTANCE / max_exact)
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


# rel_bucket of every offset in [-REL_MAX_DISTANCE, REL_MAX_DISTANCE], at
# index offset + REL_MAX_DISTANCE: every 0..1000 coordinate difference.
_BUCKETS = rel_bucket(np.arange(-REL_MAX_DISTANCE, REL_MAX_DISTANCE + 1))
_BUCKETS.flags.writeable = False


def _bucketed(values: np.ndarray) -> np.ndarray:
    span = REL_MAX_DISTANCE
    shifted = (values + span)[None, :] - values[:, None]  # (j - i) + span
    if values.size and np.ptp(values) > span:
        # rel_bucket is constant from REL_MAX_DISTANCE outward, so clamping
        # longer offsets onto the table's ends changes no bucket.
        np.clip(shifted, 0, 2 * span, out=shifted)
    return _BUCKETS[shifted]


def spatial_indices(coords: np.ndarray, positions) -> SpatialIndices:
    """Bucketized (j - i) offsets for 1D positions and top-left corners,
    from an (n, 4) int array of normalized (x0, y0, x1, y1) coordinates."""
    pos = np.asarray(positions, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64)
    if coords.shape != (pos.shape[0], 4):
        raise ValueError(f"coordinates of shape {coords.shape} vs {pos.shape[0]} positions")
    return SpatialIndices(
        idx_1d=_bucketed(pos),
        idx_x=_bucketed(coords[:, 0]),
        idx_y=_bucketed(coords[:, 1]),
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

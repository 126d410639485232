"""Independent brute-force oracles used by the test suite.

These deliberately avoid sharing code paths with the package: the DBSCAN
oracle works from a full distance matrix and explicit core-graph
connected components, the edit-distance oracle is a memoized recursion
rather than the package's iterative dynamic program, and the model-input
oracles build each row from the page, the graph and the raw parameter
arrays, one modality at a time.

The scalar loops that page encoding used before it became whole-array
numpy are kept here (``dbscan_loop``, ``assign_patch_loop``,
``normalized_coords_loop``, ``spatial_indices_direct``), so the
vectorized code is held to byte-equal outputs against them. So is the
composed input chain that ``add_lookups`` replaced (``composed_fine_input``,
``composed_coarse_input``, ``composed_fuse``): six coordinate ``gather``s
joined by a column-concatenation op, then one ``add`` per term. So are the
chains that the one-node fine input, coarse input and head plus loss
replaced (``chain_fine_input``, ``chain_coarse_input``,
``chain_cross_entropy``, and ``ChainModel``, whose stages they are), with
the single-step ops they were built from: ``add``, ``scale``, ``gather``,
``concat_rows``, ``slice_rows`` and ``cross_entropy``. So is the composed
Transformer layer that the three sublayer nodes replaced
(``composed_transformer_layer``): three head projections, the fused
softmax, a stacked ``y @ v``, the head merge, then ``add`` and
``layer_norm`` around the attention and around ``linear``, ``gelu`` and
``linear``. So are the knowledge detector over any ordered category list,
with one span scan per category and no digit gate (``detect_reference``;
it shares only the pattern tables and word lists with the package), and
the document parser that formatted every message up front
(``parse_document_reference``).

``weighted_sum`` turns any tensor into the scalar loss a gradient check
needs, ``tape_tensors`` lists the tensors of a graph before its backward
sweep releases it, and
``gradients_sharing_memory`` reads their gradients.

``document_to_json`` is the compact JSON text of a page, the bytes
``save_corpus`` writes for it; tests compare pages through it.

``FullTableModel`` is the model as it was before its word table was sized
by the vocabulary, with all ``vocab_size`` rows of the draw, and
``as_mmly1`` rewrites a checkpoint in the format written before the header
checksum; together they stand in for every checkpoint written before both.
``checkpoint_bytes_tobytes`` is the file the checkpoint writer produced
while it copied each payload out with ``tobytes()``.
"""

from __future__ import annotations

import json
import math
import re
import struct
import zlib
from functools import lru_cache

import numpy as np
from scipy.special import erf

from docgrain.attention import SpatialIndices, rel_bucket
from docgrain.commonsense import _FIRST_NAMES, _GPE_NAMES, _HONORIFICS, _ORG_SUFFIXES, _PATTERNS
from docgrain.document import (
    BBox,
    DocumentParseError,
    Page,
    Segment,
    Word,
    boundary_distance,
    iou,
    normalize_box,
    serialize_document,
    union_box,
)
from docgrain.embeddings import TEXT_TYPE, VISUAL_TYPE, layout_lookups
from docgrain.model import Model, trunc_normal
from docgrain.tensor import (
    IGNORE_INDEX,
    Tensor,
    _affine,
    _affine_backward,
    _make,
    _released,
    _scatter_add,
    add_lookups,
    linear,
    matmul,
)

NOISE = -1


def dbscan_oracle(boxes: list[BBox], radius: float, min_pts: int) -> list[int]:
    """Distance matrix, core enumeration, connected components, then
    border attachment to the lowest-index reaching core point."""
    n = len(boxes)
    dist = [[boundary_distance(boxes[i], boxes[j]) for j in range(n)] for i in range(n)]
    core = [sum(1 for j in range(n) if j != i and dist[i][j] <= radius) >= min_pts for i in range(n)]

    # Union-find over core points connected within the radius.
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        if not core[i]:
            continue
        for j in range(i + 1, n):
            if core[j] and dist[i][j] <= radius:
                parent[find(i)] = find(j)

    labels = [NOISE] * n
    cluster_of_root: dict[int, int] = {}
    next_id = 0
    for i in range(n):
        if core[i]:
            root = find(i)
            if root not in cluster_of_root:
                cluster_of_root[root] = next_id
                next_id += 1
            labels[i] = cluster_of_root[root]
    for i in range(n):
        if core[i]:
            continue
        for j in range(n):
            if core[j] and j != i and dist[i][j] <= radius:
                labels[i] = labels[j]
                break
    return labels


def partitions_equal(a: list[int], b: list[int]) -> bool:
    """Same grouping up to relabeling; NOISE must match exactly."""
    if len(a) != len(b):
        return False
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for x, y in zip(a, b):
        if (x == NOISE) != (y == NOISE):
            return False
        if x == NOISE:
            continue
        if mapping.setdefault(x, y) != y or reverse.setdefault(y, x) != x:
            return False
    return True


def levenshtein_oracle(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def attention_oracle(h, wq, bq, wk, bk, wv, bv, wo, bo, heads, bias=None):
    """Per-element loop implementation of (spatial) multi-head attention.

    ``bias`` is an optional (heads, n, n) array added before the softmax.
    """
    import math

    n, d = len(h), len(h[0])
    dk = d // heads

    def affine(x, w, b):
        return [[sum(x[i][k] * w[k][j] for k in range(len(w))) + b[j] for j in range(len(w[0]))] for i in range(len(x))]

    q, k, v = affine(h, wq, bq), affine(h, wk, bk), affine(h, wv, bv)
    merged = [[0.0] * d for _ in range(n)]
    for head in range(heads):
        lo = head * dk
        for i in range(n):
            scores = []
            for j in range(n):
                s = sum(q[i][lo + t] * k[j][lo + t] for t in range(dk)) / math.sqrt(dk)
                if bias is not None:
                    s += bias[head][i][j]
                scores.append(s)
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            z = sum(exps)
            weights = [e / z for e in exps]
            for t in range(dk):
                merged[i][lo + t] = sum(weights[j] * v[j][lo + t] for j in range(n))
    return affine(merged, wo, bo)


def _layout_row(tables, box: BBox, page) -> np.ndarray:
    """The six coordinate lookups of one page-space box, zero-padded to d."""
    x0, y0, x1, y1 = (int(v) for v in normalize_box(box, page.width, page.height).as_list())
    cx, cy = tables.coord_x.data, tables.coord_y.data
    pad = np.zeros(tables.word.shape[1] - 6 * tables.coord_x.shape[1])
    return np.concatenate([cx[x0], cx[x1], cx[x1 - x0], cy[y0], cy[y1], cy[y1 - y0], pad])


def fine_input_oracle(model, enc) -> np.ndarray:
    """Row by row: the word or projected patch row, plus the token-type row
    (0 text, 1 visual), plus the position row (each modality counts from
    0), plus the coordinate lookups. Text rows first."""
    t, page = model.tables, enc.page
    features = enc.patch_raw @ t.patch_proj_w.data + t.patch_proj_b.data
    boxes = [page.words[w].bbox for w in enc.tokens.word_index]
    rows = [(t.word.data[token], 0, i, box) for i, (token, box) in enumerate(zip(enc.tokens.ids, boxes))]
    rows += [(features[p], 1, p, box) for p, box in enumerate(enc.graph.patch_bboxes)]
    return np.array([
        content + t.token_type.data[kind] + t.position.data[pos] + _layout_row(t, box, page)
        for content, kind, pos, box in rows
    ])


def aggregate_oracle(enc, h: np.ndarray) -> np.ndarray:
    """Two per-modality blocks: segments from their tokens, regions from
    their patches, each a 0/1 matrix product; stacked."""
    g, n_text = enc.graph, len(enc.tokens.ids)
    text = np.zeros((g.n_coarse_text, n_text))
    for tok, word in enumerate(enc.tokens.word_index):
        text[g.text_parent[word], tok] = 1.0
    visual = np.zeros((g.n_coarse_visual, len(g.visual_parent)))
    for patch, region in enumerate(g.visual_parent):
        visual[region, patch] = 1.0
    return np.vstack([text @ h[:n_text], visual @ h[n_text:]])


def coarse_input_oracle(model, enc, agg: np.ndarray) -> np.ndarray:
    """Row by row: the aggregate row, plus the knowledge term on segment
    rows only, plus the coordinate lookups. Segments first, then regions."""
    page, g = enc.page, enc.graph
    knowledge = None
    if model.cs_emb is not None:
        bits = np.array([detect_reference(model.inventory.categories, seg.text) for seg in page.segments])
        knowledge = (bits @ model.cs_emb.data) @ model.cs_proj.data
    boxes = [seg.bbox for seg in page.segments] + [region.bbox for region in g.regions]
    rows = []
    for z, box in enumerate(boxes):
        row = agg[z]
        if knowledge is not None and z < g.n_coarse_text:
            row = row + knowledge[z]
        rows.append(row + _layout_row(model.tables, box, page))
    return np.array(rows)


def dbscan_loop(boxes: list[BBox], radius: float, min_pts: int) -> list[int]:
    """DBSCAN with an O(n^2) scalar neighbour scan and a second scan for
    border boxes."""
    n = len(boxes)
    if n == 0:
        return []
    within: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if boundary_distance(boxes[i], boxes[j]) <= radius:
                within[i].append(j)
                within[j].append(i)
    core = [len(within[i]) >= min_pts for i in range(n)]

    labels = [NOISE] * n
    next_id = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE:
            continue
        labels[start] = next_id
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in within[i]:
                if core[j] and labels[j] == NOISE:
                    labels[j] = next_id
                    frontier.append(j)
        next_id += 1

    for i in range(n):
        if core[i] or labels[i] != NOISE:
            continue
        for j in range(n):
            if core[j] and j != i and boundary_distance(boxes[i], boxes[j]) <= radius:
                labels[i] = labels[j]
                break
    return labels


def assign_patch_loop(patch: BBox, regions) -> int:
    """First region of largest scalar IOU; with all IOUs zero, the first
    region of smallest boundary distance."""
    ious = [iou(patch, r.bbox) for r in regions]
    best = max(ious)
    if best > 0.0:
        return ious.index(best)
    dists = [boundary_distance(patch, r.bbox) for r in regions]
    return dists.index(min(dists))


def normalized_coords_loop(boxes: list[BBox], page) -> np.ndarray:
    """``normalize_box`` one box at a time."""
    coords = [normalize_box(b, page.width, page.height).as_list() for b in boxes]
    return np.array(coords, dtype=np.int64).reshape(-1, 4)


def spatial_indices_direct(coords: np.ndarray, positions) -> SpatialIndices:
    """``rel_bucket`` applied to every (j - i) offset matrix."""
    pos = np.asarray(positions, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64)
    x0, y0 = coords[:, 0], coords[:, 1]
    return SpatialIndices(
        idx_1d=rel_bucket(pos[None, :] - pos[:, None]),
        idx_x=rel_bucket(x0[None, :] - x0[:, None]),
        idx_y=rel_bucket(y0[None, :] - y0[:, None]),
    )


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, max-shifted for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in add: {a.shape} vs {b.shape}")
    data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        a._accumulate(g)
        b._accumulate(g)

    return _make(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * s)

    return _make(data, (a,), backward)


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
        _scatter_add(table, idx, g)

    return _make(data, (table,), backward)


def concat_rows(tensors: list[Tensor]) -> Tensor:
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


def chain_fine_input(word, ids, patch_raw, patch_w, patch_b, lookups) -> Tensor:
    """``fine_input_sum`` as the chain it replaced: a word ``gather``, a
    patch ``linear``, ``concat_rows``, then one ``add_lookups``."""
    features = linear(Tensor(patch_raw), patch_w, patch_b)
    return add_lookups(concat_rows([gather(word, ids), features]), lookups)


def chain_coarse_input(agg, bits, emb, proj, lookups) -> Tensor:
    """``coarse_input_sum`` as the chain it replaced: two ``matmul``s, an
    ``add``, then one ``add_lookups``."""
    return add_lookups(add(agg, matmul(matmul(Tensor(bits), emb), proj)), lookups)


def chain_cross_entropy(x, w, b, targets, weight=None) -> Tensor:
    """``linear_cross_entropy`` as the chain it replaced: ``slice_rows``,
    ``linear``, ``cross_entropy``, then ``scale`` by a batch weight."""
    loss = cross_entropy(linear(slice_rows(x, 0, len(targets)), w, b), targets)
    return loss if weight is None else scale(loss, weight)


class ChainModel(Model):
    """The model as it was before its fine input, coarse input and head plus
    loss were one node each: those stages are the chains above."""

    def fine_input(self, enc) -> Tensor:
        t = self.tables
        token_type = np.repeat([TEXT_TYPE, VISUAL_TYPE], [enc.n_text, enc.n_visual])
        lookups = [(t.token_type, token_type, 0), (t.position, enc.positions, 0), *layout_lookups(enc.fine_boxes, t)]
        return chain_fine_input(t.word, enc.tokens.ids, enc.patch_raw, t.patch_proj_w, t.patch_proj_b, lookups)

    def coarse_input(self, agg, enc) -> Tensor:
        lookups = layout_lookups(enc.coarse_boxes, self.tables)
        if self.cs_emb is None:
            return add_lookups(agg, lookups)
        return chain_coarse_input(agg, enc.cs_bits, self.cs_emb, self.cs_proj, lookups)

    def logits_encoded(self, enc) -> Tensor:
        fused, _ = self.forward_encoded(enc)
        return linear(slice_rows(fused, 0, enc.n_text), self.head_w, self.head_b)

    def loss_encoded(self, enc, weight=None) -> Tensor:
        fused, _ = self.forward_encoded(enc)
        return chain_cross_entropy(fused, self.head_w, self.head_b, enc.targets, weight)


def concat_cols(tensors: list[Tensor]) -> Tensor:
    """Column-wise concatenation as a tape op."""
    data = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.shape[1] for t in tensors]

    def backward(g: np.ndarray) -> None:
        off = 0
        for t, size in zip(tensors, sizes):
            t._accumulate(g[:, off : off + size])
            off += size

    return _make(data, tuple(tensors), backward)


def composed_layout(coords: np.ndarray, tables) -> Tensor:
    """Six coordinate gathers and a zero pad, concatenated column-wise."""
    x0, y0, x1, y1 = np.asarray(coords, dtype=np.int64).T
    parts = [
        gather(tables.coord_x, x0),
        gather(tables.coord_x, x1),
        gather(tables.coord_x, x1 - x0),
        gather(tables.coord_y, y0),
        gather(tables.coord_y, y1),
        gather(tables.coord_y, y1 - y0),
    ]
    pad = tables.word.shape[1] - 6 * tables.coord_x.shape[1]
    if pad:
        parts.append(Tensor(np.zeros((len(coords), pad))))
    return concat_cols(parts)


def composed_fine_input(model, enc) -> Tensor:
    """Word or patch rows, then one ``add`` each for the token-type,
    position and layout terms."""
    t = model.tables
    features = linear(Tensor(enc.patch_raw), t.patch_proj_w, t.patch_proj_b)
    h = concat_rows([gather(t.word, enc.tokens.ids), features])
    h = add(h, gather(t.token_type, np.repeat([TEXT_TYPE, VISUAL_TYPE], [enc.n_text, enc.n_visual])))
    h = add(h, gather(t.position, enc.positions))
    return add(h, composed_layout(enc.fine_boxes, t))


def composed_coarse_input(model, agg: Tensor, enc) -> Tensor:
    if model.config.commonsense_k > 0:
        agg = add(agg, matmul(matmul(Tensor(enc.cs_bits), model.cs_emb), model.cs_proj))
    return add(agg, composed_layout(enc.coarse_boxes, model.tables))


def composed_fuse(h_fine: Tensor, h_coarse: Tensor, enc) -> Tensor:
    return add(h_fine, gather(h_coarse, enc.parent_row))


def weighted_sum(t: Tensor, weight=None) -> Tensor:
    """``sum(t * weight)`` as a scalar node (all ones when ``weight`` is
    None); the backward pass hands ``g * weight`` to ``t``."""
    w = np.ones_like(t.data) if weight is None else np.broadcast_to(np.asarray(weight, dtype=np.float64), t.shape)

    def backward(g: np.ndarray) -> None:
        t._accumulate(float(g) * w)

    return _make(np.asarray((t.data * w).sum()), (t,), backward)


def tape_tensors(root: Tensor) -> list[Tensor]:
    """Every tensor of the graph under ``root``, leaves included, once
    each, in an order fixed by the graph's structure. ``backward()``
    releases the graph, so list it before the sweep: the list then keeps
    the tensors, and their gradients, alive."""
    if root._backward is _released:
        raise ValueError("tape_tensors: the graph under this root was released by backward(); list it before")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            order.append(node)
            stack.extend(node._parents)
    return order


def gradients_sharing_memory(tensors: list[Tensor]) -> list[tuple[int, int]]:
    """Index pairs of tensors whose gradients share memory."""
    held = [(i, t.grad) for i, t in enumerate(tensors) if t.grad is not None]
    return [(i, j) for k, (i, a) in enumerate(held) for j, b in held[k + 1 :] if np.shares_memory(a, b)]


def stacked_matmul(a: Tensor, b: Tensor) -> Tensor:
    """One matrix product per leading index of two equal-length stacks; the
    backward pass computes a gradient only for operands that require one."""
    if not (a.data.ndim == b.data.ndim == 3 and a.shape[0] == b.shape[0] and a.shape[2] == b.shape[1]):
        raise ValueError(f"shape mismatch in matmul: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b._accumulate(a.data.swapaxes(-1, -2) @ g)

    return _make(data, (a, b), backward)


def project_heads(x: Tensor, w: Tensor, b: Tensor, heads: int, keys: bool = False) -> Tensor:
    """``x @ w + b`` split column-wise into ``heads`` equal blocks, stacked
    head-major: (heads, n, d_k), or (heads, d_k, n) with ``keys``."""
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
    """Stacked heads (heads, n, d_k) concatenated column-wise, then ``@ w + b``."""
    heads, n, dk = a.shape
    merged = a.data.transpose(1, 0, 2).reshape(n, heads * dk)
    data = _affine(merged, w, b)

    def backward(g: np.ndarray) -> None:
        a._accumulate((g @ w.data.T).reshape(n, heads, dk).transpose(1, 0, 2))
        w._accumulate(merged.T @ g)
        b._accumulate(g.sum(axis=0))

    return _make(data, (a, w, b), backward)


def attention_weights(q: Tensor, kt: Tensor, bias: Tensor | None, scale: float) -> Tensor:
    """Row-wise ``softmax(q @ kt * scale + bias)`` per head, each head's
    block computed in place in the output buffer."""
    heads, n, dk = q.shape
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
        gain._accumulate((g * norm).sum(axis=0))
        bias._accumulate(g.sum(axis=0))

    return _make(data, (x, gain, bias), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    cdf = 0.5 * (1.0 + erf(a.data * (1.0 / math.sqrt(2.0))))
    data = a.data * cdf

    def backward(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * a.data**2) * (1.0 / math.sqrt(2.0 * math.pi))
        a._accumulate(g * (cdf + a.data * pdf))

    return _make(data, (a,), backward)


def composed_self_attention(h, wq, bq, wk, bk, wv, bv, wo, bo, heads, bias) -> Tensor:
    q = project_heads(h, wq, bq, heads)
    kt = project_heads(h, wk, bk, heads, keys=True)
    v = project_heads(h, wv, bv, heads)
    weights = attention_weights(q, kt, bias, 1.0 / math.sqrt(q.shape[2]))
    return merge_heads(stacked_matmul(weights, v), wo, bo)


def composed_gelu_ffn(h, w1, b1, w2, b2) -> Tensor:
    return linear(gelu(linear(h, w1, b1)), w2, b2)


def composed_residual_layer_norm(h, delta, gain, bias) -> Tensor:
    return layer_norm(add(h, delta), gain, bias)


def composed_transformer_layer(h: Tensor, params, heads: int, bias: Tensor | None = None) -> Tensor:
    """The 13-node post-LN layer the sublayer nodes replaced."""
    p = params
    attn = composed_self_attention(h, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo, heads, bias)
    u = composed_residual_layer_norm(h, attn, p.ln1_gain, p.ln1_bias)
    ffn = composed_gelu_ffn(u, p.ffn_w1, p.ffn_b1, p.ffn_w2, p.ffn_b2)
    return composed_residual_layer_norm(u, ffn, p.ln2_gain, p.ln2_bias)


_DIGIT_RUN = re.compile(r"\d+")
_CAPITALIZED = re.compile(r"\b[A-Z][a-z]+\b")
_WORD = re.compile(r"[A-Za-z]+")


def _pattern_spans(text: str, category: str) -> list[tuple[int, int]]:
    return [m.span() for pat in _PATTERNS[category] for m in pat.finditer(text)]


def _person_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for m in re.finditer(r"\b([A-Za-z]+)\.?\s+([A-Z][a-z]+)", text):
        if m.group(1).lower() in _HONORIFICS:
            spans.append(m.span())
    for m in _CAPITALIZED.finditer(text):
        if m.group(0).lower() in _FIRST_NAMES:
            spans.append(m.span())
    return spans


def _org_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for m in _WORD.finditer(text):
        if m.group(0).lower().rstrip(".") in _ORG_SUFFIXES and m.group(0)[0].isupper():
            spans.append(m.span())
    return spans


def _gpe_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in _WORD.finditer(text) if m.group(0).lower() in _GPE_NAMES]


_SPAN_DETECTORS = {
    "PERSON": _person_spans,
    "ORG": _org_spans,
    "GPE": _gpe_spans,
    "DATE": lambda t: _pattern_spans(t, "DATE"),
    "TIME": lambda t: _pattern_spans(t, "TIME"),
    "MONEY": lambda t: _pattern_spans(t, "MONEY"),
    "PERCENT": lambda t: _pattern_spans(t, "PERCENT"),
}


def detect_reference(categories: tuple[str, ...], text: str) -> np.ndarray:
    """Every category's scan on every text, then the residual CARDINAL."""
    bits = np.zeros(len(categories))
    claimed: list[tuple[int, int]] = []
    cardinal_slot = None
    for k, cat in enumerate(categories):
        if cat == "CARDINAL":
            cardinal_slot = k
            continue
        spans = _SPAN_DETECTORS[cat](text)
        if spans:
            bits[k] = 1.0
            claimed.extend(spans)
    if cardinal_slot is not None:
        for m in _DIGIT_RUN.finditer(text):
            s, e = m.span()
            if not any(cs <= s and e <= ce for cs, ce in claimed):
                bits[cardinal_slot] = 1.0
                break
    return bits


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentParseError(message)


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_bbox_reference(raw: object, where: str) -> BBox:
    _require(isinstance(raw, (list, tuple)) and len(raw) == 4, f"bad bbox at {where}")
    _require(all(_is_int(v) or isinstance(v, float) for v in raw), f"bad bbox at {where}: coordinates must be numbers")
    try:
        box = BBox(*[float(v) for v in raw])  # type: ignore[misc]
    except (ValueError, OverflowError) as exc:
        raise DocumentParseError(f"bad bbox at {where}: {exc}") from None
    _require(all(map(math.isfinite, box.as_list())), f"non-finite bbox at {where}")
    return box


def parse_document_reference(data) -> Page:
    """Every check through ``_require``, its message formatted first."""
    if isinstance(data, (bytes, str)):
        try:
            raw = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise DocumentParseError(f"invalid JSON: {exc}") from None
    else:
        raw = data
    _require(isinstance(raw, dict), "document must be a JSON object")
    for key in ("width", "height", "words", "segments"):
        _require(key in raw, f"missing field '{key}'")
    width, height = raw["width"], raw["height"]
    _require(_is_int(width) and _is_int(height), "width/height must be integers")
    _require(width > 0 and height > 0, f"non-positive page dimensions: {width}x{height}")

    segments_raw = raw["segments"]
    words_raw = raw["words"]
    _require(isinstance(segments_raw, list), "'segments' must be a list")
    _require(isinstance(words_raw, list), "'words' must be a list")

    words: list[Word] = []
    for i, w in enumerate(words_raw):
        _require(isinstance(w, dict), f"words[{i}] must be an object")
        text = w.get("text")
        _require(isinstance(text, str) and text.strip() != "", f"empty text at words[{i}]")
        seg_id = w.get("segment_id")
        _require(_is_int(seg_id), f"missing or non-integer segment_id at words[{i}]")
        _require(0 <= seg_id < len(segments_raw), f"dangling segment_id at words[{i}]")
        words.append(Word(text=text, bbox=_parse_bbox_reference(w.get("bbox"), f"words[{i}]"), segment_id=seg_id))

    segments: list[Segment] = []
    for i, s in enumerate(segments_raw):
        _require(isinstance(s, dict), f"segments[{i}] must be an object")
        text = s.get("text")
        _require(isinstance(text, str), f"missing text at segments[{i}]")
        word_ids = s.get("word_ids")
        _require(isinstance(word_ids, list) and len(word_ids) > 0, f"empty segment at segments[{i}]")
        for wid in word_ids:
            _require(_is_int(wid) and 0 <= wid < len(words), f"bad word id {wid} at segments[{i}]")
            _require(words[wid].segment_id == i, f"segments[{i}] lists word {wid} whose segment_id is {words[wid].segment_id}")
        bbox = _parse_bbox_reference(s.get("bbox"), f"segments[{i}]")
        envelope = union_box([words[wid].bbox for wid in word_ids])
        for got, want, edge in (
            (bbox.x0, envelope.x0, "x0"),
            (bbox.y0, envelope.y0, "y0"),
            (bbox.x1, envelope.x1, "x1"),
            (bbox.y1, envelope.y1, "y1"),
        ):
            _require(abs(got - want) <= 1.0, f"segments[{i}].bbox {edge} deviates from word envelope by more than 1 pixel")
        segments.append(Segment(text=text, bbox=bbox, word_ids=tuple(word_ids)))

    seen: set[int] = set()
    for i, s in enumerate(segments):
        for wid in s.word_ids:
            _require(wid not in seen, f"word {wid} listed by more than one segment")
            seen.add(wid)
    _require(len(seen) == len(words), "segments do not cover every word")

    labels = raw.get("labels")
    if labels is not None:
        _require(isinstance(labels, list) and all(isinstance(t, str) for t in labels), "'labels' must be a list of strings")
        _require(len(labels) == len(words), f"labels length {len(labels)} != word count {len(words)}")
        labels = list(labels)

    image_path = raw.get("image")
    if image_path is not None:
        _require(isinstance(image_path, str), "'image' must be a path string")

    return Page(width=width, height=height, words=words, segments=segments, labels=labels, image_path=image_path)


def parse_outcome(parse, data) -> tuple[str, str]:
    """``("page", repr(page))`` or ``("error", message)`` of one parser,
    so two parsers compare by value, float types and message."""
    try:
        return "page", repr(parse(data))
    except DocumentParseError as exc:
        return "error", str(exc)


def document_to_json(page: Page) -> str:
    """The page as compact JSON, byte for byte what ``save_corpus`` writes."""
    return json.dumps(serialize_document(page), separators=(",", ":"))


class FullTableModel(Model):
    """``Model`` with ``emb.word`` at all ``vocab_size`` rows of its draw, of
    which no token id reads past ``len(vocab)``."""

    def _build_params(self) -> None:
        super()._build_params()
        cfg = self.config
        self.tables.word.data = trunc_normal(self._rng_for("emb.word"), (cfg.vocab_size, cfg.d))


def as_mmly1(path: str) -> None:
    """Rewrite an ``MMLY2`` checkpoint as the ``MMLY1`` file of the same
    header and payload: the magic and the header length, no header CRC."""
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw[:5] == b"MMLY2"
    with open(path, "wb") as fh:
        fh.write(b"MMLY1" + raw[5:9] + raw[13:])


def checkpoint_bytes_tobytes(tensors: dict[str, np.ndarray], config: dict) -> bytes:
    """The ``MMLY2`` file that ``save_checkpoint`` wrote when it copied
    each payload out with ``tobytes()`` before checksumming and writing it."""
    entries, blobs = [], []
    offset = crc = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        blob = arr.tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
        crc = zlib.crc32(blob, crc)
    header = json.dumps({"tensors": entries, "config": config, "crc32": crc}, sort_keys=True).encode("utf-8")
    return b"".join([b"MMLY2", struct.pack("<II", len(header), zlib.crc32(header)), header, *blobs])

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
vectorized code is held to byte-equal outputs against them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from docgrain.attention import SpatialIndices, rel_bucket
from docgrain.document import BBox, boundary_distance, iou, normalize_box

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
    pad = np.zeros(tables.d - 6 * tables.coord_width)
    return np.concatenate([cx[x0], cx[x1], cx[x1 - x0], cy[y0], cy[y1], cy[y1 - y0], pad])


def fine_input_oracle(model, enc) -> np.ndarray:
    """Row by row: the word or projected patch row, plus the token-type row
    (0 text, 1 visual), plus the position row (each modality counts from
    0), plus the coordinate lookups. Text rows first."""
    t, page = model.tables, enc.page
    features = enc.patch_raw @ t.patch_proj_w.data + t.patch_proj_b.data
    rows = [(t.word.data[token], 0, i, box) for i, (token, box) in enumerate(zip(enc.tokens.ids, enc.tokens.bboxes))]
    rows += [(features[p], 1, p, box) for p, box in enumerate(enc.graph.patch_bboxes)]
    return np.array([
        content + t.token_type.data[kind] + t.position.data[pos] + _layout_row(t, box, page)
        for content, kind, pos, box in rows
    ])


def aggregate_oracle(enc, h: np.ndarray, mean: bool) -> np.ndarray:
    """Two per-modality blocks: segments from their tokens, regions from
    their patches, each a 0/1 (or 1/children) matrix product; stacked."""
    g, n_text = enc.graph, len(enc.tokens.ids)
    text = np.zeros((g.n_coarse_text, n_text))
    for tok, word in enumerate(enc.tokens.word_index):
        text[g.text_parent[word], tok] = 1.0
    visual = np.zeros((g.n_coarse_visual, len(g.visual_parent)))
    for patch, region in enumerate(g.visual_parent):
        visual[region, patch] = 1.0
    blocks = []
    for mat, rows in ((text, h[:n_text]), (visual, h[n_text:])):
        if mean:
            mat = mat / np.maximum(mat.sum(axis=1, keepdims=True), 1.0)
        blocks.append(mat @ rows)
    return np.vstack(blocks)


def coarse_input_oracle(model, enc, agg: np.ndarray) -> np.ndarray:
    """Row by row: the aggregate row, plus the knowledge term on segment
    rows only, plus the coordinate lookups. Segments first, then regions."""
    page, g = enc.page, enc.graph
    knowledge = None
    if model.cs_emb is not None:
        bits = np.array([model.inventory.detect(seg.text) for seg in page.segments])
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


def spatial_indices_direct(coords: np.ndarray, positions, cfg) -> SpatialIndices:
    """``rel_bucket`` applied to every (j - i) offset matrix."""
    pos = np.asarray(positions, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64)
    x0, y0 = coords[:, 0], coords[:, 1]
    return SpatialIndices(
        idx_1d=rel_bucket(pos[None, :] - pos[:, None], cfg.rel_buckets, cfg.rel_max_distance),
        idx_x=rel_bucket(x0[None, :] - x0[:, None], cfg.rel_buckets, cfg.rel_max_distance),
        idx_y=rel_bucket(y0[None, :] - y0[:, None], cfg.rel_buckets, cfg.rel_max_distance),
    )

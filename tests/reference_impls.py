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
knowledge detector without its digit gate (``detect_reference``)
and the document parser that formatted every message up front
(``parse_document_reference``).
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from docgrain.attention import SpatialIndices, rel_bucket
from docgrain.commonsense import _DIGIT_RUN, _SPAN_DETECTORS
from docgrain.document import (
    BBox,
    DocumentParseError,
    Page,
    Segment,
    Word,
    boundary_distance,
    iou,
    normalize_box,
    union_box,
)
from docgrain.embeddings import TEXT_TYPE, VISUAL_TYPE
from docgrain.tensor import Tensor, _make, add, concat_rows, gather, linear

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


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, max-shifted for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
    pad = tables.d - 6 * tables.coord_width
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
        agg = add(agg, model.commonsense_embed(enc.cs_bits))
    return add(agg, composed_layout(enc.coarse_boxes, model.tables))


def composed_fuse(h_fine: Tensor, h_coarse: Tensor, enc) -> Tensor:
    return add(h_fine, gather(h_coarse, enc.parent_row))


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

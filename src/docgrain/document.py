"""Geometry primitives and the OCR document data model.

Coordinates are stored raw (page pixels). Normalization to the 0..1000
integer grid happens only at the embedding boundary, so clustering radii
keep their page-space meaning.

``iou`` and ``boundary_distance`` define the pairwise geometry one pair at
a time; ``iou_matrix`` and ``axis_gaps`` compute it for all pairs of two
``box_array`` arrays at once, in the same operation order, so both forms
agree bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


class DocumentParseError(ValueError):
    """Raised when a document JSON record violates the schema."""


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle with x0 <= x1 and y0 <= y1."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"invalid box: ({self.x0},{self.y0},{self.x1},{self.y1})")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_list(self) -> list[float]:
        return [self.x0, self.y0, self.x1, self.y1]


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0.0 for disjoint or fully degenerate pairs."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def boundary_distance(a: BBox, b: BBox) -> float:
    """Euclidean combination of the per-axis gaps between two rectangles.

    Zero whenever the boxes overlap or touch on both axes.
    """
    dx = max(max(a.x0, b.x0) - min(a.x1, b.x1), 0.0)
    dy = max(max(a.y0, b.y0) - min(a.y1, b.y1), 0.0)
    return math.hypot(dx, dy)


def box_array(boxes: list[BBox]) -> np.ndarray:
    """(n, 4) float64 (x0, y0, x1, y1) rows."""
    return np.array([(b.x0, b.y0, b.x1, b.y1) for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) ``iou`` of two (n, 4) box arrays, bit-equal to it."""
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def axis_gaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(len(a), len(b)) per-axis gaps between two (n, 4) box arrays, in
    ``boundary_distance``'s operation order (zero where boxes overlap)."""
    dx = np.maximum(a[:, None, 0], b[None, :, 0]) - np.minimum(a[:, None, 2], b[None, :, 2])
    dy = np.maximum(a[:, None, 1], b[None, :, 1]) - np.minimum(a[:, None, 3], b[None, :, 3])
    return np.maximum(dx, 0.0), np.maximum(dy, 0.0)


def union_box(boxes: list[BBox]) -> BBox:
    """Smallest rectangle covering every input box."""
    if not boxes:
        raise ValueError("empty region")
    return BBox(
        min(b.x0 for b in boxes),
        min(b.y0 for b in boxes),
        max(b.x1 for b in boxes),
        max(b.y1 for b in boxes),
    )


def normalize_box(b: BBox, page_w: float, page_h: float) -> BBox:
    """Quantize a page-space box onto the 0..1000 integer grid.

    The box is clamped into the page first; each coordinate maps by
    floor(v * 1000 / page_dim) and is clamped to [0, 1000].
    """
    if page_w <= 0 or page_h <= 0:
        raise ValueError(f"non-positive page dimensions: {page_w}x{page_h}")

    def scale(v: float, dim: float) -> float:
        v = min(max(v, 0.0), dim)
        return float(min(max(math.floor(v * 1000.0 / dim), 0), 1000))

    return BBox(scale(b.x0, page_w), scale(b.y0, page_h), scale(b.x1, page_w), scale(b.y1, page_h))


@dataclass(frozen=True)
class Word:
    text: str
    bbox: BBox
    segment_id: int


@dataclass(frozen=True)
class Segment:
    text: str
    bbox: BBox
    word_ids: tuple[int, ...]


@dataclass
class Page:
    """A parsed OCR page: words in reading order, segments, optional raster.

    ``labels`` carries one BIO tag per word when the page is annotated.
    ``image`` is an in-memory (height, width, 3) array of 8-bit integer
    samples or floats in [0, 1]; ``image_path`` points at an on-disk raster
    referenced from the JSON form, relative to the document file.
    """

    width: int
    height: int
    words: list[Word] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    labels: list[str] | None = None
    image_path: str | None = None
    image: object | None = None  # numpy (H, W, 3) array, kept out of JSON

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_segments(self) -> int:
        return len(self.segments)


# Envelope validation tolerance, pixels per edge.
_ENVELOPE_TOL = 1.0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentParseError(message)


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_JSON_NUMBERS = (int, float)


def _parse_bbox(raw: object, kind: str, i: int) -> BBox:
    """The box at ``kind[i]``. The cheap ``type()`` tests come first, and a
    message is formatted only when its check fails."""
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise DocumentParseError(f"bad bbox at {kind}[{i}]")
    for v in raw:
        if not (type(v) in _JSON_NUMBERS or _is_int(v) or isinstance(v, float)):
            raise DocumentParseError(f"bad bbox at {kind}[{i}]: coordinates must be numbers")
    try:
        box = BBox(float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]))
    except (ValueError, OverflowError) as exc:
        raise DocumentParseError(f"bad bbox at {kind}[{i}]: {exc}") from None
    if not (math.isfinite(box.x0) and math.isfinite(box.y0) and math.isfinite(box.x1) and math.isfinite(box.y1)):
        raise DocumentParseError(f"non-finite bbox at {kind}[{i}]")
    return box


def parse_document(data: bytes | str | dict) -> Page:
    """Parse and validate the document JSON interchange format.

    Raises DocumentParseError naming the offending record on any schema or
    consistency violation. The checks run in a fixed order and each message
    is formatted only when its check fails.
    """
    if isinstance(data, (bytes, str)):
        try:
            raw = json.loads(data)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8 and over-long integers
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

    n_segments = len(segments_raw)
    words: list[Word] = []
    for i, w in enumerate(words_raw):
        if not isinstance(w, dict):
            raise DocumentParseError(f"words[{i}] must be an object")
        text = w.get("text")
        if not (isinstance(text, str) and text.strip() != ""):
            raise DocumentParseError(f"empty text at words[{i}]")
        seg_id = w.get("segment_id")
        if not _is_int(seg_id):
            raise DocumentParseError(f"missing or non-integer segment_id at words[{i}]")
        if not 0 <= seg_id < n_segments:
            raise DocumentParseError(f"dangling segment_id at words[{i}]")
        words.append(Word(text, _parse_bbox(w.get("bbox"), "words", i), seg_id))

    n_words = len(words)
    segments: list[Segment] = []
    for i, s in enumerate(segments_raw):
        if not isinstance(s, dict):
            raise DocumentParseError(f"segments[{i}] must be an object")
        text = s.get("text")
        if not isinstance(text, str):
            raise DocumentParseError(f"missing text at segments[{i}]")
        word_ids = s.get("word_ids")
        if not (isinstance(word_ids, list) and len(word_ids) > 0):
            raise DocumentParseError(f"empty segment at segments[{i}]")
        # The word envelope in the same pass: the first extreme wins, as
        # with min() and max().
        ex0 = ey0 = math.inf
        ex1 = ey1 = -math.inf
        for wid in word_ids:
            if not (_is_int(wid) and 0 <= wid < n_words):
                raise DocumentParseError(f"bad word id {wid} at segments[{i}]")
            word = words[wid]
            if word.segment_id != i:
                raise DocumentParseError(f"segments[{i}] lists word {wid} whose segment_id is {word.segment_id}")
            b = word.bbox
            if b.x0 < ex0:
                ex0 = b.x0
            if b.y0 < ey0:
                ey0 = b.y0
            if b.x1 > ex1:
                ex1 = b.x1
            if b.y1 > ey1:
                ey1 = b.y1
        bbox = _parse_bbox(s.get("bbox"), "segments", i)
        for got, want, edge in ((bbox.x0, ex0, "x0"), (bbox.y0, ey0, "y0"), (bbox.x1, ex1, "x1"), (bbox.y1, ey1, "y1")):
            if not abs(got - want) <= _ENVELOPE_TOL:
                raise DocumentParseError(f"segments[{i}].bbox {edge} deviates from word envelope by more than 1 pixel")
        segments.append(Segment(text, bbox, tuple(word_ids)))

    # Segments must partition the words.
    seen: set[int] = set()
    for s in segments:
        for wid in s.word_ids:
            if wid in seen:
                raise DocumentParseError(f"word {wid} listed by more than one segment")
            seen.add(wid)
    _require(len(seen) == n_words, "segments do not cover every word")

    labels = raw.get("labels")
    if labels is not None:
        _require(isinstance(labels, list) and all(isinstance(t, str) for t in labels), "'labels' must be a list of strings")
        _require(len(labels) == n_words, f"labels length {len(labels)} != word count {n_words}")
        labels = list(labels)

    image_path = raw.get("image")
    if image_path is not None:
        _require(isinstance(image_path, str), "'image' must be a path string")

    return Page(width=width, height=height, words=words, segments=segments, labels=labels, image_path=image_path)


def serialize_document(page: Page) -> dict:
    """Inverse of parse_document for valid pages."""
    out: dict = {
        "width": page.width,
        "height": page.height,
        "words": [
            {"text": w.text, "bbox": w.bbox.as_list(), "segment_id": w.segment_id}
            for w in page.words
        ],
        "segments": [
            {"text": s.text, "bbox": s.bbox.as_list(), "word_ids": list(s.word_ids)}
            for s in page.segments
        ],
    }
    if page.labels is not None:
        out["labels"] = list(page.labels)
    if page.image_path is not None:
        out["image"] = page.image_path
    return out


def document_to_json(page: Page) -> str:
    return json.dumps(serialize_document(page), indent=None, separators=(",", ":"))


def image_beside(page: Page, doc_path: str) -> Page:
    """Resolve a relative ``image`` path against the document file's
    directory; ``os.path.join`` keeps an absolute one as it is."""
    if page.image_path is not None:
        page.image_path = os.path.join(os.path.dirname(doc_path), page.image_path)
    return page


def load_document(path: str) -> Page:
    with open(path, "rb") as fh:
        return image_beside(parse_document(fh.read()), path)


def save_document(page: Page, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_to_json(page))

"""Deterministic synthetic form-document corpora.

Pages imitate scanned forms: a header line, key-value pairs, list blocks,
and footer noise, laid out in two columns with wide gaps between blocks so
that block membership and salient regions coincide at the reference
clustering radius.

The ``region_cue`` variant adds blocks of lexically interchangeable
reference lines whose gold label depends on how many segments end up in
the same salient region: members of regions with three or more segments
are labeled ANSWER, smaller ones QUESTION. Ground truth is computed by
actually clustering the finished page at the reference radius, so labels
stay honest even when blocks accidentally merge.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .clustering import ClusterParams, detect_salient_regions
from .document import BBox, Page, Segment, Word, image_beside, parse_document, serialize_document, union_box

CHAR_W = 7
LINE_H = 14
WORD_GAP = 4
PAGE_WIDTH = 800
# The clustering that region-cue labels are computed with; the cue step
# patterns below are tuned to its radius.
REFERENCE_CLUSTERING = ClusterParams(radius=30.0, min_pts=1)
CUE_BLOCKS = 3

_HEADERS = [
    ["MEMORANDUM"],
    ["INVOICE"],
    ["PURCHASE", "ORDER"],
    ["APPLICATION", "SUMMARY"],
    ["STATEMENT"],
    ["REPORT"],
]

_NOISE_LINES = [
    ["Page", "{n1}", "of", "{n2}"],
    ["CONFIDENTIAL"],
    ["DRAFT"],
    ["Copy", "{n1}"],
    ["Rev.", "{n1}"],
]

_MONTHS = ["January", "February", "March", "April", "June", "July",
           "August", "September", "October", "November", "December", "May"]
_FIRST_NAMES = ["James", "Mary", "Robert", "Linda", "Michael", "Susan",
                "David", "Karen", "Thomas", "Nancy", "Daniel", "Laura"]
_LAST_NAMES = ["Smith", "Johnson", "Brown", "Miller", "Wilson", "Moore",
               "Clark", "Lewis", "Walker", "Young"]
_COMPANIES = ["Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne", "Hooli", "Vandelay"]
_COMPANY_SUFFIXES = ["Inc.", "Corp.", "Ltd.", "Co."]
_STREETS = ["Main", "Oak", "Maple", "Market", "Union", "Park"]
_ITEM_NOUNS = ["widget", "bracket", "gasket", "fitting", "sleeve", "washer", "spacer", "clamp"]
_CUE_HEADS = ["ref", "code", "entry", "unit", "node", "item"]
_CUE_TAILS = ["alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma", "zeta"]
_AREA_CODES = ["202", "212", "305", "412", "502", "615", "702", "804"]
_DIGITS3 = ["118", "225", "334", "447", "556", "663", "778", "881"]
_DIGITS4 = ["1024", "2048", "3117", "4205", "5212", "6390", "7411", "8523"]
_SMALL_NUMS = [str(n) for n in (2, 3, 5, 7, 8, 12, 15, 18, 24, 36, 42, 64, 96)]
_YEARS = [str(y) for y in range(1986, 1998)]


@dataclass
class SynthParams:
    """Layout and content knobs for the generator."""

    page_height: int = 1000
    variant: str = "plain"  # "plain" or "region_cue"
    min_kv_pairs: int = 3
    max_kv_pairs: int = 6
    max_list_blocks: int = 2
    max_noise_lines: int = 2

    def __post_init__(self) -> None:
        if self.variant not in ("plain", "region_cue"):
            raise ValueError(f"unknown variant '{self.variant}'")
        if self.min_kv_pairs < 0 or self.max_kv_pairs < self.min_kv_pairs:
            raise ValueError("bad kv pair bounds")


@dataclass
class CorpusBundle:
    """Generated pages plus the generator's own label bookkeeping."""

    pages: list[Page]
    seed: int
    params: SynthParams
    tag_counts: Counter = field(default_factory=Counter)
    entity_counts: Counter = field(default_factory=Counter)


class _Builder:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.words: list[tuple[str, BBox, int]] = []
        self.labels: list[str] = []
        self.segment_words: list[list[int]] = []
        self.cue_segments: list[int] = []

    def line_width(self, texts: list[str]) -> int:
        return sum(CHAR_W * len(t) for t in texts) + WORD_GAP * (len(texts) - 1)

    def add_line(self, texts: list[str], labels: list[str], x: float, y: float, cue: bool = False) -> int:
        seg_id = len(self.segment_words)
        word_ids = []
        cx = x
        for text, label in zip(texts, labels):
            w = CHAR_W * len(text)
            self.words.append((text, BBox(cx, y, cx + w, y + LINE_H), seg_id))
            self.labels.append(label)
            word_ids.append(len(self.words) - 1)
            cx += w + WORD_GAP
        self.segment_words.append(word_ids)
        if cue:
            self.cue_segments.append(seg_id)
        return seg_id

    def build(self) -> Page:
        words = [Word(text=t, bbox=b, segment_id=s) for t, b, s in self.words]
        segments = [
            Segment(
                text=" ".join(words[i].text for i in word_ids),
                bbox=union_box([words[i].bbox for i in word_ids]),
                word_ids=tuple(word_ids),
            )
            for word_ids in self.segment_words
        ]
        return Page(
            width=self.width,
            height=self.height,
            words=words,
            segments=segments,
            labels=list(self.labels),
        )


def _entity(tags: list[str], etype: str) -> list[str]:
    return [f"B-{etype}" if i == 0 else f"I-{etype}" for i in range(len(tags))]


def _pick(rng: np.random.Generator, pool: list) -> object:
    return pool[int(rng.integers(len(pool)))]


def _kv_content(rng: np.random.Generator) -> tuple[list[str], list[str]]:
    kind = _pick(rng, ["phone", "date", "name", "company", "money", "address", "quantity"])
    if kind == "phone":
        key = [_pick(rng, ["Fax:", "Phone:", "Tel:"])]
        value = [f"({_pick(rng, _AREA_CODES)})", f"{_pick(rng, _DIGITS3)}-{_pick(rng, _DIGITS4)}"]
    elif kind == "date":
        key = [_pick(rng, ["Date:", "Due:", "Issued:"])]
        value = [str(_pick(rng, _MONTHS)), f"{int(rng.integers(1, 29))},", _pick(rng, _YEARS)]
    elif kind == "name":
        key = [_pick(rng, ["Name:", "From:", "To:", "Attn:"])]
        value = [_pick(rng, _FIRST_NAMES), _pick(rng, _LAST_NAMES)]
    elif kind == "company":
        key = ["Company:"]
        value = [_pick(rng, _COMPANIES), _pick(rng, _COMPANY_SUFFIXES)]
    elif kind == "money":
        key = [_pick(rng, ["Total:", "Amount:", "Balance:"])]
        value = [f"${_pick(rng, _SMALL_NUMS)}.{int(rng.integers(10, 99))}"]
    elif kind == "address":
        key = ["Address:"]
        value = [_pick(rng, _SMALL_NUMS), _pick(rng, _STREETS), "St."]
    else:
        key = [_pick(rng, ["Qty:", "Count:", "Units:"])]
        value = [_pick(rng, _SMALL_NUMS)]
    return [str(k) for k in key], [str(v) for v in value]


def _noise_line(rng: np.random.Generator) -> list[str]:
    template = _pick(rng, _NOISE_LINES)
    return [t.format(n1=int(rng.integers(1, 9)), n2=int(rng.integers(2, 9))) for t in template]


class _ColumnFlow:
    """Two-column top-down placement with wide gaps between blocks."""

    def __init__(self, rng: np.random.Generator, width: int, height: int, top: float):
        self.rng = rng
        self.xs = [40.0, width / 2 + 30.0]
        self.ys = [top + float(rng.integers(0, 41)), top + float(rng.integers(0, 41))]
        self.height = height

    def place(self, block_height: float) -> tuple[float, float] | None:
        order = [0, 1] if self.ys[0] <= self.ys[1] else [1, 0]
        for col in order:
            if self.ys[col] + block_height < self.height - 60:
                x = self.xs[col] + float(self.rng.integers(0, 25))
                y = self.ys[col]
                self.ys[col] = y + block_height + 70.0 + float(self.rng.integers(0, 40))
                return x, y
        return None


def _generate_plain(rng: np.random.Generator, params: SynthParams, builder: _Builder) -> None:
    header = [str(w) for w in _pick(rng, _HEADERS)]
    builder.add_line(header, _entity(header, "HEADER"), 280.0 + float(rng.integers(0, 60)), 30.0)

    flow = _ColumnFlow(rng, PAGE_WIDTH, params.page_height, 140.0)
    n_kv = int(rng.integers(params.min_kv_pairs, params.max_kv_pairs + 1))
    n_lists = int(rng.integers(0, params.max_list_blocks + 1))
    n_noise = int(rng.integers(1, params.max_noise_lines + 1))

    for _ in range(n_kv):
        key, value = _kv_content(rng)
        stacked = bool(rng.integers(0, 2))
        spot = flow.place(2 * LINE_H + 10 if stacked else LINE_H)
        if spot is None:
            break
        x, y = spot
        builder.add_line(key, _entity(key, "QUESTION"), x, y)
        if stacked:
            builder.add_line(value, _entity(value, "ANSWER"), x + 8, y + LINE_H + 10)
        else:
            builder.add_line(value, _entity(value, "ANSWER"), x + builder.line_width(key) + 12, y)

    for _ in range(n_lists):
        n_items = int(rng.integers(3, 6))
        block_h = (n_items + 1) * (LINE_H + 8)
        spot = flow.place(block_h)
        if spot is None:
            break
        x, y = spot
        title = [_pick(rng, ["Items:", "Parts:", "Order:"])]
        builder.add_line([str(t) for t in title], _entity(title, "QUESTION"), x, y)
        for i in range(n_items):
            item = ["-", str(_pick(rng, _ITEM_NOUNS)), str(_pick(rng, _SMALL_NUMS))]
            builder.add_line(item, _entity(item, "ANSWER"), x + 10, y + (i + 1) * (LINE_H + 8))

    for _ in range(n_noise):
        line = _noise_line(rng)
        spot = flow.place(LINE_H)
        if spot is None:
            break
        x, y = spot
        builder.add_line(line, ["O"] * len(line), x, y)


# Cue blocks are always four stacked segments. The chained layout keeps
# every boundary gap inside the reference radius (one 4-member region);
# the split layout pushes only the middle gap just past it (two 2-member
# regions). The two step patterns share the block span (66), so flow
# positions and block heights match, and their pairwise y-offset
# multisets ({36,36,36,72,72,108} vs {30,30,48,78,78,108}) land in
# identical bucket multisets under the default 32-bucket scheme. The
# label is therefore invisible to bucketized fine-grained attention and
# readable only through the salient regions.
_CUE_CHAIN_STEPS = (22.0, 22.0, 22.0)
_CUE_SPLIT_STEPS = (16.0, 34.0, 16.0)


def _generate_region_cue(rng: np.random.Generator, params: SynthParams, builder: _Builder) -> None:
    header = [str(w) for w in _pick(rng, _HEADERS)]
    builder.add_line(header, _entity(header, "HEADER"), 280.0 + float(rng.integers(0, 60)), 30.0)

    flow = _ColumnFlow(rng, PAGE_WIDTH, params.page_height, 140.0)
    dense = bool(rng.integers(0, 2))
    steps = _CUE_CHAIN_STEPS if dense else _CUE_SPLIT_STEPS
    block_h = 4 * LINE_H + sum(steps)
    for _ in range(CUE_BLOCKS):
        spot = flow.place(block_h)
        if spot is None:
            break
        x, y = spot
        for i in range(4):
            line = [str(_pick(rng, _CUE_HEADS)), str(_pick(rng, _CUE_TAILS))]
            # Placeholder labels; rewritten after clustering the full page.
            builder.add_line(line, ["O"] * len(line), x, y, cue=True)
            if i < 3:
                y += LINE_H + steps[i]

    key, value = _kv_content(rng)
    spot = flow.place(LINE_H)
    if spot is not None:
        x, y = spot
        builder.add_line(key, _entity(key, "QUESTION"), x, y)
        builder.add_line(value, _entity(value, "ANSWER"), x + builder.line_width(key) + 12, y)

    line = _noise_line(rng)
    spot = flow.place(LINE_H)
    if spot is not None:
        x, y = spot
        builder.add_line(line, ["O"] * len(line), x, y)


def _apply_region_cue_labels(builder: _Builder, page: Page) -> None:
    regions = detect_salient_regions(page.segments, REFERENCE_CLUSTERING)
    region_size: dict[int, int] = {}
    for region in regions:
        for seg in region.member_segment_ids:
            region_size[seg] = len(region.member_segment_ids)
    for seg_id in builder.cue_segments:
        etype = "ANSWER" if region_size[seg_id] >= 3 else "QUESTION"
        word_ids = builder.segment_words[seg_id]
        for j, wid in enumerate(word_ids):
            page.labels[wid] = f"B-{etype}" if j == 0 else f"I-{etype}"


def probe_page() -> Page:
    """Tiny fixed 6-word page used by gradient checks: two key-value rows,
    one clustered pair of segments plus one isolated segment."""
    builder = _Builder(400, 200)
    builder.add_line(["Date:"], _entity(["Date:"], "QUESTION"), 30.0, 30.0)
    builder.add_line(
        ["January", "5,", "1989"], _entity(["x"] * 3, "ANSWER"), 90.0, 30.0
    )
    builder.add_line(["Total:", "$12.50"], ["B-QUESTION", "B-ANSWER"], 30.0, 150.0)
    return builder.build()


def generate_page(seed: int, index: int, params: SynthParams) -> Page:
    """One labeled page; (seed, index) fully determines the output."""
    rng = np.random.default_rng([seed, index])
    builder = _Builder(PAGE_WIDTH, params.page_height)
    if params.variant == "plain":
        _generate_plain(rng, params, builder)
    else:
        _generate_region_cue(rng, params, builder)
    page = builder.build()
    if params.variant == "region_cue":
        _apply_region_cue_labels(builder, page)
    return page


def synth_generate(seed: int, count: int, params: SynthParams | None = None) -> CorpusBundle:
    """Deterministic corpus of labeled pages with tag/entity bookkeeping."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    params = params if params is not None else SynthParams()
    bundle = CorpusBundle(pages=[], seed=seed, params=params)
    from .labeling import bio_decode

    for index in range(count):
        page = generate_page(seed, index, params)
        bundle.pages.append(page)
        bundle.tag_counts.update(page.labels)
        bundle.entity_counts.update(e.type for e in bio_decode(page.labels))
    return bundle


def save_corpus(bundle: CorpusBundle, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "seed": bundle.seed,
        "count": len(bundle.pages),
        "params": asdict(bundle.params),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for i, page in enumerate(bundle.pages):
        with open(os.path.join(out_dir, f"doc_{i:05d}.json"), "w", encoding="utf-8") as fh:
            json.dump(serialize_document(page), fh, separators=(",", ":"))


def load_corpus(corpus_dir: str) -> list[Page]:
    names = sorted(n for n in os.listdir(corpus_dir) if n.startswith("doc_") and n.endswith(".json"))
    if not names:
        raise ValueError(f"no documents found in {corpus_dir}")
    pages = []
    for name in names:
        path = os.path.join(corpus_dir, name)
        with open(path, "rb") as fh:
            pages.append(image_beside(parse_document(fh.read()), path))
    return pages

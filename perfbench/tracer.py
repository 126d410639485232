"""Per-layer spans recorded from outside docgrain.

``install`` replaces module and class attributes of docgrain with thin
wrappers that record a span (name, start, end, parent, doc id, call) per
call into an in-memory list. Names that a module imported by value are
patched where they are used: ``docgrain.model.build_graph`` is a separate
binding from ``docgrain.graph.build_graph``, and only the first one is
what ``Model.encode_page`` calls. A target that no longer exists is
reported as absent and skipped.

Only the traced benchmark process calls ``install``; the untraced process
runs docgrain unmodified.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter

# Span name -> every binding through which docgrain reaches the function.
SPANS = {
    "document.parse_document": ("docgrain.document:parse_document", "docgrain.synth:parse_document"),
    "checkpoint.load_checkpoint": ("docgrain.checkpoint:load_checkpoint",),
    "checkpoint.save_checkpoint": ("docgrain.checkpoint:save_checkpoint",),
    "vocab.build_vocab": ("docgrain.vocab:build_vocab", "docgrain.training:build_vocab"),
    "vocab.tokenize": ("docgrain.vocab:tokenize", "docgrain.model:tokenize"),
    "clustering.detect_salient_regions": (
        "docgrain.clustering:detect_salient_regions",
        "docgrain.graph:detect_salient_regions",
    ),
    "graph.build_graph": ("docgrain.graph:build_graph", "docgrain.model:build_graph"),
    "embeddings.patch_raw_features": (
        "docgrain.embeddings:patch_raw_features",
        "docgrain.model:patch_raw_features",
    ),
    "commonsense.detect_all": ("docgrain.commonsense:CommonSenseInventory.detect_all",),
    "attention.spatial_indices": ("docgrain.attention:spatial_indices", "docgrain.model:spatial_indices"),
    "attention.multi_head_attention": ("docgrain.attention:multi_head_attention",),
    "attention.feed_forward": ("docgrain.attention:feed_forward",),
    "model.encode_page": ("docgrain.model:Model.encode_page",),
    "model.fine_input": ("docgrain.model:Model.fine_input",),
    "model.fine_encode": ("docgrain.model:Model.fine_encode",),
    "model.aggregate": ("docgrain.model:Model.aggregate",),
    "model.coarse_input": ("docgrain.model:Model.coarse_input",),
    "model.coarse_encode": ("docgrain.model:Model.coarse_encode",),
    "model.fuse": ("docgrain.model:Model.fuse",),
    "labeling.labeling_head": ("docgrain.labeling:labeling_head", "docgrain.model:labeling_head"),
    "tensor.backward": ("docgrain.tensor:Tensor.backward",),
    "optim.adam_step": ("docgrain.optim:Adam.step",),
}

# Hot leaf functions: counted, not spanned, so that the recorder's own cost
# stays small next to theirs.
COUNTERS = {
    "clustering.boundary_distance": ("docgrain.clustering:boundary_distance",),
    "graph.iou": ("docgrain.graph:iou",),
}

SPAN_STATS = (("calls", "count"), ("self_ms_p50", "ms"), ("self_ms_p90", "ms"), ("share", "ratio"))

COUNT_METRICS = (
    ("tensor.tape_nodes_per_doc", "count"),
    ("clustering.boundary_distance_calls_per_doc", "count"),
    ("graph.iou_calls_per_doc", "count"),
    ("optim.steps", "count"),
    ("model.fine_tokens_per_doc.mean", "count"),
    ("model.fine_tokens_per_doc.max", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.absent_hooks", "count"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"{span}.{stat}", unit) for span in SPANS for stat, unit in SPAN_STATS]
    return names + list(COUNT_METRICS)


def tape_nodes(root) -> int:
    """Interior nodes of the autodiff graph under ``root``: every recorded
    op that carries a backward closure."""
    seen: set[int] = set()
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if getattr(node, "_backward", None) is not None:
            count += 1
        stack.extend(getattr(node, "_parents", ()))
    return count


class Recorder:
    """In-memory spans plus counters; nothing is written until ``dump``."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent, doc, call]
        self.counts: Counter = Counter()
        self.fine_tokens: list[int] = []
        self.absent: list[str] = []
        self.call = -1
        self._stack: list[int] = []
        self._docs: dict[int, tuple[int, object]] = {}
        self._page_cls = None

    def begin_call(self) -> None:
        """Start a new timed call; doc ids restart at 0 inside each call."""
        self.call += 1
        self._docs = {}

    def _doc_of(self, args) -> int:
        for arg in args:
            page = getattr(arg, "page", arg)
            if self._page_cls is not None and isinstance(page, self._page_cls):
                # Keep the page alive so its id() is not reused inside this call.
                return self._docs.setdefault(id(page), (len(self._docs), page))[0]
        return self.spans[self._stack[-1]][4] if self._stack else -1

    def open(self, name: str, args=()) -> int:
        parent = self._stack[-1] if self._stack else -1
        doc = self._doc_of(args)
        self.spans.append([name, time.perf_counter(), None, parent, doc, self.call])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- hooks ---------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        before = after = None
        if name == "tensor.backward":
            def before(args):
                self.counts["tensor.tape_nodes"] += tape_nodes(args[0])
        elif name == "model.encode_page":
            def after(out):
                self.fine_tokens.append(getattr(out, "n_text", 0) + getattr(out, "n_visual", 0))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = self.open(name, args)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every target in SPANS and COUNTERS that exists."""
        try:
            self._page_cls = importlib.import_module("docgrain.document").Page
        except (ImportError, AttributeError):
            self.absent.append("docgrain.document:Page")
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for name, targets in table.items():
                for target in targets:
                    found = _resolve(target)
                    if found is None:
                        self.absent.append(target)
                        continue
                    owner, attr, fn = found
                    setattr(owner, attr, make(name, fn))

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def metrics(self, wall_s: float, n_calls: int, docs_per_call: int, overhead: float) -> dict:
        """Per-layer metrics over ``n_calls`` traced calls of ``wall_s`` total;
        ``overhead`` is the traced call time over the untraced one."""
        by_name: dict[str, list[float]] = {name: [] for name in SPANS}
        for span, self_s in zip(self.spans, self.self_times()):
            if span[0] in by_name:
                by_name[span[0]].append(self_s)
        out = {}
        for name, selfs in by_name.items():
            ms = [s * 1e3 for s in selfs]
            out[f"{name}.calls"] = (len(ms) / n_calls, "count")
            out[f"{name}.self_ms_p50"] = (_quantile(ms, 0.5), "ms")
            out[f"{name}.self_ms_p90"] = (_quantile(ms, 0.9), "ms")
            out[f"{name}.share"] = (sum(selfs) / wall_s, "ratio")
        encoded = max(len(by_name["model.encode_page"]), 1)
        docs = max(n_calls * docs_per_call, 1)
        out["tensor.tape_nodes_per_doc"] = (self.counts["tensor.tape_nodes"] / docs, "count")
        out["clustering.boundary_distance_calls_per_doc"] = (
            self.counts["clustering.boundary_distance"] / encoded, "count")
        out["graph.iou_calls_per_doc"] = (self.counts["graph.iou"] / encoded, "count")
        out["optim.steps"] = (len(by_name["optim.adam_step"]) / n_calls, "count")
        tokens = self.fine_tokens or [0]
        out["model.fine_tokens_per_doc.mean"] = (statistics.fmean(tokens), "count")
        out["model.fine_tokens_per_doc.max"] = (max(tokens), "count")
        out["trace.overhead_ratio"] = (overhead, "ratio")
        out["trace.absent_hooks"] = (len(self.absent), "count")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}

    def dump(self, path) -> None:
        """Write every span as one JSON line, times in seconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, doc, call in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - t0, 7), "end": round(end - t0, 7),
                    "parent": parent, "doc": doc, "call": call,
                }) + "\n")


def _resolve(target: str):
    """``module:attr`` or ``module:Class.attr`` -> (owner, attr, current value)."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

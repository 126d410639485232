"""The four-stage multi-grained document model.

Stages: spatial fine-grained encoding over words and patches, aggregation
of fine features into segment and region nodes along the graph's parent
edges, knowledge-enhanced coarse encoding with canonical attention, and
fusion of each coarse feature back onto its fine children. Coordinates
reach the model only through the shared layout tables. The fine input, the
aggregate, the coarse input, fuse, and the head plus loss are one tape node
each; with the spatial bias and four per Transformer layer, a reference
document's loss is 18 nodes.

``Model.encode_page`` computes the O(n) facts of a page (graph, normalized
coordinates, positions, parent rows, targets) with whole-array numpy, each
equal to its per-element definition bit for bit. The pairwise bucket
indices and the aggregation matrix are built by the stages that read them.

Each parameter is declared once; ``load_model`` fills the declarations from
a checkpoint's tensors, checked there by shape and finiteness, and draws nothing.
"""

from __future__ import annotations

import numbers
import sys
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checkpoint
from .attention import (
    REL_BUCKETS,
    LayerParams,
    RelativeBiasTables,
    spatial_bias,
    spatial_indices,
    transformer_layer,
)
from .checkpoint import CheckpointError
from .clustering import ClusterParams
from .commonsense import DEFAULT_CATEGORIES, CommonSenseInventory
from .document import BBox, Page, box_array
from .embeddings import (
    COORD_RANGE,
    PATCH_RAW_DIM,
    TEXT_TYPE,
    VISUAL_TYPE,
    EmbeddingTables,
    layout_lookups,
    patch_raw_features,
)
from .graph import DocumentGraph, build_graph
from .labeling import BioTagSet, labeling_head
from .tensor import (
    IGNORE_INDEX,
    Tensor,
    add_lookups,
    coarse_input_sum,
    fine_input_sum,
    grad_check,
    linear_cross_entropy,
    matmul,
    no_grad,
)
from .vocab import SPECIALS, TokenSeq, Vocab, tokenize


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}


def check_field_types(config) -> None:
    """ValueError unless every int, float, str or bool field (optionally
    ``| None``) of a config dataclass holds that type; a bool is no number
    and a float field is finite."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        expected = _FIELD_TYPES.get(kind)
        if expected is None or (optional and value is None):
            continue
        if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        # NaN fails every comparison; an integer beyond the float range is no float.
        if kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ValueError(f"{f.name} must be a finite float, got {value!r}")


def config_from_dict(cls, data: dict, retired: dict, kind: str):
    """``cls(**data)`` once the ``retired`` keys are dropped; ValueError
    naming the key if one holds anything but the value the code implements,
    or if a key is unknown."""
    data = dict(data)
    for key, implemented in retired.items():
        value = data.pop(key, implemented)
        if isinstance(value, bool) or value != implemented:
            raise ValueError(f"retired {kind} config field '{key}' must be {implemented!r}, got {value!r}")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {kind} config fields: {sorted(unknown)}")
    return cls(**data)


# Fields older checkpoints carry, at the only value the model implements (a GELU
# FFN 4d wide, d-wide knowledge vectors, no masking, summed children, the
# clustering's one-neighbour core rule and the fixed relative-bucket scheme).
_RETIRED_FIELDS = {
    "activation": "gelu",
    "dropout": 0.0,
    "ffn_width": None,
    "commonsense_dim": None,
    "aggregation": "sum",
    "min_pts": 1,
    "rel_buckets": 32,
    "rel_max_distance": 1000,
}


@dataclass
class ModelConfig:
    """Every architectural hyperparameter; JSON configs mirror these names."""

    d: int = 64
    heads: int = 4
    fine_layers: int = 2
    coarse_layers: int = 1
    vocab_size: int = 2048  # caps the vocabulary; the word table has len(vocab) rows
    max_len: int = 512
    grid: tuple[int, int] = (7, 7)
    commonsense_k: int = 8
    radius: float = 30.0
    seed: int = 0
    use_cross_grained: bool = True

    def __post_init__(self) -> None:
        check_field_types(self)
        grid = self.grid if isinstance(self.grid, (list, tuple)) else ()
        if len(grid) != 2 or not all(
            isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1 for n in grid
        ):
            raise ValueError(f"grid must be two integers >= 1, got {self.grid!r}")
        self.grid = (int(grid[0]), int(grid[1]))
        if self.d < 6:
            raise ValueError(f"model width must be at least 6, got {self.d}")
        if min(self.heads, self.max_len) < 1:
            raise ValueError("heads and max_len must be positive")
        if self.vocab_size < len(SPECIALS):
            raise ValueError(f"vocab_size must be at least {len(SPECIALS)}, the special tokens, got {self.vocab_size}")
        if self.d % self.heads != 0:
            raise ValueError(f"width {self.d} not divisible by {self.heads} heads")
        if self.fine_layers < 1:
            raise ValueError("at least one fine layer is required")
        if not 0 <= self.coarse_layers <= 5:
            raise ValueError(f"coarse_layers must be in [0, 5], got {self.coarse_layers}")
        if not 0 <= self.commonsense_k <= len(DEFAULT_CATEGORIES):
            raise ValueError(f"commonsense_k must be in [0, {len(DEFAULT_CATEGORIES)}], got {self.commonsense_k}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def coord_width(self) -> int:
        return self.d // 6

    def to_dict(self) -> dict:
        out = asdict(self)
        out["grid"] = list(self.grid)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return config_from_dict(cls, data, _RETIRED_FIELDS, "model")


def gradcheck_config(seed: int = 0) -> ModelConfig:
    """Small width/depth configuration for finite-difference verification."""
    return ModelConfig(
        d=16,
        heads=2,
        fine_layers=2,
        coarse_layers=1,
        vocab_size=64,
        max_len=32,
        grid=(2, 2),
        commonsense_k=4,
        seed=seed,
    )


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal samples resampled until within two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def normalized_coords(boxes: list[BBox], page: Page) -> np.ndarray:
    """(n, 4) int64 (x0, y0, x1, y1) of page-space boxes on the 0..1000
    grid: ``normalize_box`` on every box at once, in its operation order."""
    if page.width <= 0 or page.height <= 0:
        raise ValueError(f"non-positive page dimensions: {page.width}x{page.height}")
    dims = np.array([page.width, page.height] * 2, dtype=np.float64)
    v = np.minimum(np.maximum(box_array(boxes), 0.0), dims)
    if np.isnan(v).any():
        raise ValueError("cannot normalize a NaN box coordinate")
    return np.minimum(np.maximum(np.floor(v * 1000.0 / dims), 0.0), 1000.0).astype(np.int64)


@dataclass
class EncodedDoc:
    """Everything about one page that is constant across forward passes.
    Each granularity is one stacked sequence, text rows first; no array
    grows faster than the sequence lengths."""

    page: Page
    graph: DocumentGraph
    tokens: TokenSeq
    patch_raw: np.ndarray  # (WH, PATCH_RAW_DIM)
    fine_boxes: np.ndarray  # (L + WH, 4) normalized coordinates
    positions: np.ndarray  # (L + WH,) 1D positions, restarting at 0 for patches
    cs_bits: np.ndarray  # (Z + P, K) knowledge bits, zero rows for regions
    coarse_boxes: np.ndarray  # (Z + P, 4) normalized coordinates
    parent_row: np.ndarray  # (L + WH,) rows into the coarse stack
    targets: np.ndarray | None  # per-token tag ids, IGNORE_INDEX on continuations

    @property
    def n_text(self) -> int:
        return len(self.tokens)

    @property
    def n_visual(self) -> int:
        return self.patch_raw.shape[0]


class Model:
    """Parameter store plus the full forward computation."""

    def __init__(
        self,
        config: ModelConfig,
        vocab: Vocab,
        tag_set: BioTagSet | None = None,
        tensors: dict[str, np.ndarray] | None = None,
    ):
        if len(vocab) > config.vocab_size:
            raise ValueError(f"vocabulary size {len(vocab)} exceeds configured {config.vocab_size}")
        self.config = config
        self.vocab = vocab
        self.tag_set = tag_set if tag_set is not None else BioTagSet()
        self.inventory = CommonSenseInventory(config.commonsense_k)
        self.params: dict[str, Tensor] = {}
        self._tensors = tensors
        self._build_params()
        if tensors is not None and (extra := tensors.keys() - self.params.keys()):
            raise CheckpointError(f"checkpoint has unexpected tensors: {sorted(extra)}")

    # -- parameter construction -------------------------------------------

    def _param(self, name: str, shape: tuple, init=None) -> Tensor:
        """Declare parameter ``name`` of ``shape``: ``init(shape)`` (by default a
        ``trunc_normal`` draw from the name's own stream) for a fresh model, or
        the loaded tensor of that name, which must have that shape and be finite."""
        if self._tensors is None:
            value = trunc_normal(self._rng_for(name), shape) if init is None else init(shape)
        elif name not in self._tensors:
            raise CheckpointError(f"checkpoint missing tensor '{name}'")
        else:
            value = self._tensors[name]
            if value.shape != shape:
                raise CheckpointError(f"tensor '{name}' has shape {value.shape}, expected {shape}")
            if not np.isfinite(value).all():
                raise CheckpointError(f"tensor '{name}' holds a non-finite value")
        t = Tensor(value, requires_grad=True)
        self.params[name] = t
        return t

    def _rng_for(self, name: str) -> np.random.Generator:
        # One stream per parameter name: init values do not depend on how
        # many other parameters the architecture happens to have.
        digest = zlib.crc32(name.encode("utf-8"))
        return np.random.default_rng([self.config.seed, digest])

    def _layer(self, prefix: str) -> LayerParams:
        d, ffn = self.config.d, 4 * self.config.d
        return LayerParams(
            wq=self._param(f"{prefix}.wq", (d, d)),
            bq=self._param(f"{prefix}.bq", (d,), np.zeros),
            wk=self._param(f"{prefix}.wk", (d, d)),
            bk=self._param(f"{prefix}.bk", (d,), np.zeros),
            wv=self._param(f"{prefix}.wv", (d, d)),
            bv=self._param(f"{prefix}.bv", (d,), np.zeros),
            wo=self._param(f"{prefix}.wo", (d, d)),
            bo=self._param(f"{prefix}.bo", (d,), np.zeros),
            ln1_gain=self._param(f"{prefix}.ln1_gain", (d,), np.ones),
            ln1_bias=self._param(f"{prefix}.ln1_bias", (d,), np.zeros),
            ln2_gain=self._param(f"{prefix}.ln2_gain", (d,), np.ones),
            ln2_bias=self._param(f"{prefix}.ln2_bias", (d,), np.zeros),
            ffn_w1=self._param(f"{prefix}.ffn_w1", (d, ffn)),
            ffn_b1=self._param(f"{prefix}.ffn_b1", (ffn,), np.zeros),
            ffn_w2=self._param(f"{prefix}.ffn_w2", (ffn, d)),
            ffn_b2=self._param(f"{prefix}.ffn_b2", (d,), np.zeros),
        )

    def _build_params(self) -> None:
        cfg = self.config
        # One row per vocabulary token: no id reaches past len(vocab). The draw
        # keeps its full (vocab_size, d) shape, because trunc_normal resamples
        # over the whole array, and the kept rows are a copy, so the draw is freed.
        word = lambda _: trunc_normal(self._rng_for("emb.word"), (cfg.vocab_size, cfg.d))[: len(self.vocab)].copy()
        self.tables = EmbeddingTables(
            word=self._param("emb.word", (len(self.vocab), cfg.d), word),
            token_type=self._param("emb.token_type", (2, cfg.d)),
            position=self._param("emb.position", (cfg.max_len, cfg.d)),
            coord_x=self._param("emb.coord_x", (COORD_RANGE, cfg.coord_width)),
            coord_y=self._param("emb.coord_y", (COORD_RANGE, cfg.coord_width)),
            patch_proj_w=self._param("emb.patch_w", (PATCH_RAW_DIM, cfg.d)),
            patch_proj_b=self._param("emb.patch_b", (cfg.d,), np.zeros),
        )
        self.bias_tables = RelativeBiasTables(
            rel_1d=self._param("bias.rel_1d", (REL_BUCKETS, cfg.heads), np.zeros),
            rel_x=self._param("bias.rel_x", (REL_BUCKETS, cfg.heads), np.zeros),
            rel_y=self._param("bias.rel_y", (REL_BUCKETS, cfg.heads), np.zeros),
        )
        self.fine_stack = [self._layer(f"fine.{i}") for i in range(cfg.fine_layers)]
        self.coarse_stack = [self._layer(f"coarse.{i}") for i in range(cfg.coarse_layers)]
        if cfg.commonsense_k > 0:
            self.cs_emb = self._param("cs.emb", (cfg.commonsense_k, cfg.d))
            # Near-identity start so the knowledge term begins as a gentle additive hint.
            proj = lambda shape: np.eye(cfg.d) + trunc_normal(self._rng_for("cs.proj"), shape)
            self.cs_proj = self._param("cs.proj", (cfg.d, cfg.d), proj)
        else:
            self.cs_emb = None
            self.cs_proj = None
        self.head_w = self._param("head.w", (cfg.d, self.tag_set.n_tags))
        self.head_b = self._param("head.b", (self.tag_set.n_tags,), np.zeros)

    # -- page encoding (constant per document) ----------------------------

    def encode_page(self, page: Page) -> EncodedDoc:
        cfg = self.config
        graph = build_graph(page, ClusterParams(radius=cfg.radius), cfg.grid)
        tokens = tokenize(page.words, self.vocab, cfg.max_len)
        patch_raw = patch_raw_features(page, cfg.grid[0], cfg.grid[1])
        n_text, n_visual = len(tokens), patch_raw.shape[0]
        if n_text + n_visual > cfg.max_len:
            raise ValueError(f"{n_text} text + {n_visual} visual tokens exceed max_len {cfg.max_len}")
        # Each word's box is normalized once; a token takes its word's row.
        word_index = np.asarray(tokens.word_index, dtype=np.int64)
        fine_boxes = np.concatenate([
            normalized_coords([w.bbox for w in page.words], page)[word_index],
            normalized_coords(graph.patch_bboxes, page),
        ])
        positions = np.concatenate([np.arange(n_text), np.arange(n_visual)]).astype(np.int64)

        # Row of each fine element's parent in the stacked [segments; regions]
        # coarse sequence; ``aggregate`` sums along it.
        n_seg, n_reg = graph.n_coarse_text, graph.n_coarse_visual
        text_parent = np.asarray(graph.text_parent, dtype=np.int64)
        parent_row = np.concatenate([
            text_parent[word_index],
            n_seg + np.asarray(graph.visual_parent, dtype=np.int64),
        ])

        cs_bits = np.zeros((n_seg + n_reg, self.inventory.size))
        cs_bits[:n_seg] = self.inventory.detect_all([s.text for s in page.segments])
        coarse_boxes = normalized_coords([s.bbox for s in page.segments] + [r.bbox for r in graph.regions], page)

        targets = None
        if page.labels is not None:
            # Each word's tag on its first sub-token; continuations are ignored.
            first = np.flatnonzero(tokens.first_subtoken)
            targets = np.full(n_text, IGNORE_INDEX, dtype=np.int64)
            targets[first] = [self.tag_set.tag_id(page.labels[tokens.word_index[t]]) for t in first]

        return EncodedDoc(
            page=page,
            graph=graph,
            tokens=tokens,
            patch_raw=patch_raw,
            fine_boxes=fine_boxes,
            positions=positions,
            cs_bits=cs_bits,
            coarse_boxes=coarse_boxes,
            parent_row=parent_row,
            targets=targets,
        )

    # -- forward stages ----------------------------------------------------

    def fine_input(self, enc: EncodedDoc) -> Tensor:
        """Word rows then patch rows, plus token-type, position and layout rows."""
        t = self.tables
        token_type = np.repeat([TEXT_TYPE, VISUAL_TYPE], [enc.n_text, enc.n_visual])
        return fine_input_sum(t.word, enc.tokens.ids, enc.patch_raw, t.patch_proj_w, t.patch_proj_b, [
            (t.token_type, token_type, 0),
            (t.position, enc.positions, 0),
            *layout_lookups(enc.fine_boxes, t),
        ])

    def fine_encode(self, h: Tensor, enc: EncodedDoc) -> Tensor:
        # One bias for every fine layer: the relative tables are shared.
        bias = spatial_bias(self.bias_tables, spatial_indices(enc.fine_boxes, enc.positions))
        for layer in self.fine_stack:
            h = transformer_layer(h, layer, self.config.heads, bias)
        return h

    def aggregate(self, h_fine: Tensor, enc: EncodedDoc) -> Tensor:
        """The stacked [segments; regions] sums of fine children."""
        agg = np.zeros((enc.coarse_boxes.shape[0], enc.parent_row.shape[0]))
        agg[enc.parent_row, np.arange(enc.parent_row.shape[0])] = 1.0
        return matmul(Tensor(agg), h_fine)

    def coarse_input(self, agg: Tensor, enc: EncodedDoc) -> Tensor:
        """The aggregate plus the knowledge term, if any, and layout rows."""
        lookups = layout_lookups(enc.coarse_boxes, self.tables)
        if self.cs_emb is None:
            return add_lookups(agg, lookups)
        return coarse_input_sum(agg, enc.cs_bits, self.cs_emb, self.cs_proj, lookups)

    def coarse_encode(self, h: Tensor) -> Tensor:
        for layer in self.coarse_stack:
            h = transformer_layer(h, layer, self.config.heads)
        return h

    def fuse(self, h_fine: Tensor, h_coarse: Tensor, enc: EncodedDoc) -> Tensor:
        return add_lookups(h_fine, [(h_coarse, enc.parent_row, 0)])

    def forward_encoded(self, enc: EncodedDoc) -> tuple[Tensor, dict]:
        """The fused features and each stage's output by name. The stage
        dict holds references only; the aggregated row blocks are constant
        views of the one aggregate, not tape nodes."""
        h0 = self.fine_input(enc)
        h_fine = self.fine_encode(h0, enc)
        stages = {"fine_input": h0, "fine_encoded": h_fine}
        if not self.config.use_cross_grained:
            stages["fused"] = h_fine
            return h_fine, stages
        agg = self.aggregate(h_fine, enc)
        n_seg = enc.graph.n_coarse_text
        stages["aggregated_text"] = Tensor(agg.data[:n_seg])
        stages["aggregated_visual"] = Tensor(agg.data[n_seg:])
        stages["coarse_input"] = h_c0 = self.coarse_input(agg, enc)
        stages["coarse_encoded"] = h_coarse = self.coarse_encode(h_c0)
        stages["fused"] = fused = self.fuse(h_fine, h_coarse, enc)
        return fused, stages

    # -- heads and losses ---------------------------------------------------

    def logits_encoded(self, enc: EncodedDoc) -> Tensor:
        fused, _ = self.forward_encoded(enc)
        return labeling_head(fused, self.head_w, self.head_b, enc.n_text)

    def loss_encoded(self, enc: EncodedDoc, weight: float = 1.0) -> Tensor:
        """The mean cross entropy of the text rows' tag logits, times
        ``weight``; the head and the loss are one node."""
        if enc.targets is None:
            raise ValueError("document has no labels")
        fused, _ = self.forward_encoded(enc)
        return linear_cross_entropy(fused, self.head_w, self.head_b, enc.targets, weight)

    def predict_word_tags(self, enc: EncodedDoc) -> list[str]:
        """Argmax tag per word, read from its first sub-token."""
        with no_grad():
            logits = self.logits_encoded(enc).data
        ids = logits[np.flatnonzero(enc.tokens.first_subtoken)].argmax(axis=1)
        return [self.tag_set.id_tag(i) for i in ids.tolist()]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        config = {
            "model": self.config.to_dict(),
            "vocab": self.vocab.tokens,
            "label_types": list(self.tag_set.types),
            "categories": list(self.inventory.categories),
        }
        checkpoint.save_checkpoint(path, {name: t.data for name, t in self.params.items()}, config)


def load_model(path: str) -> Model:
    tensors, config = checkpoint.load_checkpoint(path)
    missing = [key for key in ("model", "vocab", "label_types", "categories") if key not in config]
    if missing:
        raise CheckpointError(f"{path}: checkpoint config is missing {missing}")
    try:
        model_config = ModelConfig.from_dict(config["model"])
        vocab = Vocab(config["vocab"])
        word = tensors.get("emb.word")
        if word is not None and word.shape == (model_config.vocab_size, model_config.d):
            # Older checkpoints carry vocab_size rows; no token id reaches past len(vocab).
            tensors["emb.word"] = word[: len(vocab)].copy()
        categories = DEFAULT_CATEGORIES[: model_config.commonsense_k]
        if _as_tuple(config, "categories") != categories:
            raise ValueError(f"categories must be {list(categories)}, got {config['categories']!r}")
        return Model(model_config, vocab, BioTagSet(_as_tuple(config, "label_types")), tensors)
    except CheckpointError:
        raise
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid checkpoint config: {exc}") from None


def _as_tuple(config: dict, key: str) -> tuple:
    """The checkpoint config's ``key`` list as a tuple. A bare string is no
    list: ``tuple`` would read it as one entry per character."""
    value = config[key]
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return tuple(value)


def stage_summary(stages: dict[str, Tensor]) -> dict:
    """Shapes and norms per stage, for the intermediates dump."""
    return {
        name: {"shape": list(t.shape), "norm": float(np.linalg.norm(t.data))}
        for name, t in stages.items()
    }


def finite_difference_check(
    model: Model,
    page: Page,
    samples_per_group: int = 8,
    h: float = 1e-5,
) -> tuple[float, dict[str, float]]:
    """Compare reverse-mode gradients with central differences.

    Every parameter group is probed at its samples_per_group
    largest-|gradient| coordinates: those dominate the update and are the
    ones central differences can measure above float64 cancellation
    noise. Returns the max relative error overall and per group.
    """
    enc = model.encode_page(page)
    model.zero_grad()
    loss = model.loss_encoded(enc)
    loss.backward()
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in model.params.items()}
    model.zero_grad()

    per_group: dict[str, float] = {}
    for name, p in model.params.items():
        magnitudes = np.abs(grads[name]).reshape(-1)
        k = min(samples_per_group, magnitudes.size)
        flat_coords = [int(c) for c in np.argsort(-magnitudes, kind="stable")[:k]]
        # Coordinates with near-zero gradients need a wider step: at h=1e-5
        # the f(x+h)-f(x-h) cancellation noise (~eps*|f|/h) swamps them.
        buckets: dict[float, list] = {}
        for c in flat_coords:
            step = h if magnitudes[c] >= 1e-6 else max(h, 1e-3)
            buckets.setdefault(step, []).append(np.unravel_index(c, p.data.shape))
        err = 0.0
        for step, coords in buckets.items():
            err = max(err, grad_check(lambda _: model.loss_encoded(enc), p, h=step, coords=coords))
        per_group[name] = err
    return max(per_group.values()), per_group



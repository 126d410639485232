"""The four-stage multi-grained document model.

Stages: spatial fine-grained encoding over words and patches, aggregation
of fine features into segment and region nodes along the graph's parent
edges, knowledge-enhanced coarse encoding with canonical attention, and
fusion of each coarse feature back onto its fine children. Coordinates
reach the model only through the shared layout tables.

``Model.encode_page`` computes everything constant per page (graph,
normalized coordinates, bucket indices, aggregation matrix, targets) with
whole-array numpy; each array equals its per-element definition bit for
bit.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checkpoint
from .attention import (
    AttentionConfig,
    LayerParams,
    RelativeBiasTables,
    SpatialIndices,
    spatial_bias,
    spatial_indices,
    transformer_layer,
)
from .checkpoint import CheckpointError
from .clustering import ClusterParams
from .commonsense import DEFAULT_CATEGORIES, CommonSenseInventory, make_inventory
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
    add,
    add_lookups,
    concat_rows,
    cross_entropy,
    gather,
    grad_check,
    linear,
    matmul,
    no_grad,
    slice_rows,
)
from .vocab import TokenSeq, Vocab, tokenize


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}


def check_field_types(config) -> None:
    """ValueError unless every int, float, str or bool field (optionally
    ``| None``) of a config dataclass holds that type; a bool is no number."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        expected = _FIELD_TYPES.get(kind)
        if expected is None or (optional and value is None):
            continue
        if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")


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
# FFN 4d wide, d-wide knowledge vectors, no masking, summed children).
_RETIRED_FIELDS = {
    "activation": "gelu",
    "dropout": 0.0,
    "ffn_width": None,
    "commonsense_dim": None,
    "aggregation": "sum",
}


@dataclass
class ModelConfig:
    """Every architectural hyperparameter; JSON configs mirror these names."""

    d: int = 64
    heads: int = 4
    fine_layers: int = 2
    coarse_layers: int = 1
    vocab_size: int = 2048
    max_len: int = 512
    grid: tuple[int, int] = (7, 7)
    commonsense_k: int = 8
    radius: float = 30.0
    min_pts: int = 1
    rel_buckets: int = 32
    rel_max_distance: int = 1000
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
        if min(self.heads, self.vocab_size, self.max_len) < 1:
            raise ValueError("heads, vocab_size and max_len must be positive")
        if self.d % self.heads != 0:
            raise ValueError(f"width {self.d} not divisible by {self.heads} heads")
        if self.fine_layers < 1:
            raise ValueError("at least one fine layer is required")
        if not 0 <= self.coarse_layers <= 5:
            raise ValueError(f"coarse_layers must be in [0, 5], got {self.coarse_layers}")
        if not 0 <= self.commonsense_k <= len(DEFAULT_CATEGORIES):
            raise ValueError(f"commonsense_k must be in [0, {len(DEFAULT_CATEGORIES)}], got {self.commonsense_k}")
        if self.rel_buckets % 2 != 0 or self.rel_buckets < 4:
            raise ValueError(f"rel_buckets must be even and >= 4, got {self.rel_buckets}")
        if self.rel_max_distance <= self.rel_buckets // 4:
            raise ValueError(f"rel_max_distance must exceed {self.rel_buckets // 4}, got {self.rel_max_distance}")
        if not math.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")
        if self.min_pts < 0:
            raise ValueError(f"min_pts must be >= 0, got {self.min_pts}")

    @property
    def coord_width(self) -> int:
        return self.d // 6

    @property
    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(self.heads, self.rel_buckets, self.rel_max_distance)

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
    Each granularity is one stacked sequence, text rows first."""

    page: Page
    graph: DocumentGraph
    tokens: TokenSeq
    patch_raw: np.ndarray  # (WH, PATCH_RAW_DIM)
    fine_boxes: np.ndarray  # (L + WH, 4) normalized coordinates
    positions: np.ndarray  # (L + WH,) 1D positions, restarting at 0 for patches
    fine_indices: SpatialIndices
    agg: np.ndarray  # (Z + P, L + WH) one-hot columns of parent_row
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
        inventory: CommonSenseInventory | None = None,
    ):
        if len(vocab) > config.vocab_size:
            raise ValueError(f"vocabulary size {len(vocab)} exceeds configured {config.vocab_size}")
        self.config = config
        self.vocab = vocab
        self.tag_set = tag_set if tag_set is not None else BioTagSet()
        self.inventory = inventory if inventory is not None else make_inventory(config.commonsense_k)
        if self.inventory.size != config.commonsense_k:
            raise ValueError(f"inventory size {self.inventory.size} != configured k {config.commonsense_k}")
        self.params: dict[str, Tensor] = {}
        self._build_params()

    # -- parameter construction -------------------------------------------

    def _param(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(value, requires_grad=True)
        self.params[name] = t
        return t

    def _rng_for(self, name: str) -> np.random.Generator:
        # One stream per parameter name: init values do not depend on how
        # many other parameters the architecture happens to have.
        digest = zlib.crc32(name.encode("utf-8"))
        return np.random.default_rng([self.config.seed, digest])

    def _weight(self, name: str, shape) -> Tensor:
        return self._param(name, trunc_normal(self._rng_for(name), shape))

    def _zeros(self, name: str, shape) -> Tensor:
        return self._param(name, np.zeros(shape))

    def _ones(self, name: str, shape) -> Tensor:
        return self._param(name, np.ones(shape))

    def _layer(self, prefix: str) -> LayerParams:
        d, ffn = self.config.d, 4 * self.config.d
        return LayerParams(
            wq=self._weight(f"{prefix}.wq", (d, d)),
            bq=self._zeros(f"{prefix}.bq", (d,)),
            wk=self._weight(f"{prefix}.wk", (d, d)),
            bk=self._zeros(f"{prefix}.bk", (d,)),
            wv=self._weight(f"{prefix}.wv", (d, d)),
            bv=self._zeros(f"{prefix}.bv", (d,)),
            wo=self._weight(f"{prefix}.wo", (d, d)),
            bo=self._zeros(f"{prefix}.bo", (d,)),
            ln1_gain=self._ones(f"{prefix}.ln1_gain", (d,)),
            ln1_bias=self._zeros(f"{prefix}.ln1_bias", (d,)),
            ln2_gain=self._ones(f"{prefix}.ln2_gain", (d,)),
            ln2_bias=self._zeros(f"{prefix}.ln2_bias", (d,)),
            ffn_w1=self._weight(f"{prefix}.ffn_w1", (d, ffn)),
            ffn_b1=self._zeros(f"{prefix}.ffn_b1", (ffn,)),
            ffn_w2=self._weight(f"{prefix}.ffn_w2", (ffn, d)),
            ffn_b2=self._zeros(f"{prefix}.ffn_b2", (d,)),
        )

    def _build_params(self) -> None:
        cfg = self.config
        self.tables = EmbeddingTables(
            word=self._weight("emb.word", (cfg.vocab_size, cfg.d)),
            token_type=self._weight("emb.token_type", (2, cfg.d)),
            position=self._weight("emb.position", (cfg.max_len, cfg.d)),
            coord_x=self._weight("emb.coord_x", (COORD_RANGE, cfg.coord_width)),
            coord_y=self._weight("emb.coord_y", (COORD_RANGE, cfg.coord_width)),
            patch_proj_w=self._weight("emb.patch_w", (PATCH_RAW_DIM, cfg.d)),
            patch_proj_b=self._zeros("emb.patch_b", (cfg.d,)),
        )
        self.bias_tables = RelativeBiasTables(
            rel_1d=self._zeros("bias.rel_1d", (cfg.rel_buckets, cfg.heads)),
            rel_x=self._zeros("bias.rel_x", (cfg.rel_buckets, cfg.heads)),
            rel_y=self._zeros("bias.rel_y", (cfg.rel_buckets, cfg.heads)),
        )
        self.fine_stack = [self._layer(f"fine.{i}") for i in range(cfg.fine_layers)]
        self.coarse_stack = [self._layer(f"coarse.{i}") for i in range(cfg.coarse_layers)]
        if cfg.commonsense_k > 0:
            self.cs_emb = self._weight("cs.emb", (cfg.commonsense_k, cfg.d))
            # Near-identity start so the knowledge term begins as a gentle additive hint.
            self.cs_proj = self._param("cs.proj", np.eye(cfg.d) + trunc_normal(self._rng_for("cs.proj"), (cfg.d, cfg.d)))
        else:
            self.cs_emb = None
            self.cs_proj = None
        self.head_w = self._weight("head.w", (cfg.d, self.tag_set.n_tags))
        self.head_b = self._zeros("head.b", (self.tag_set.n_tags,))

    # -- page encoding (constant per document) ----------------------------

    def cluster_params(self) -> ClusterParams:
        return ClusterParams(radius=self.config.radius, min_pts=self.config.min_pts)

    def encode_page(self, page: Page) -> EncodedDoc:
        cfg = self.config
        graph = build_graph(page, self.cluster_params(), cfg.grid)
        tokens = tokenize(page.words, self.vocab, cfg.max_len)
        patch_raw = patch_raw_features(page, cfg.grid[0], cfg.grid[1])
        n_text, n_visual = len(tokens), patch_raw.shape[0]
        if n_text + n_visual > cfg.max_len:
            raise ValueError(f"{n_text} text + {n_visual} visual tokens exceed max_len {cfg.max_len}")
        fine_boxes = normalized_coords([*tokens.bboxes, *graph.patch_bboxes], page)
        positions = np.concatenate([np.arange(n_text), np.arange(n_visual)]).astype(np.int64)
        fine_idx = spatial_indices(fine_boxes, positions, cfg.attention_config)

        # Row of each fine element's parent in the stacked [segments; regions]
        # coarse sequence; the aggregation matrix is its one-hot columns.
        n_seg, n_reg = graph.n_coarse_text, graph.n_coarse_visual
        text_parent = np.asarray(graph.text_parent, dtype=np.int64)
        parent_row = np.concatenate([
            text_parent[np.asarray(tokens.word_index, dtype=np.int64)],
            n_seg + np.asarray(graph.visual_parent, dtype=np.int64),
        ])
        agg = np.zeros((n_seg + n_reg, n_text + n_visual))
        agg[parent_row, np.arange(n_text + n_visual)] = 1.0

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
            fine_indices=fine_idx,
            agg=agg,
            cs_bits=cs_bits,
            coarse_boxes=coarse_boxes,
            parent_row=parent_row,
            targets=targets,
        )

    # -- forward stages ----------------------------------------------------

    def fine_input(self, enc: EncodedDoc) -> Tensor:
        """Word rows then patch rows, plus token-type, position and layout rows."""
        t = self.tables
        features = linear(Tensor(enc.patch_raw), t.patch_proj_w, t.patch_proj_b)
        token_type = np.repeat([TEXT_TYPE, VISUAL_TYPE], [enc.n_text, enc.n_visual])
        return add_lookups(concat_rows([gather(t.word, enc.tokens.ids), features]), [
            (t.token_type, token_type, 0),
            (t.position, enc.positions, 0),
            *layout_lookups(enc.fine_boxes, t),
        ])

    def fine_encode(self, h: Tensor, enc: EncodedDoc) -> Tensor:
        # One bias for every fine layer: the relative tables are shared.
        bias = spatial_bias(self.bias_tables, enc.fine_indices)
        for layer in self.fine_stack:
            h = transformer_layer(h, layer, self.config.heads, bias)
        return h

    def aggregate(self, h_fine: Tensor, enc: EncodedDoc) -> Tensor:
        """The stacked [segments; regions] sums of fine children."""
        return matmul(Tensor(enc.agg), h_fine)

    def commonsense_embed(self, cs_bits: np.ndarray) -> Tensor:
        if self.cs_emb is None:
            raise ValueError("common-sense subsystem is disabled (k = 0)")
        return matmul(matmul(Tensor(cs_bits), self.cs_emb), self.cs_proj)

    def coarse_input(self, agg: Tensor, enc: EncodedDoc) -> Tensor:
        if self.config.commonsense_k > 0:
            agg = add(agg, self.commonsense_embed(enc.cs_bits))
        return add_lookups(agg, layout_lookups(enc.coarse_boxes, self.tables))

    def coarse_encode(self, h: Tensor) -> Tensor:
        for layer in self.coarse_stack:
            h = transformer_layer(h, layer, self.config.heads)
        return h

    def fuse(self, h_fine: Tensor, h_coarse: Tensor, enc: EncodedDoc) -> Tensor:
        return add_lookups(h_fine, [(h_coarse, enc.parent_row, 0)])

    def forward_encoded(self, enc: EncodedDoc, collect: bool = False) -> tuple[Tensor, dict]:
        stages: dict[str, Tensor] = {}
        h0 = self.fine_input(enc)
        h_fine = self.fine_encode(h0, enc)
        if collect:
            stages["fine_input"] = h0
            stages["fine_encoded"] = h_fine
        if not self.config.use_cross_grained:
            if collect:
                stages["fused"] = h_fine
            return h_fine, stages
        agg = self.aggregate(h_fine, enc)
        h_c0 = self.coarse_input(agg, enc)
        h_coarse = self.coarse_encode(h_c0)
        fused = self.fuse(h_fine, h_coarse, enc)
        if collect:
            # Row blocks of the one aggregate, as constants: no tape node.
            n_seg = enc.graph.n_coarse_text
            stages["aggregated_text"] = Tensor(agg.data[:n_seg])
            stages["aggregated_visual"] = Tensor(agg.data[n_seg:])
            stages["coarse_input"] = h_c0
            stages["coarse_encoded"] = h_coarse
            stages["fused"] = fused
        return fused, stages

    def forward(self, page: Page, collect: bool = False) -> tuple[Tensor, dict]:
        """Full pipeline from a parsed page; returns fused features and,
        when requested, every intermediate stage tensor."""
        return self.forward_encoded(self.encode_page(page), collect)

    # -- heads and losses ---------------------------------------------------

    def logits_encoded(self, enc: EncodedDoc) -> Tensor:
        fused, _ = self.forward_encoded(enc)
        return labeling_head(slice_rows(fused, 0, enc.n_text), self.head_w, self.head_b)

    def loss_encoded(self, enc: EncodedDoc) -> Tensor:
        if enc.targets is None:
            raise ValueError("document has no labels")
        return cross_entropy(self.logits_encoded(enc), enc.targets)

    def predict_word_tags(self, enc: EncodedDoc) -> list[str]:
        """Argmax tag per word, read from its first sub-token."""
        with no_grad():
            logits = self.logits_encoded(enc).data
        tags = []
        for t in range(enc.n_text):
            if enc.tokens.first_subtoken[t]:
                tags.append(self.tag_set.id_tag(int(logits[t].argmax())))
        return tags

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
        model = Model(
            ModelConfig.from_dict(config["model"]),
            Vocab(config["vocab"]),
            BioTagSet(tuple(config["label_types"])),
            CommonSenseInventory(tuple(config["categories"])),
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid checkpoint config: {exc}") from None
    for name, param in model.params.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint missing tensor '{name}'")
        if tensors[name].shape != param.data.shape:
            raise CheckpointError(
                f"tensor '{name}' has shape {tensors[name].shape}, expected {param.data.shape}"
            )
        param.data = tensors[name]
    extra = set(tensors) - set(model.params)
    if extra:
        raise CheckpointError(f"checkpoint has unexpected tensors: {sorted(extra)}")
    return model


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



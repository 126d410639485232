"""docgrain: multi-grained multimodal document understanding.

Parses OCR pages into a multi-grained document graph (words, patches,
segments, clustered salient regions), encodes it with spatial-aware and
canonical Transformer stacks on a minimal float64 autodiff core, and
trains a BIO sequence-labeling head on synthetic form documents.
"""

__version__ = "0.1.0"

from .clustering import ClusterParams, SalientRegion, dbscan, detect_salient_regions
from .commonsense import CommonSenseInventory
from .document import (
    BBox,
    DocumentParseError,
    Page,
    Segment,
    Word,
    boundary_distance,
    iou,
    normalize_box,
    parse_document,
    serialize_document,
    union_box,
)
from .graph import DocumentGraph, assign_patches, build_graph, patch_boxes
from .labeling import BioTagSet, Entity, anls, bio_decode, entity_f1, levenshtein
from .model import Model, ModelConfig, finite_difference_check, load_model
from .synth import SynthParams, generate_page, iter_corpus, load_corpus, save_corpus, synth_generate
from .tensor import Tensor, grad_check, no_grad
from .training import TrainConfig, ablate, evaluate_model, lr_schedule, train
from .vocab import Vocab, build_vocab, tokenize

__all__ = [
    "BBox",
    "BioTagSet",
    "ClusterParams",
    "CommonSenseInventory",
    "DocumentGraph",
    "DocumentParseError",
    "Entity",
    "Model",
    "ModelConfig",
    "Page",
    "SalientRegion",
    "Segment",
    "SynthParams",
    "Tensor",
    "TrainConfig",
    "Vocab",
    "Word",
    "ablate",
    "anls",
    "assign_patches",
    "bio_decode",
    "boundary_distance",
    "build_graph",
    "build_vocab",
    "dbscan",
    "detect_salient_regions",
    "entity_f1",
    "evaluate_model",
    "finite_difference_check",
    "generate_page",
    "grad_check",
    "iou",
    "iter_corpus",
    "levenshtein",
    "load_corpus",
    "load_model",
    "lr_schedule",
    "no_grad",
    "normalize_box",
    "parse_document",
    "patch_boxes",
    "save_corpus",
    "serialize_document",
    "synth_generate",
    "tokenize",
    "train",
    "union_box",
]

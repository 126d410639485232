"""Sequence labeling: BIO tags, entity-level F1, ANLS, and the head.

Decoding is lenient: an I- tag without a matching open entity starts one,
which is how common evaluation tooling behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .tensor import Tensor, linear

DEFAULT_ENTITY_TYPES = ("HEADER", "QUESTION", "ANSWER")

OUTSIDE = "O"


@dataclass(frozen=True)
class BioTagSet:
    """Tag universe derived from entity types: O plus B-/I- per type."""

    types: tuple[str, ...] = DEFAULT_ENTITY_TYPES

    @cached_property
    def tags(self) -> tuple[str, ...]:
        return (OUTSIDE, *(f"{marker}-{t}" for t in self.types for marker in ("B", "I")))

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {tag: i for i, tag in enumerate(self.tags)}

    @property
    def n_tags(self) -> int:
        return 2 * len(self.types) + 1

    def tag_id(self, tag: str) -> int:
        try:
            return self._ids[tag]
        except KeyError:
            raise ValueError(f"unknown tag '{tag}' for types {self.types}") from None

    def id_tag(self, idx: int) -> str:
        return self.tags[idx]


@dataclass(frozen=True)
class Entity:
    """Typed token span, end exclusive."""

    type: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad entity span [{self.start}, {self.end})")


def _split_tag(tag: str) -> tuple[str, str]:
    if tag == OUTSIDE:
        return OUTSIDE, ""
    if len(tag) > 2 and tag[1] == "-" and tag[0] in ("B", "I"):
        return tag[0], tag[2:]
    raise ValueError(f"unknown tag '{tag}'")


def bio_decode(tags: list[str]) -> list[Entity]:
    """Maximal B-/I- runs of one type become entities."""
    entities: list[Entity] = []
    open_type: str | None = None
    start = 0
    for i, tag in enumerate(tags):
        marker, etype = _split_tag(tag)
        if marker == "I" and open_type == etype:
            continue
        if open_type is not None:
            entities.append(Entity(open_type, start, i))
            open_type = None
        if marker != OUTSIDE:
            open_type, start = etype, i
    if open_type is not None:
        entities.append(Entity(open_type, start, len(tags)))
    return entities


def bio_encode(entities: list[Entity], length: int) -> list[str]:
    """Inverse of bio_decode for non-overlapping entities."""
    tags = [OUTSIDE] * length
    for e in sorted(entities, key=lambda x: x.start):
        if e.end > length:
            raise ValueError(f"entity {e} exceeds sequence length {length}")
        for i in range(e.start, e.end):
            if tags[i] != OUTSIDE:
                raise ValueError(f"overlapping entities at position {i}")
        tags[e.start] = f"B-{e.type}"
        for i in range(e.start + 1, e.end):
            tags[i] = f"I-{e.type}"
    return tags


def entity_f1(pred: list[Entity], gold: list[Entity]) -> tuple[float, float, float]:
    """Exact-match precision, recall, F1 on (type, start, end) triples.

    Both sides empty counts as a perfect score.
    """
    acc = F1Accumulator()
    acc.add(pred, gold)
    return acc.scores()


class F1Accumulator:
    """Micro-averaged exact-match counts across documents."""

    def __init__(self) -> None:
        self.n_pred = 0
        self.n_gold = 0
        self.n_match = 0

    def add(self, pred: list[Entity], gold: list[Entity]) -> None:
        pred_set, gold_set = set(pred), set(gold)
        self.n_pred += len(pred_set)
        self.n_gold += len(gold_set)
        self.n_match += len(pred_set & gold_set)

    def scores(self) -> tuple[float, float, float]:
        precision = self.n_match / self.n_pred if self.n_pred else (1.0 if not self.n_gold else 0.0)
        recall = self.n_match / self.n_gold if self.n_gold else (1.0 if not self.n_pred else 0.0)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return precision, recall, f1


def levenshtein(a: str, b: str) -> int:
    """Edit distance by the usual two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        current = [i + 1]
        for j, cb in enumerate(b):
            current.append(min(previous[j + 1] + 1, current[j] + 1, previous[j] + (ca != cb)))
        previous = current
    return previous[-1]


ANLS_THRESHOLD = 0.5


def anls(pred: str, golds: list[str]) -> float:
    """Best thresholded normalized Levenshtein similarity over the golds.

    Similarities below 0.5 score zero; comparison is case-insensitive.
    """
    if not golds:
        raise ValueError("anls requires at least one gold answer")
    p = pred.lower()
    best = 0.0
    for gold in golds:
        g = gold.lower()
        longest = max(len(p), len(g))
        sim = 1.0 if longest == 0 else 1.0 - levenshtein(p, g) / longest
        if sim >= ANLS_THRESHOLD:
            best = max(best, sim)
    return best


def labeling_head(h_text: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Single affine map from fused text features to tag logits."""
    return linear(h_text, weight, bias)

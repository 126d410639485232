"""Corpus-built vocabulary and the word-piece tokenizer.

Pieces are lowercased letter runs, digit runs, and single punctuation
characters. Each sub-token inherits the bounding box and segment of the
word it came from; the vocabulary is frequency-ranked over a corpus.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .document import BBox, Page, Word

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
SPECIALS = (PAD_TOKEN, UNK_TOKEN)

_PIECE_RE = re.compile(r"[^\W\d_]+|\d+|\S", re.UNICODE)


def word_pieces(text: str) -> list[str]:
    """Split one word into lowercased pieces."""
    return [p.lower() for p in _PIECE_RE.findall(text)]


class Vocab:
    """Rank-ordered token list with id lookup; unknown pieces map to UNK."""

    def __init__(self, tokens: list[str]):
        if list(tokens[: len(SPECIALS)]) != list(SPECIALS):
            tokens = list(SPECIALS) + [t for t in tokens if t not in SPECIALS]
        self.tokens = list(tokens)
        self.ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.ids) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def unk_id(self) -> int:
        return self.ids[UNK_TOKEN]

    def token_to_id(self, token: str) -> int:
        return self.ids.get(token, self.unk_id)

    def id_to_token(self, idx: int) -> str:
        return self.tokens[idx]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh if line.rstrip("\n")])


def build_vocab(pages: list[Page], size: int = 8192) -> Vocab:
    """Frequency-ranked vocabulary over every word piece in the corpus.

    Ties break alphabetically so the result is independent of page order.
    """
    counts: Counter[str] = Counter()
    for page in pages:
        for word in page.words:
            counts.update(word_pieces(word.text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    budget = max(size - len(SPECIALS), 0)
    return Vocab(list(SPECIALS) + [tok for tok, _ in ranked[:budget]])


@dataclass
class TokenSeq:
    """Tokenized page text: ids plus per-token provenance."""

    ids: list[int]
    bboxes: list[BBox]
    word_index: list[int]
    first_subtoken: list[bool]

    def __len__(self) -> int:
        return len(self.ids)


def tokenize(words: list[Word], vocab: Vocab, max_len: int) -> TokenSeq:
    """Tokenize words in reading order; fails rather than truncating."""
    ids: list[int] = []
    bboxes: list[BBox] = []
    word_index: list[int] = []
    first: list[bool] = []
    for wi, word in enumerate(words):
        for pi, piece in enumerate(word_pieces(word.text)):
            ids.append(vocab.token_to_id(piece))
            bboxes.append(word.bbox)
            word_index.append(wi)
            first.append(pi == 0)
    if len(ids) > max_len:
        raise ValueError(
            f"token sequence length {len(ids)} exceeds max_len {max_len}; truncate the document before tokenizing"
        )
    return TokenSeq(ids=ids, bboxes=bboxes, word_index=word_index, first_subtoken=first)

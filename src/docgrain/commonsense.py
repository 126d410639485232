"""Rule and gazetteer detectors for generic entity knowledge.

Each category fires on a text span; a segment gets a multi-hot vector over
the configured inventory. Detectors are deterministic regex/gazetteer
rules so the whole pipeline stays self-contained. The CARDINAL category is
residual: it fires only on digit runs not claimed by another category.

Every DATE, TIME, MONEY and PERCENT pattern needs a ``_DIGIT`` match, and
so does CARDINAL, so a text without one skips those scans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_MONTHS = (
    "january february march april may june july august september october november december "
    "jan feb mar apr jun jul aug sep sept oct nov dec"
).split()

_HONORIFICS = ("mr", "mrs", "ms", "dr", "prof")

_FIRST_NAMES = {
    "james", "mary", "john", "patricia", "robert", "jennifer", "michael", "linda",
    "william", "elizabeth", "david", "barbara", "richard", "susan", "joseph", "jessica",
    "thomas", "sarah", "charles", "karen", "nancy", "daniel", "margaret", "matthew",
    "emily", "anthony", "donna", "mark", "ruth", "paul", "laura", "steven", "grace",
}

_ORG_SUFFIXES = ("inc", "corp", "llc", "ltd", "co", "company", "corporation", "university", "institute", "laboratories", "association")

_GPE_NAMES = {
    "washington", "york", "boston", "chicago", "atlanta", "dallas", "denver", "seattle",
    "richmond", "louisville", "princeton", "virginia", "california", "texas", "ohio",
    "georgia", "kentucky", "canada", "france", "germany", "japan", "china", "england",
    "usa", "america",
}

_MONTH_RE = "|".join(_MONTHS)

_PATTERNS: dict[str, list[re.Pattern]] = {
    "DATE": [
        re.compile(rf"\b(?:{_MONTH_RE})\.?\s+\d{{1,2}}(?:\s*,\s*\d{{2,4}})?\b", re.IGNORECASE),
        re.compile(rf"\b\d{{1,2}}\s+(?:{_MONTH_RE})\.?(?:\s*,?\s*\d{{2,4}})?\b", re.IGNORECASE),
        re.compile(r"\b\d{1,2}[/-]\d{1,2}[/-]\d{2,4}\b"),
        re.compile(r"\b\d{4}-\d{2}-\d{2}\b"),
        re.compile(rf"\b(?:{_MONTH_RE})\.?\s+\d{{4}}\b", re.IGNORECASE),
    ],
    "TIME": [
        re.compile(r"\b\d{1,2}:\d{2}(?::\d{2})?\s*(?:am|pm|a\.m\.|p\.m\.)?\b", re.IGNORECASE),
        re.compile(r"\b\d{1,2}\s*(?:am|pm|a\.m\.|p\.m\.)\b", re.IGNORECASE),
    ],
    "MONEY": [
        re.compile(r"[$]\s*\d[\d,]*(?:\.\d+)?"),
        re.compile(r"\b\d[\d,]*(?:\.\d+)?\s*(?:dollars|usd|cents)\b", re.IGNORECASE),
    ],
    "PERCENT": [
        re.compile(r"\b\d[\d,]*(?:\.\d+)?\s*(?:%|percent)", re.IGNORECASE),
    ],
}

_DIGIT = re.compile(r"\d")
_DIGIT_RUN = re.compile(r"\d+")
_CAPITALIZED = re.compile(r"\b[A-Z][a-z]+\b")
_WORD = re.compile(r"[A-Za-z]+")

DEFAULT_CATEGORIES = ("PERSON", "ORG", "GPE", "DATE", "TIME", "MONEY", "PERCENT", "CARDINAL")

# Pattern categories that cannot fire on a text without a ``_DIGIT`` match.
_DIGIT_CATEGORIES = frozenset(("DATE", "TIME", "MONEY", "PERCENT"))


def _pattern_spans(text: str, category: str) -> list[tuple[int, int]]:
    return [m.span() for pat in _PATTERNS[category] for m in pat.finditer(text)]


def _person_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for m in re.finditer(r"\b([A-Za-z]+)\.?\s+([A-Z][a-z]+)", text):
        if m.group(1).lower() in _HONORIFICS:
            spans.append(m.span())
    for m in _CAPITALIZED.finditer(text):
        if m.group(0).lower() in _FIRST_NAMES:
            spans.append(m.span())
    return spans


def _org_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for m in _WORD.finditer(text):
        if m.group(0).lower().rstrip(".") in _ORG_SUFFIXES and m.group(0)[0].isupper():
            spans.append(m.span())
    return spans


def _gpe_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in _WORD.finditer(text) if m.group(0).lower() in _GPE_NAMES]


_SPAN_DETECTORS = {
    "PERSON": _person_spans,
    "ORG": _org_spans,
    "GPE": _gpe_spans,
    "DATE": lambda t: _pattern_spans(t, "DATE"),
    "TIME": lambda t: _pattern_spans(t, "TIME"),
    "MONEY": lambda t: _pattern_spans(t, "MONEY"),
    "PERCENT": lambda t: _pattern_spans(t, "PERCENT"),
}


@dataclass
class CommonSenseInventory:
    """Ordered detector inventory; bit k of the output belongs to
    ``categories[k]``."""

    categories: tuple[str, ...] = DEFAULT_CATEGORIES

    def __post_init__(self) -> None:
        for cat in self.categories:
            if cat != "CARDINAL" and cat not in _SPAN_DETECTORS:
                raise ValueError(f"no detector available for category '{cat}'")

    @property
    def size(self) -> int:
        return len(self.categories)

    def detect(self, text: str) -> np.ndarray:
        """Multi-hot vector: bit k set iff detector k fires anywhere."""
        bits = np.zeros(self.size)
        has_digit = _DIGIT.search(text) is not None
        claimed: list[tuple[int, int]] = []
        cardinal_slot = None
        for k, cat in enumerate(self.categories):
            if cat == "CARDINAL":
                cardinal_slot = k
                continue
            if not has_digit and cat in _DIGIT_CATEGORIES:
                continue
            spans = _SPAN_DETECTORS[cat](text)
            if spans:
                bits[k] = 1.0
                claimed.extend(spans)
        if cardinal_slot is not None and has_digit:
            for m in _DIGIT_RUN.finditer(text):
                s, e = m.span()
                if not any(cs <= s and e <= ce for cs, ce in claimed):
                    bits[cardinal_slot] = 1.0
                    break
        return bits

    def detect_all(self, texts: list[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.size))
        return np.stack([self.detect(t) for t in texts])


def make_inventory(k: int) -> CommonSenseInventory:
    """The first k default detectors; k = 0 disables the subsystem."""
    if not 0 <= k <= len(DEFAULT_CATEGORIES):
        raise ValueError(f"inventory has {len(DEFAULT_CATEGORIES)} categories but k={k}")
    return CommonSenseInventory(categories=DEFAULT_CATEGORIES[:k])

"""Rule and gazetteer detectors for generic entity knowledge.

An inventory of size k tags a segment with a k-bit multi-hot vector over
the first k of ``DEFAULT_CATEGORIES``, one deterministic regex/gazetteer
rule per category, so the whole pipeline stays self-contained. PERSON,
ORG and GPE only answer yes or no; ORG and GPE share one ``_WORD`` scan.
The DATE, TIME, MONEY and PERCENT matches are kept as spans for CARDINAL,
which is residual: it fires only on a digit run that none of them covers.
PERSON, ORG and GPE matches hold only letters, dots and spaces, so they
never cover a digit run.

Every DATE, TIME, MONEY and PERCENT pattern needs a ``_DIGIT`` match, and
so does CARDINAL, so a text without one skips those scans.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from itertools import islice

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
_HONORIFIC_NAME = re.compile(r"\b([A-Za-z]+)\.?\s+([A-Z][a-z]+)")

DEFAULT_CATEGORIES = ("PERSON", "ORG", "GPE", "DATE", "TIME", "MONEY", "PERCENT", "CARDINAL")


def _is_person(text: str) -> bool:
    if any(m.group(1).lower() in _HONORIFICS for m in _HONORIFIC_NAME.finditer(text)):
        return True
    return any(m.group(0).lower() in _FIRST_NAMES for m in _CAPITALIZED.finditer(text))


def _flags(text: str, k: int) -> list[bool]:
    """The flags of the first ``k`` ``DEFAULT_CATEGORIES``, in that order;
    no rule past the k-th runs."""
    flags = [_is_person(text)]
    if k > 1:
        words = _WORD.findall(text)
        flags.append(any(w[0].isupper() and w.lower() in _ORG_SUFFIXES for w in words))
        if k > 2:
            flags.append(any(w.lower() in _GPE_NAMES for w in words))
    if k <= 3:
        return flags
    if _DIGIT.search(text) is None:
        return flags + [False] * (k - 3)
    claimed: list[tuple[int, int]] = []
    for patterns in islice(_PATTERNS.values(), k - 3):
        spans = [m.span() for pat in patterns for m in pat.finditer(text)]
        flags.append(bool(spans))
        claimed.extend(spans)
    if k == len(DEFAULT_CATEGORIES):
        runs = (m.span() for m in _DIGIT_RUN.finditer(text))
        flags.append(any(not any(cs <= s and e <= ce for cs, ce in claimed) for s, e in runs))
    return flags


@dataclass
class CommonSenseInventory:
    """The first ``size`` default categories; bit k of a vector belongs to
    ``categories[k]``, and ``size`` 0 disables the subsystem."""

    size: int = len(DEFAULT_CATEGORIES)

    def __post_init__(self) -> None:
        k = self.size
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 0 <= k <= len(DEFAULT_CATEGORIES):
            raise ValueError(f"inventory size must be an integer in [0, {len(DEFAULT_CATEGORIES)}], got {k!r}")

    @property
    def categories(self) -> tuple[str, ...]:
        return DEFAULT_CATEGORIES[: self.size]

    def detect_all(self, texts: list[str]) -> np.ndarray:
        """One multi-hot row per text: bit k set iff category k fires anywhere in it."""
        if not self.size:
            return np.zeros((len(texts), 0))
        k = self.size
        return np.array([_flags(t, k) for t in texts], dtype=np.float64).reshape(len(texts), k)

"""The knowledge detector against the scan-everything oracle.

``CommonSenseInventory(k)`` answers PERSON, ORG and GPE yes or no, shares
one word scan between ORG and GPE and skips the digit-bound categories on
texts without a ``\\d`` match. Its vectors must be the first k entries,
byte for byte, of ``detect_reference`` over all eight default categories,
which runs every span detector on every text.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgrain.commonsense import (
    _FIRST_NAMES,
    _GPE_NAMES,
    _HONORIFICS,
    _MONTHS,
    _ORG_SUFFIXES,
    DEFAULT_CATEGORIES,
    CommonSenseInventory,
)
from docgrain.synth import SynthParams, synth_generate

from .reference_impls import detect_reference

INVENTORIES = [CommonSenseInventory(k) for k in range(len(DEFAULT_CATEGORIES) + 1)]

CORPORA = {
    "forms": SynthParams(),
    "dense": SynthParams(page_height=2600, min_kv_pairs=12, max_kv_pairs=24, max_list_blocks=6, max_noise_lines=6),
    "region_cue": SynthParams(variant="region_cue"),
}


def assert_matches_reference(texts: list[str]) -> None:
    """One oracle call per text at k = 8; every inventory returns the
    first k columns of it."""
    full = np.array([detect_reference(DEFAULT_CATEGORIES, t) for t in texts])
    for inv in INVENTORIES:
        got, want = inv.detect_all(texts), full[:, : inv.size]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_matches_reference_on_synthetic_corpora(name):
    pages = synth_generate(5, 24, CORPORA[name]).pages
    assert_matches_reference([s.text for page in pages for s in page.segments])


def mixed_case(word: str):
    return st.tuples(*[st.sampled_from(sorted({c.lower(), c.upper()})) for c in word]).map("".join)


WORDS = (
    list(_MONTHS) + list(_HONORIFICS) + sorted(_FIRST_NAMES) + list(_ORG_SUFFIXES) + sorted(_GPE_NAMES)
    + ["am", "pm", "a.m.", "p.m.", "dollars", "usd", "cents", "percent"]
)
# Non-ASCII decimal digits match \d, superscripts do not; the long s, the
# Kelvin sign and dotted I fold onto ASCII letters under re.IGNORECASE.
SYMBOLS = ["٣", "²", "१", "$", "%", ".", ",", ":", "/", "-", "ſ", "K", "İ", "ſept", "Kentucky", "Mr.", "Corp."]

token = (
    st.sampled_from(WORDS).flatmap(mixed_case)
    | st.integers(0, 99999).map(str)
    | st.sampled_from(SYMBOLS)
    | st.text(max_size=4)
)
text = st.lists(st.tuples(token, st.sampled_from(["", " ", "  ", ", ", ". ", "\n"])), max_size=8).map(
    lambda parts: "".join(t + sep for t, sep in parts)
)


@settings(max_examples=400)
@given(st.lists(text, min_size=1, max_size=6))
def test_matches_reference_on_generated_text(texts):
    assert_matches_reference(texts)


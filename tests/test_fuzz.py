"""Fuzzing the input boundaries: checkpoint files, document JSON and images.

Whatever the bytes, ``load_checkpoint`` either loads or raises
``CheckpointError``, ``parse_document`` either parses or raises
``DocumentParseError``, and ``load_image`` reads a PPM file or raises
``ValueError``; no other exception escapes. ``parse_document`` also returns
the page, or raises the message, that ``parse_document_reference`` does.
Every truncation of a valid checkpoint is already checked in
test_training.py. A box coordinate that is not a JSON number, a numeric
string or a boolean included, is always rejected.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgrain.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from docgrain.document import DocumentParseError, parse_document, serialize_document
from docgrain.embeddings import load_image
from docgrain.synth import SynthParams, generate_page

from .reference_impls import parse_document_reference, parse_outcome

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.ckpt"
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.array(-1.5), "c": np.zeros((0, 4))}
    save_checkpoint(str(path), tensors, {"model": {"d": 8}, "vocab": ["x"]})
    return path.read_bytes()


def load_bytes(tmp_path_factory, blob: bytes) -> None:
    """Load ``blob`` as a checkpoint file; a CheckpointError is an allowed outcome."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
    path.write_bytes(blob)
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass


@settings(max_examples=200)
@given(st.binary(max_size=256) | st.binary(max_size=256).map(lambda b: MAGIC + b))
def test_checkpoint_random_bytes(tmp_path_factory, blob):
    load_bytes(tmp_path_factory, blob)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), json_values)
def test_checkpoint_random_header(tmp_path_factory, length, header):
    text = json.dumps(header).encode()
    for declared in (len(text), length):
        load_bytes(tmp_path_factory, MAGIC + declared.to_bytes(4, "little") + text + b"\0" * 16)


def test_checkpoint_every_single_bit_flip(tmp_path_factory, checkpoint_bytes):
    for bit in range(8 * len(checkpoint_bytes)):
        flipped = bytearray(checkpoint_bytes)
        flipped[bit // 8] ^= 1 << (bit % 8)
        load_bytes(tmp_path_factory, bytes(flipped))


def assert_parses_like_reference(data) -> None:
    """Parse ``data``; a DocumentParseError is allowed, and either outcome
    must equal the reference parser's."""
    assert parse_outcome(parse_document, data) == parse_outcome(parse_document_reference, data)


@settings(max_examples=300)
@given(json_values)
def test_parse_random_json(value):
    assert_parses_like_reference(json.dumps(value))
    assert_parses_like_reference(value)


@settings(max_examples=100)
@given(st.binary(max_size=64))
def test_parse_random_bytes(blob):
    assert_parses_like_reference(blob)


VALID_DOC = serialize_document(generate_page(0, 0, SynthParams()))
VALID_DOC["labels"] = ["O"] * len(VALID_DOC["words"])


def paths(node, prefix=()):
    """Every (container, key) location inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


DOC_PATHS = list(paths(VALID_DOC))


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(DOC_PATHS), st.sampled_from(["replace", "delete"]), json_values), min_size=1, max_size=3))
def test_parse_mutated_document(mutations):
    doc = copy.deepcopy(VALID_DOC)
    for path, action, value in mutations:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if action == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped this location
    assert_parses_like_reference(json.dumps(doc))
    assert_parses_like_reference(doc)


COORD_PATHS = [p for p in DOC_PATHS if len(p) == 4 and p[2] == "bbox"]


@settings(max_examples=200)
@given(st.sampled_from(COORD_PATHS), st.booleans() | st.text(max_size=8) | st.floats().map(str) | st.integers().map(str))
def test_parse_rejects_non_number_coordinate(path, value):
    doc = copy.deepcopy(VALID_DOC)
    kind, i, _, k = path
    doc[kind][i]["bbox"][k] = value
    with pytest.raises(DocumentParseError, match=rf"bbox at {kind}\[{i}\]: coordinates must be numbers"):
        parse_document(json.dumps(doc))


PPM_HEADERS = [b"P6 2 2 255\n", b"P6\n# c\n1 3\n65535\n", b"P3 2 1 255\n", b"P3\n2 2\n7\n", b"P6 1 1 0\n"]


@settings(max_examples=300)
@given(st.sampled_from(PPM_HEADERS) | st.binary(max_size=24), st.binary(max_size=48))
def test_load_image_random_payload(tmp_path_factory, header, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed.ppm"
    path.write_bytes(header + payload)
    try:
        image = load_image(str(path))
    except ValueError:
        return
    assert image.ndim == 3 and image.shape[2] == 3 and image.size > 0
    assert np.all((image >= 0.0) & (image <= 1.0))

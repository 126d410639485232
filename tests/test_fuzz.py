"""Fuzzing the input boundaries: checkpoint files, document JSON and images.

Whatever the bytes, ``load_checkpoint`` either loads or raises
``CheckpointError``, ``parse_document`` either parses or raises
``DocumentParseError``, and ``load_image`` reads a PPM file or raises
``ValueError``; no other exception escapes. ``parse_document`` also returns
the page, or raises the message, that ``parse_document_reference`` does.
Every truncation of a valid checkpoint is already checked in
test_training.py. A box coordinate that is not a JSON number, a numeric
string or a boolean included, is always rejected.

``cli.run`` is driven end to end with mutated documents and options
(``build-graph``, ``render``), with random, bit-flipped or
config-mutated checkpoints (``eval``) and with config files (``train``):
it exits 0 or 1, never 2. A ``train`` config keeps every example to one
epoch of a small model, whatever else it asks for.
"""

import copy
import json
import re
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docgrain.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from docgrain.cli import run
from docgrain.document import DocumentParseError, parse_document, serialize_document
from docgrain.embeddings import load_image
from docgrain.model import Model, ModelConfig
from docgrain.synth import SynthParams, generate_page, save_corpus, synth_generate
from docgrain.vocab import build_vocab

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
    # In both formats: MMLY1 has no header CRC, and a matching one lets
    # MMLY2 reach the header's parsing.
    text = json.dumps(header).encode()
    crc = zlib.crc32(text).to_bytes(4, "little")
    for declared in (len(text), length):
        size = declared.to_bytes(4, "little")
        load_bytes(tmp_path_factory, b"MMLY1" + size + text + b"\0" * 16)
        load_bytes(tmp_path_factory, MAGIC + size + crc + text + b"\0" * 16)


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


def mutate(node, mutations):
    """A deep copy of ``node`` with each (path, "replace" | "delete", value)
    applied in turn."""
    node = copy.deepcopy(node)
    for path, action, value in mutations:
        parent = node
        try:
            for key in path[:-1]:
                parent = parent[key]
            if action == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped this location
    return node


def mutations_of(node_paths, values, min_size=1):
    actions = st.tuples(st.sampled_from(node_paths), st.sampled_from(["replace", "delete"]), values)
    return st.lists(actions, min_size=min_size, max_size=3)


@settings(max_examples=300)
@given(mutations_of(DOC_PATHS, json_values))
def test_parse_mutated_document(mutations):
    doc = mutate(VALID_DOC, mutations)
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


# -- the CLI end to end --------------------------------------------------------

CLI_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# Model sizes stay small whatever a mutated config asks for.
small_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats(-1e3, 1e3) | st.sampled_from([1e308, float("nan")])
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def assert_exit_0_or_1(argv) -> None:
    code = run(argv)
    assert code in (0, 1), f"exit {code} for {argv}"


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """An untrained small-model checkpoint, its config and a two-page corpus."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    bundle = synth_generate(9, 2, SynthParams())
    save_corpus(bundle, str(root / "corpus"))
    cfg = ModelConfig(d=12, heads=2, fine_layers=1, coarse_layers=1, vocab_size=128, max_len=128, grid=(2, 2), commonsense_k=4)
    model = Model(cfg, build_vocab(bundle.pages, cfg.vocab_size))
    model.save(str(root / "model.ckpt"))
    return root


@CLI_SETTINGS
@given(
    mutations_of(DOC_PATHS, st.floats(-1e4, 1e4) | st.integers(-10**6, 10**6) | json_values, min_size=0),
    st.floats(0, 500) | st.sampled_from([float("nan"), float("inf"), -1.0, 1e-300, 1e308]),
    st.integers(-1, 6),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_cli_build_graph_and_render_mutated_document(cli_files, mutations, radius, min_pts, grid):
    doc = cli_files / "doc.json"
    doc.write_text(json.dumps(mutate(VALID_DOC, mutations)))
    common = ["--input", str(doc), f"--radius={radius}", f"--min-pts={min_pts}"]
    assert_exit_0_or_1(["build-graph", *common, f"--grid={grid[0]}x{grid[1]}", "--output", str(cli_files / "g.json")])
    assert_exit_0_or_1(["render", *common, "--svg-out", str(cli_files / "p.svg")])


def eval_bytes(cli_files, blob: bytes) -> None:
    path = cli_files / "fuzzed.ckpt"
    path.write_bytes(blob)
    assert_exit_0_or_1(["eval", "--checkpoint", str(path), "--corpus", str(cli_files / "corpus")])


@CLI_SETTINGS
@given(st.binary(max_size=256) | st.binary(max_size=256).map(lambda b: MAGIC + b))
def test_cli_eval_random_checkpoint_bytes(cli_files, blob):
    eval_bytes(cli_files, blob)


@CLI_SETTINGS
@given(st.data())
def test_cli_eval_bit_flipped_checkpoint(cli_files, data):
    blob = bytearray((cli_files / "model.ckpt").read_bytes())
    bit = data.draw(st.integers(0, 8 * len(blob) - 1))
    blob[bit // 8] ^= 1 << (bit % 8)
    eval_bytes(cli_files, bytes(blob))


def offset_bit_flips(blob: bytes):
    """Copies of a checkpoint, each with one bit flipped inside the digits
    of one header entry's "offset" value and the header CRC made to match,
    so that the header's parsing and tiling checks, not its CRC, refuse it."""
    start = len(MAGIC) + 8
    hlen = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 4], "little")
    for match in re.finditer(rb'"offset": (\d+)', blob[start : start + hlen]):
        for i in range(start + match.start(1), start + match.end(1)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                flipped[start - 4 : start] = zlib.crc32(flipped[start : start + hlen]).to_bytes(4, "little")
                yield bytes(flipped)


def test_cli_eval_offset_bit_flips_rejected(cli_files):
    """A header whose entries no longer tile the payload is refused, even
    where the flipped offset still reads a window of valid tensor bytes."""
    valid, path = cli_files / "model.ckpt", cli_files / "offset.ckpt"
    n = 0
    for n, blob in enumerate(offset_bit_flips(valid.read_bytes()), 1):
        path.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
        assert run(["eval", "--checkpoint", str(path), "--corpus", str(cli_files / "corpus")]) == 1
    assert n >= 8 * len(load_checkpoint(str(valid))[0])  # every offset has a digit


@CLI_SETTINGS
@given(st.data())
def test_cli_eval_mutated_checkpoint_config(cli_files, data):
    tensors, config = load_checkpoint(str(cli_files / "model.ckpt"))
    config = mutate(config, data.draw(mutations_of(list(paths(config)), small_values)))
    config = json.loads(json.dumps(config))  # an integer key became a string key, as in any JSON file
    path = cli_files / "mutated.ckpt"
    save_checkpoint(str(path), tensors, config)
    assert_exit_0_or_1(["eval", "--checkpoint", str(path), "--corpus", str(cli_files / "corpus")])


# Every train example stays small: one epoch, d <= 24, a grid of at most
# 3x3, vocab_size and max_len <= 256, rel_max_distance <= 5000. Besides the
# values each field takes here, every field may get a wrong type, null,
# NaN or an infinity, or a negative number.
HUGE = 10**400  # a JSON integer no float can hold
any_float = st.floats() | st.sampled_from([HUGE, -HUGE, 10**300, 0])
MODEL_VALUES = {
    "d": st.integers(-2, 24),
    "heads": st.integers(-1, 8),
    "fine_layers": st.integers(-1, 2),
    "coarse_layers": st.integers(-1, 6),
    "vocab_size": st.integers(-1, 256),
    "max_len": st.integers(-1, 256),
    "grid": st.lists(st.integers(-1, 3) | st.booleans() | st.floats(0, 3), max_size=3),
    "commonsense_k": st.integers(-1, 9),
    "radius": any_float,
    "min_pts": st.integers(-2, 2**70),
    "rel_buckets": st.integers(-4, 64),
    "rel_max_distance": st.integers(-2, 5000),
    "seed": st.integers(-2, 2**70),
    "use_cross_grained": st.booleans(),
}
TRAIN_VALUES = {
    "lr": any_float,
    "warmup_steps": st.integers(-2, 2**70),
    "weight_decay": any_float,
    "batch_size": st.integers(-1, 2**70),
    "epochs": st.integers(-1, 1),
    "seed": st.integers(-2, 2**70),
    "eval_every": st.integers(-1, 2**70),
}
junk = (
    st.none() | st.booleans() | st.text(max_size=4) | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.integers(-2**70, -1) | st.floats(-1e3, -1e-3) | st.lists(st.integers(-2, 2), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2)
)
BASE_MODEL = {"d": 12, "heads": 2, "fine_layers": 1, "coarse_layers": 1, "vocab_size": 128, "max_len": 128,
              "grid": [2, 2], "commonsense_k": 4}
BASE_TRAIN = {"epochs": 1, "batch_size": 2, "warmup_steps": 1}


FIELD_VALUES = {("model", k): v for k, v in MODEL_VALUES.items()} | {("train", k): v for k, v in TRAIN_VALUES.items()}
# Three values in four come from the field's own strategy.
override = st.tuples(st.sampled_from(sorted(FIELD_VALUES)), st.integers(0, 3)).flatmap(
    lambda fj: st.tuples(st.just(fj[0]), junk if fj[1] == 0 else FIELD_VALUES[fj[0]])
)
unknown_key = st.tuples(st.tuples(st.sampled_from(["model", "train"]), st.text(max_size=6)), junk).filter(
    lambda kv: kv[0] not in FIELD_VALUES
)


def apply_overrides(overrides) -> dict:
    """The small base config with each ((section, key), value) set in turn."""
    config = {"model": dict(BASE_MODEL), "train": dict(BASE_TRAIN)}
    for (name, key), value in overrides:
        config[name][key] = value
    return config


# A few fields at a time, so that most examples pass every check but one.
train_configs = st.lists(st.integers(0, 7).flatmap(lambda i: unknown_key if i == 0 else override), max_size=3).map(
    apply_overrides
)


@pytest.fixture(scope="module")
def train_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("train_fuzz")
    save_corpus(synth_generate(5, 4, SynthParams()), str(root / "corpus"))
    return root


@settings(CLI_SETTINGS, max_examples=200)
@given(train_configs | st.dictionaries(st.sampled_from(["model", "train", "optim"]), junk, max_size=2))
def test_cli_train_random_config(train_corpus, config):
    path = train_corpus / "cfg.json"
    path.write_text(json.dumps(config))
    assert_exit_0_or_1(["train", "--corpus", str(train_corpus / "corpus"), "--config", str(path),
                        "--out", str(train_corpus / "m.ckpt")])

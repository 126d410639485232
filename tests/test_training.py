import json
import os
import struct
import tracemalloc
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest

import docgrain.synth as synth_module
import docgrain.training as training_module
from docgrain.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from docgrain.model import Model, ModelConfig, load_model
from docgrain.optim import Adam
from docgrain.synth import SynthParams, generate_page, probe_page, save_corpus, synth_generate
from docgrain.tensor import Tensor, no_grad
from docgrain.training import (
    EvalReport,
    TrainConfig,
    TrainResult,
    ablate,
    evaluate_model,
    load_config_file,
    lr_schedule,
    reference_model_config,
    reference_train_config,
    seed_averages,
    split_corpus,
    train,
    write_ablation_csv,
)
from docgrain.vocab import PAD_TOKEN, UNK_TOKEN, build_vocab

from .reference_impls import FullTableModel, as_mmly1, checkpoint_bytes_tobytes

SMALL_MODEL = dict(d=12, heads=2, fine_layers=1, coarse_layers=1, vocab_size=512, max_len=256, grid=(2, 2), commonsense_k=4)


def small_corpus(n=16, seed=0, variant="plain"):
    return [generate_page(seed, i, SynthParams(variant=variant)) for i in range(n)]


class TestLrSchedule:
    @staticmethod
    def lr(step):
        return lr_schedule(step, 1e-3, 10, 100)

    def test_endpoints(self):
        assert self.lr(0) == 0.0
        assert self.lr(10) == pytest.approx(1e-3)
        assert self.lr(100) == 0.0

    def test_clamps_past_total(self):
        assert self.lr(1000) == 0.0

    def test_piecewise_linear_and_continuous(self):
        for step in range(1, 10):
            assert self.lr(step) == pytest.approx(1e-3 * step / 10)
        for step in range(11, 100):
            assert self.lr(step) == pytest.approx(1e-3 * (100 - step) / 90)
        left = self.lr(10)
        right = 1e-3 * (100 - 10) / (100 - 10)
        assert left == pytest.approx(right)

    def test_warmup_bounds_validated(self):
        with pytest.raises(ValueError, match="warmup_steps"):
            TrainConfig(warmup_steps=-1)

    def test_negative_seed_rejected(self):
        # numpy's seeding once failed after every page was encoded, without naming the key.
        for seed in (-1, -(2**70)):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                TrainConfig(seed=seed)
        assert TrainConfig(seed=2**70).seed == 2**70

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)])
    def test_non_finite_rates_rejected(self, field, value):
        # NaN fails every range check; a JSON integer past the float range
        # would overflow the first float operation.
        with pytest.raises(ValueError, match=f"{field} must be a finite float"):
            TrainConfig(**{field: value})
        assert getattr(TrainConfig(**{field: 10**300}), field) == 10**300

    def test_warmup_clamped_to_run_length(self):
        # 16 pages in batches of 8 for 3 epochs is 6 steps, all inside the
        # 500-step warmup: the rate climbs to the peak at the last step.
        pages = small_corpus(16)
        cfg = TrainConfig(lr=1e-3, warmup_steps=500, epochs=3, batch_size=8, eval_every=1)
        result = train(pages, [], ModelConfig(**SMALL_MODEL), cfg)
        assert [r["lr"] for r in result.metric_log] == pytest.approx([1e-3 * 2 / 6, 1e-3 * 4 / 6, 0.0])


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        opt = Adam({"p": p}, weight_decay=0.0)
        before = p.data.copy()
        opt.step(1e-2)
        assert abs(before[0] - p.data[0]) == pytest.approx(1e-2, rel=1e-6)

    def test_zero_grad_zero_decay_unchanged(self):
        p = Tensor([2.0], requires_grad=True)
        p.grad = np.zeros(1)
        opt = Adam({"p": p}, weight_decay=0.0)
        opt.step(1e-2)
        assert p.data[0] == 2.0

    def test_weight_decay_decoupled(self):
        p = Tensor([2.0], requires_grad=True)
        p.grad = np.zeros(1)
        opt = Adam({"p": p}, weight_decay=0.01)
        opt.step(0.1)
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(0)
            p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            opt = Adam({"p": p})
            for _ in range(5):
                p.grad = rng.normal(size=(4, 4))
                opt.step(1e-3)
            return p.data.tobytes()

        assert run() == run()

    def test_steps_match_the_textbook_formula_bit_for_bit(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        opt = Adam({"p": p}, weight_decay=0.01)
        w, m, v = p.data.copy(), np.zeros((4, 4)), np.zeros((4, 4))
        for t in range(1, 6):
            g = rng.normal(size=(4, 4))
            p.grad = g.copy()
            opt.step(1e-3)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            update = (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8) + 0.01 * w
            w = w - 1e-3 * update
            assert p.data.tobytes() == w.tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_several_parameters_match_the_textbook_formula_bit_for_bit(self, weight_decay):
        # Shapes of every rank share the optimizer's scratch; "idle" never
        # receives a gradient.
        rng = np.random.default_rng(1)
        shapes = {"table": (12, 5), "w": (5, 3), "b": (3,), "idle": (2, 2), "s": ()}
        params = {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in shapes.items()}
        opt = Adam(params, weight_decay=weight_decay)
        want = {name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for name, p in params.items()}
        for t in range(1, 6):
            lr = 1e-3 * t
            for name, p in params.items():
                p.grad = None if name == "idle" else rng.normal(size=p.shape)
            opt.step(lr)
            for name, p in params.items():
                w, m, v = want[name]
                g = np.zeros(p.shape) if p.grad is None else p.grad
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * g * g
                update = (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8) + weight_decay * w
                want[name] = (w - lr * update, m, v)
                assert p.data.tobytes() == want[name][0].tobytes(), (name, t)
                assert opt.m[name].tobytes() == m.tobytes() and opt.v[name].tobytes() == v.tobytes(), (name, t)

    def test_step_allocates_less_than_one_parameter(self):
        page = generate_page(10, 0, SynthParams())
        model = Model(reference_model_config(), build_vocab([page], 2048))
        rng = np.random.default_rng(0)
        for p in model.params.values():
            p.grad = rng.normal(size=p.shape)
        opt = Adam(model.params, weight_decay=0.01)
        largest = max(p.data.nbytes for p in model.params.values())
        tracemalloc.start()
        try:
            opt.step(1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest, (peak, largest)

    def test_gradient_shape_checked(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        p.grad = np.zeros((3, 2))
        with pytest.raises(ValueError, match=r"gradient shape \(3, 2\) != param shape \(2, 3\) for p"):
            Adam({"p": p}).step(1e-3)


class TestCheckpointFormat:
    def test_file_bytes_match_the_copying_writer(self, tmp_path):
        # Payloads go to the file and the checksum straight from the
        # arrays; the bytes are those of the writer that copied each out.
        rng = np.random.default_rng(4)
        base = rng.normal(size=(5, 6))
        tensors = {
            **{name: p.data for name, p in Model(ModelConfig(seed=0, **SMALL_MODEL), build_vocab(small_corpus(2), 512)).params.items()},
            "edge.scalar": np.float64(2.5),
            "edge.empty": np.zeros((0, 3)),
            "edge.fortran": np.asfortranarray(base),
            "edge.strided": base[::2, 1::2],
            "edge.float32": base.astype(np.float32),
            "edge.big_endian": base.astype(">f8"),
            "edge.int": np.arange(7),
        }
        config = {"note": "bytes", "n": 2}
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, tensors, config)
        with open(path, "rb") as fh:
            assert fh.read() == checkpoint_bytes_tobytes(tensors, config)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=(7,))}
        config = {"note": "x", "n": 3}
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, tensors, config)
        loaded, cfg = load_checkpoint(path)
        assert cfg == config
        for name in tensors:
            assert loaded[name].tobytes() == tensors[name].tobytes()

    def test_load_memory_peak(self, tmp_path):
        # Each payload is read straight into its own array, so a load holds
        # little beyond the tensors themselves: 1.02x the file size at the
        # reference config, against 2.0x while the whole file was read
        # before the tensors were copied out of it.
        pages = [generate_page(10, i, SynthParams()) for i in range(40)]
        path = str(tmp_path / "ref.ckpt")
        Model(reference_model_config(), build_vocab(pages, 2048)).save(path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * os.path.getsize(path), (peak, os.path.getsize(path))

    def test_magic_guard(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTCKPT")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_every_truncation_rejected(self, tmp_path):
        tensors = {"a.w": np.arange(12.0).reshape(3, 4), "b": np.ones(7)}
        full = str(tmp_path / "ck.bin")
        save_checkpoint(full, tensors, {"note": "x"})
        raw = open(full, "rb").read()
        path = str(tmp_path / "cut.bin")
        for n in range(len(raw)):
            with open(path, "wb") as fh:
                fh.write(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        assert load_checkpoint(full)[1] == {"note": "x"}

    def test_flipped_payload_bit_rejected(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, {"w": np.ones(4)}, {})
        raw = bytearray(open(path, "rb").read())
        raw[-2] ^= 1
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, {"w": np.ones(4)}, {})
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(CheckpointError, match="after the last tensor"):
            load_checkpoint(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        # Two well-formed entries that tile the payload, under one name.
        payload = np.arange(4.0).tobytes()
        entry = {"name": "a", "shape": [2], "nbytes": 16}
        header = {"tensors": [entry | {"offset": 0}, entry | {"offset": 16}], "config": {}, "crc32": zlib.crc32(payload)}
        body = json.dumps(header).encode("utf-8")
        path = str(tmp_path / "dup.bin")
        with open(path, "wb") as fh:
            fh.write(b"MMLY1" + struct.pack("<I", len(body)) + body + payload)
        with pytest.raises(CheckpointError, match="duplicate tensor 'a'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            [1, 2],
            "tensors",
            {"config": {}},
            {"tensors": []},
            {"tensors": {}, "config": {}},
            {"tensors": [], "config": [1]},
            {"tensors": [{"name": "a"}], "config": {}},
            {"tensors": ["a"], "config": {}},
            {"tensors": [{"name": "a", "shape": [2], "offset": 0, "nbytes": 8}], "config": {}},
            {"tensors": [{"name": "a", "shape": "2", "offset": 0, "nbytes": 16}], "config": {}},
            {"tensors": [{"name": "a", "shape": [2], "offset": -8, "nbytes": 16}], "config": {}},
        ],
        ids=[
            "list", "string", "no-tensors", "no-config", "tensors-not-list", "config-not-object",
            "entry-missing-fields", "entry-not-object", "nbytes-mismatch", "shape-not-list", "negative-offset",
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        body = json.dumps(header).encode("utf-8")
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"MMLY1" + struct.pack("<I", len(body)) + body + bytes(16))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @staticmethod
    def saved_model(tmp_path):
        page = probe_page()
        model = Model(ModelConfig(seed=3, **SMALL_MODEL), build_vocab([page], SMALL_MODEL["vocab_size"]))
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        return path, *load_checkpoint(path)

    @pytest.mark.parametrize("key", ["model", "vocab", "label_types", "categories"])
    def test_model_config_missing_key_rejected(self, tmp_path, key):
        path, tensors, config = self.saved_model(tmp_path)
        del config[key]
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match=key):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [("model", 5), ("model", {"d": "x"}), ("vocab", 5), ("label_types", 5), ("categories", None)],
    )
    def test_model_config_wrong_type_rejected(self, tmp_path, key, value):
        path, tensors, config = self.saved_model(tmp_path)
        config[key] = value
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match="invalid checkpoint config"):
            load_model(path)

    @pytest.mark.parametrize(
        "vocab",
        [[PAD_TOKEN, UNK_TOKEN, 7], [PAD_TOKEN, UNK_TOKEN, None], "xyz"],
        ids=["int-token", "null-token", "bare-string"],
    )
    def test_vocab_of_non_strings_rejected(self, tmp_path, vocab):
        # A number where a token was, or a bare string (once read as a
        # vocabulary of its characters), is a corrupt header.
        path, tensors, config = self.saved_model(tmp_path)
        config["vocab"] = vocab
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match="invalid checkpoint config: vocabulary must be a list of strings"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [("label_types", "HQA"), ("categories", "DATE")])
    def test_label_types_and_categories_as_bare_string_rejected(self, tmp_path, key, value):
        # A bare string was once read as one entry per character.
        path, tensors, config = self.saved_model(tmp_path)
        config[key] = value
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match=f"invalid checkpoint config: {key} must be a list, got '{value}'"):
            load_model(path)

    @pytest.mark.parametrize(
        "categories",
        [
            ["DATE", "GPE", "ORG", "PERSON"],
            ["PERSON", "ORG", "GPE"],
            ["PERSON", "ORG", "GPE", "DATE", "TIME"],
            ["PERSON", "ORG", "GPE", "EVENT"],
            ["PERSON", "ORG", "GPE", 3],
        ],
        ids=["reordered", "shortened", "lengthened", "unknown-name", "non-string"],
    )
    def test_categories_other_than_default_prefix_rejected(self, tmp_path, categories):
        # Bit k of a knowledge vector is always DEFAULT_CATEGORIES[k]; a
        # reordered list once loaded and permuted the bits.
        path, tensors, config = self.saved_model(tmp_path)
        assert config["categories"] == ["PERSON", "ORG", "GPE", "DATE"]
        config["categories"] = categories
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match="invalid checkpoint config: categories must be"):
            load_model(path)

    @pytest.mark.parametrize("types", [["HEADER", "HEADER", "ANSWER"], ["HEADER", "", "ANSWER"]], ids=["repeated", "empty"])
    def test_repeated_or_empty_label_types_rejected(self, tmp_path, types):
        # Same count as the head's 7 columns, so only the tag set can catch it.
        path, tensors, config = self.saved_model(tmp_path)
        config["label_types"] = types
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match="invalid checkpoint config: entity types must be non-empty and distinct"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [("heads", 0), ("grid", [2]), ("rel_buckets", 5), ("radius", -1.0)])
    def test_model_config_bad_value_rejected(self, tmp_path, key, value):
        path, tensors, config = self.saved_model(tmp_path)
        config["model"][key] = value
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match="invalid checkpoint config"):
            load_model(path)

    @pytest.mark.parametrize("dropout", [0.0, 0])
    def test_retired_fields_at_old_defaults_load(self, tmp_path, dropout):
        page = probe_page()
        model = Model(ModelConfig(seed=3, **SMALL_MODEL), build_vocab([page], SMALL_MODEL["vocab_size"]))
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        tensors, config = load_checkpoint(path)
        # Older checkpoints store eight retired fields, always at these values.
        config["model"] |= {
            "activation": "gelu",
            "dropout": dropout,
            "ffn_width": None,
            "commonsense_dim": None,
            "aggregation": "sum",
            "min_pts": 1,
            "rel_buckets": 32,
            "rel_max_distance": 1000,
        }
        save_checkpoint(path, tensors, config)
        again = load_model(path)
        assert again.config == model.config
        for name, p in model.params.items():
            assert again.params[name].data.tobytes() == p.data.tobytes()
        assert again.predict_word_tags(again.encode_page(page)) == model.predict_word_tags(model.encode_page(page))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("activation", "relu"),
            ("dropout", 0.1),
            ("dropout", False),
            ("ffn_width", 128),
            ("commonsense_dim", 32),
            ("aggregation", "mean"),
            ("rel_buckets", 16),
            ("rel_max_distance", 100),
            ("min_pts", 2),
        ],
    )
    def test_retired_field_at_other_value_rejected(self, tmp_path, key, value):
        path, tensors, config = self.saved_model(tmp_path)
        config["model"][key] = value
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match=f"invalid checkpoint config: retired .*'{key}'"):
            load_model(path)

    def test_failed_save_leaves_existing_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.bin"
        save_checkpoint(str(path), {"w": np.ones(4)}, {"n": 1})
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), {"w": np.zeros(9)}, {"n": 2})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.bin"]

    def test_failed_save_names_the_target(self, tmp_path):
        # The rename onto a directory fails; the error names the target, not
        # the temporary file beside it.
        target = tmp_path / "ck"
        target.mkdir()
        with pytest.raises(OSError) as info:
            save_checkpoint(str(target), {"w": np.ones(4)}, {})
        assert str(info.value).startswith(f"cannot save checkpoint '{target}': ")
        assert ".tmp" not in str(info.value)
        assert os.listdir(tmp_path) == ["ck"]

    def test_magic_prefix(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, {"t": np.zeros(2)}, {})
        with open(path, "rb") as fh:
            raw = fh.read()
        (hlen, header_crc) = struct.unpack_from("<II", raw, 5)
        assert raw[:5] == b"MMLY2"
        assert header_crc == zlib.crc32(raw[13 : 13 + hlen])

    def test_flipped_header_bit_rejected(self, tmp_path):
        # One flipped bit in a vocabulary token once loaded as another token.
        path, tensors, config = self.saved_model(tmp_path)
        raw = bytearray(open(path, "rb").read())
        token = next(t for t in config["vocab"] if t.isalpha() and chr(ord(t[0]) ^ 1) + t[1:] not in config["vocab"])
        at = raw.index(json.dumps(token).encode("utf-8")) + 1
        raw[at] ^= 1
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(CheckpointError, match="header checksum"):
            load_checkpoint(path)

    def test_model_save_load_bit_exact(self, tmp_path):
        page = probe_page()
        cfg = ModelConfig(seed=3, **SMALL_MODEL)
        model = Model(cfg, build_vocab([page], SMALL_MODEL["vocab_size"]))
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        again = load_model(path)
        assert again.config == model.config
        assert again.vocab.tokens == model.vocab.tokens
        for name, p in model.params.items():
            assert again.params[name].data.tobytes() == p.data.tobytes()
        # saving the reloaded model reproduces the file byte for byte
        path2 = str(tmp_path / "model2.ckpt")
        again.save(path2)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_full_word_table_mmly1_loads_and_predicts_the_same_tags(self, tmp_path):
        # What every earlier checkpoint holds: an MMLY1 file whose emb.word
        # has all vocab_size rows. Rows past len(vocab) are dropped on load.
        pages = small_corpus(4)
        cfg = ModelConfig(seed=3, **SMALL_MODEL)
        vocab = build_vocab(pages, cfg.vocab_size)
        old = FullTableModel(cfg, vocab)
        path = str(tmp_path / "old.ckpt")
        old.save(path)
        as_mmly1(path)
        tensors = load_checkpoint(path)[0]
        assert tensors["emb.word"].shape == (cfg.vocab_size, cfg.d)
        assert [name for name, t in tensors.items() if not t.flags.owndata] == []
        loaded = load_model(path)
        assert loaded.tables.word.data.flags.owndata
        for name, p in Model(cfg, vocab).params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name
        with no_grad():
            for page in pages:
                enc = loaded.encode_page(page)
                assert loaded.logits_encoded(enc).data.tobytes() == old.logits_encoded(enc).data.tobytes()
                assert loaded.predict_word_tags(enc) == old.predict_word_tags(enc)

    @pytest.mark.parametrize("rows", ["fewer", "between", "beyond"])
    def test_word_table_of_other_row_count_rejected(self, tmp_path, rows):
        # Only len(vocab) rows, or the vocab_size rows of an older checkpoint, load.
        path, tensors, config = self.saved_model(tmp_path)
        n, cap = len(config["vocab"]), config["model"]["vocab_size"]
        count = {"fewer": n - 1, "between": n + 1, "beyond": cap + 1}[rows]
        assert n + 1 < cap
        tensors["emb.word"] = np.zeros((count, config["model"]["d"]))
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match="tensor 'emb.word' has shape"):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        page = probe_page()
        cfg = ModelConfig(seed=3, **SMALL_MODEL)
        model = Model(cfg, build_vocab([page], SMALL_MODEL["vocab_size"]))
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        tensors, config = load_checkpoint(path)
        tensors["head.w"] = tensors["head.w"][:, :3]
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match="head.w"):
            load_model(path)

    @pytest.mark.parametrize("name", ["head.w", "emb.word", "fine.0.ln1_gain"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, name, value):
        # Such a checkpoint once loaded and scored every page as all O.
        path, tensors, config = self.saved_model(tmp_path)
        tensors[name].reshape(-1)[1] = value
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match=f"tensor '{name}' holds a non-finite value"):
            load_model(path)

    def test_vocab_without_leading_specials_rejected(self, tmp_path):
        # Rows permuted with the tokens, so token i still means row i: this
        # once loaded with the specials moved to the front, shifting every row.
        path, tensors, config = self.saved_model(tmp_path)
        order = [2, 0, 1, *range(3, len(config["vocab"]))]
        config["vocab"] = [config["vocab"][i] for i in order]
        tensors["emb.word"] = tensors["emb.word"][order]
        save_checkpoint(path, tensors, config)
        with pytest.raises(CheckpointError, match=r"invalid checkpoint config: vocabulary must begin with the special"):
            load_model(path)

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        path, tensors, _ = self.saved_model(tmp_path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_model drew an initialization")

        monkeypatch.setattr("docgrain.model.trunc_normal", no_draw)
        loaded = load_model(path)
        assert loaded.params.keys() == tensors.keys()
        for name, p in loaded.params.items():
            assert p.data.tobytes() == tensors[name].tobytes()

    @pytest.mark.parametrize(
        "overrides", [{}, {"commonsense_k": 0}, {"coarse_layers": 0}, {"use_cross_grained": False}]
    )
    def test_loaded_params_in_fresh_order(self, tmp_path, overrides):
        page = probe_page()
        cfg = ModelConfig(seed=3, **(SMALL_MODEL | overrides))
        model = Model(cfg, build_vocab([page], cfg.vocab_size))
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        assert list(load_model(path).params) == list(model.params)


class TestTrainLoop:
    @pytest.mark.parametrize("where, error", [
        ("{tmp}/nodir/m.ckpt", "checkpoint_path: '{tmp}/nodir' is not an existing directory"),
        ("{tmp}", "checkpoint_path: '{tmp}' is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_bad_checkpoint_path_fails_before_training(self, tmp_path, monkeypatch, where, error):
        monkeypatch.setattr(Model, "loss_encoded", lambda *args: pytest.fail("trained"))
        path = where.format(tmp=tmp_path)
        with pytest.raises(ValueError) as info:
            train(small_corpus(2), [], ModelConfig(seed=0, **SMALL_MODEL), TrainConfig(epochs=1), checkpoint_path=path)
        assert str(info.value) == error.format(tmp=tmp_path)
        assert os.listdir(tmp_path) == []

    def test_short_run_updates_every_group(self):
        pages = small_corpus(4)
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        tc = TrainConfig(lr=1e-3, warmup_steps=1, epochs=2, batch_size=2, eval_every=2)
        result = train(pages, pages[:2], cfg, tc)
        fresh = Model(cfg, build_vocab(pages, SMALL_MODEL["vocab_size"]))
        changed = [
            name
            for name, p in result.model.params.items()
            if not np.array_equal(p.data, fresh.params[name].data)
        ]
        assert len(changed) == len(fresh.params)

    def test_full_word_table_trains_to_the_same_live_rows(self, monkeypatch):
        # The table at all vocab_size rows of its draw, trained next to the
        # trimmed one: no value that training computes reads a row past
        # len(vocab), so the logs, the report and every live parameter agree
        # bit for bit.
        pages = small_corpus(8)
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        tc = TrainConfig(lr=1e-3, warmup_steps=2, epochs=3, batch_size=3, eval_every=1)
        trimmed = train(pages[:6], pages[6:], cfg, tc)
        monkeypatch.setattr(training_module, "Model", FullTableModel)
        full = train(pages[:6], pages[6:], cfg, tc)
        n = len(trimmed.model.vocab)
        assert (trimmed.model.tables.word.shape, full.model.tables.word.shape) == ((n, cfg.d), (cfg.vocab_size, cfg.d))
        assert trimmed.metric_log == full.metric_log
        assert trimmed.report == full.report
        for name, p in trimmed.model.params.items():
            want = full.model.params[name].data
            assert p.data.tobytes() == (want[:n] if name == "emb.word" else want).tobytes(), name

    def test_loss_decreases_after_training(self):
        pages = small_corpus(12)
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        tc = TrainConfig(lr=1e-3, warmup_steps=5, epochs=4, batch_size=4, eval_every=4)
        result = train(pages, pages[:3], cfg, tc)
        first, last = result.metric_log[0], result.metric_log[-1]
        assert last["loss"] < np.log(7.0)  # better than uniform guessing

    def test_same_seed_identical_logs(self):
        pages = small_corpus(8)
        cfg = ModelConfig(seed=1, **SMALL_MODEL)
        tc = TrainConfig(lr=1e-3, warmup_steps=2, epochs=2, batch_size=4, eval_every=1, seed=1)
        a = train(pages, pages[:2], cfg, tc)
        b = train(pages, pages[:2], cfg, tc)
        assert a.metric_log == b.metric_log
        for name in a.model.params:
            assert np.array_equal(a.model.params[name].data, b.model.params[name].data)

    def test_metric_log_format(self, tmp_path):
        pages = small_corpus(6)
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        tc = TrainConfig(lr=1e-3, warmup_steps=2, epochs=2, batch_size=3, eval_every=1)
        result = train(pages, pages[:2], cfg, tc)
        path = str(tmp_path / "log.jsonl")
        result.write_log(path)
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == 2
        assert set(lines[0]) == {"step", "loss", "f1", "lr"}

    def test_returned_model_holds_no_gradients(self):
        pages = small_corpus(4)
        tc = TrainConfig(lr=1e-3, warmup_steps=1, epochs=1, batch_size=2, eval_every=1)
        result = train(pages, pages[:2], ModelConfig(seed=0, **SMALL_MODEL), tc)
        assert [name for name, p in result.model.params.items() if p.grad is not None] == []

    def test_training_memory_peak(self):
        # The tracemalloc peak of one seeded reference-config epoch on 16
        # forms pages, measured with numpy 2.4.6 and Python 3.11.7: 11,571
        # to 11,578 KB over PYTHONHASHSEED 0-27 (the interpreter's free
        # lists move a few KB), against 14,580 KB while each document's
        # tape outlived its backward sweep. This is an upper bound; a
        # change that raises it loosens the check.
        pages = [generate_page(10, i, SynthParams()) for i in range(16)]
        tracemalloc.start()
        try:
            train(pages, [], reference_model_config(), reference_train_config(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11_580 * 1024, peak

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], [], ModelConfig(seed=0, **SMALL_MODEL), TrainConfig())

    def test_unlabeled_corpus_rejected(self):
        page = probe_page()
        page.labels = None
        with pytest.raises(ValueError, match="labels"):
            train([page], [], ModelConfig(seed=0, **SMALL_MODEL), TrainConfig())

    def test_nan_loss_aborts_with_batch_dump(self):
        pages = small_corpus(4)
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        tc = TrainConfig(lr=1e8, warmup_steps=1, epochs=6, batch_size=2, eval_every=6)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=r"loss at step \d+; batch docs"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                train(pages, pages[:1], cfg, tc)


class TestEvaluate:
    def test_gold_predictions_score_one(self):
        # a model wrapper that predicts gold is simulated by evaluating
        # gold labels as entities through the accumulator path
        pages = small_corpus(4)
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        model = Model(cfg, build_vocab(pages, SMALL_MODEL["vocab_size"]))
        real = model.predict_word_tags

        def fake(enc):
            return list(enc.page.labels)

        model.predict_word_tags = fake
        report = evaluate_model(model, map(model.encode_page, pages))
        assert report.micro_f1 == 1.0
        model.predict_word_tags = real

    def test_label_outside_tag_set_rejected(self):
        pages = small_corpus(2)
        pages[0].labels[0] = "B-BOGUS"
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        model = Model(cfg, build_vocab(pages, SMALL_MODEL["vocab_size"]))
        with pytest.raises(ValueError, match="unknown tag 'B-BOGUS'"):
            evaluate_model(model, map(model.encode_page, pages))

    @pytest.mark.parametrize("docs", [[], iter(())], ids=["list", "iterator"])
    def test_zero_documents_rejected(self, docs):
        pages = small_corpus(2)
        model = Model(ModelConfig(seed=0, **SMALL_MODEL), build_vocab(pages, SMALL_MODEL["vocab_size"]))
        with pytest.raises(ValueError, match="at least one document"):
            evaluate_model(model, docs)

    def test_checkpoint_roundtrip_reproduces_metrics(self, tmp_path):
        pages = small_corpus(8)
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        tc = TrainConfig(lr=1e-3, warmup_steps=2, epochs=2, batch_size=4, eval_every=2)
        result = train(pages[:6], pages[6:], cfg, tc)
        before = evaluate_model(result.model, map(result.model.encode_page, pages[6:]))
        path = str(tmp_path / "m.ckpt")
        result.model.save(path)
        loaded = load_model(path)
        after = evaluate_model(loaded, map(loaded.encode_page, pages[6:]))
        assert after == before

    def test_checkpoint_evaluation_holds_at_most_two_pages(self, tmp_path, monkeypatch):
        """``evaluate_checkpoint`` reads the corpus as it scores it: when a
        page is encoded, every page parsed before the one preceding it is
        already freed."""
        bundle = synth_generate(0, 6, SynthParams())
        ckpt, corpus = str(tmp_path / "m.ckpt"), str(tmp_path / "corpus")
        Model(ModelConfig(seed=0, **SMALL_MODEL), build_vocab(bundle.pages, SMALL_MODEL["vocab_size"])).save(ckpt)
        save_corpus(bundle, corpus)
        parsed, alive = [], []
        real_parse, real_encode = synth_module.parse_document, Model.encode_page

        def parse(data):
            page = real_parse(data)
            parsed.append(weakref.ref(page))
            return page

        def encode(self, page):
            alive.append({i for i, ref in enumerate(parsed) if ref() is not None})
            return real_encode(self, page)

        monkeypatch.setattr(synth_module, "parse_document", parse)
        monkeypatch.setattr(Model, "encode_page", encode)
        report = training_module.evaluate_checkpoint(ckpt, corpus)
        assert len(alive) == 6
        for i, pages in enumerate(alive):
            assert i in pages and pages <= {i - 1, i}, (i, pages)
        model = load_model(ckpt)
        assert report == evaluate_model(model, map(model.encode_page, bundle.pages))

    def test_held_out_pages_encoded_once(self, monkeypatch):
        pages = small_corpus(8)
        encodes: dict[int, int] = {}
        real = Model.encode_page

        def counting(self, page):
            encodes[id(page)] = encodes.get(id(page), 0) + 1
            return real(self, page)

        monkeypatch.setattr(Model, "encode_page", counting)
        tc = TrainConfig(lr=1e-3, warmup_steps=2, epochs=8, batch_size=4, eval_every=2)
        result = train(pages[:6], pages[6:], ModelConfig(seed=0, **SMALL_MODEL), tc)
        assert len(result.metric_log) == 4
        assert [encodes[id(p)] for p in pages] == [1] * 8

    def test_report_describes_kept_parameters(self):
        pages = small_corpus(8)
        tc = TrainConfig(lr=1e-3, warmup_steps=2, epochs=4, batch_size=4, eval_every=1)
        result = train(pages[:6], pages[6:], ModelConfig(seed=0, **SMALL_MODEL), tc)
        model = result.model
        assert result.report == evaluate_model(model, map(model.encode_page, pages[6:]))
        # The best evaluation is not the last one, so the kept parameters were restored.
        f1s = [r["f1"] for r in result.metric_log]
        assert round(result.best_f1, 6) == max(f1s) > f1s[-1]

    def test_no_held_out_pages_no_report(self):
        tc = TrainConfig(lr=1e-3, warmup_steps=1, epochs=1, batch_size=4)
        result = train(small_corpus(4), [], ModelConfig(seed=0, **SMALL_MODEL), tc)
        assert result.report is None and result.best_f1 == 0.0

    def test_unlabeled_held_out_page_rejected_before_training(self, monkeypatch):
        pages = small_corpus(3)
        pages[2].labels = None
        monkeypatch.setattr(Model, "loss_encoded", lambda self, enc: pytest.fail("trained"))
        with pytest.raises(ValueError, match="evaluation corpus must carry gold labels"):
            train(pages[:2], pages[2:], ModelConfig(seed=0, **SMALL_MODEL), TrainConfig())

    def test_ablation_needs_held_out_pages(self):
        with pytest.raises(ValueError, match="held-out pages"):
            ablate(small_corpus(2), [], ModelConfig(seed=0, **SMALL_MODEL), TrainConfig(), "components")

    def test_ablation_checks_every_config_before_the_first_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training_module, "train", lambda *args: calls.append(args))
        pages = small_corpus(3)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ablate(pages[:2], pages[2:], ModelConfig(seed=0, **SMALL_MODEL), TrainConfig(), "radius", seeds=(0, -1))
        assert calls == []

    @pytest.mark.parametrize(
        "axis, runs",
        [
            ("components", [
                ("full", {}),
                ("w/o Coarse-grained Encoder", {"coarse_layers": 0}),
                ("w/o Common Sense Enhancement", {"commonsense_k": 0}),
                ("w/o Aggregation with Cross-grained Edges", {"use_cross_grained": False}),
            ]),
            ("coarse_layers", [(f"M={m}", {"coarse_layers": m}) for m in range(6)]),
            ("radius", [(f"r={r}", {"radius": float(r)}) for r in (5, 10, 30, 50, 100)]),
        ],
    )
    def test_ablation_table_rows_and_configs(self, monkeypatch, axis, runs):
        assert list(training_module.ABLATIONS) == ["components", "coarse_layers", "radius"]
        seen = []

        def fake_train(train_pages, eval_pages, model_cfg, train_cfg):
            seen.append((model_cfg, train_cfg))
            return TrainResult(model=None, report=EvalReport(0.5, 0.25, 0.75, {}))

        monkeypatch.setattr(training_module, "train", fake_train)
        base, tc = ModelConfig(seed=9, **SMALL_MODEL), TrainConfig(seed=9)
        pages = small_corpus(3)
        rows = ablate(pages[:2], pages[2:], base, tc, axis, seeds=(0, 1))
        assert [(row["run"], row["seed"]) for row in rows] == [(name, s) for name, _ in runs for s in (0, 1)]
        assert rows[0] == {"run": runs[0][0], "seed": 0, "f1": 0.75, "precision": 0.5, "recall": 0.25}
        want = [(replace(base, **over, seed=s), replace(tc, seed=s)) for _, over in runs for s in (0, 1)]
        assert seen == want


class TestHelpers:
    def test_split_corpus(self):
        pages = list(range(20))
        tr, ev = split_corpus(pages, 0.1)
        assert len(tr) == 18 and len(ev) == 2
        assert tr + ev == pages

    def test_split_corpus_bounds(self):
        with pytest.raises(ValueError):
            split_corpus([1], 0.5)

    def test_seed_averages(self):
        rows = [
            {"run": "a", "seed": 0, "f1": 0.5},
            {"run": "a", "seed": 1, "f1": 0.7},
            {"run": "b", "seed": 0, "f1": 1.0},
        ]
        assert seed_averages(rows) == {"a": pytest.approx(0.6), "b": 1.0}

    def test_ablation_csv_header(self, tmp_path):
        path = str(tmp_path / "table.csv")
        write_ablation_csv(
            [{"run": "full", "seed": 0, "f1": 0.9, "precision": 0.9, "recall": 0.9}], path
        )
        first = open(path).readline().strip()
        assert first == "run,seed,f1,precision,recall"

    def test_config_file_loading(self, tmp_path):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump({"model": {"d": 24, "heads": 4}, "train": {"lr": 3e-4, "epochs": 2}}, fh)
        mc, tc = load_config_file(path)
        assert mc.d == 24 and tc.lr == 3e-4
        with open(path, "w") as fh:
            json.dump({"optimizer": {}}, fh)
        with pytest.raises(ValueError, match="unknown config sections"):
            load_config_file(path)

    def test_retired_train_keys_load_only_when_null(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 3, "total_steps": None, "grad_clip": None}}))
        assert load_config_file(str(path))[1] == TrainConfig(epochs=3)
        for key, value in (("total_steps", 100), ("grad_clip", 1.0), ("grad_clip", False)):
            path.write_text(json.dumps({"train": {key: value}}))
            with pytest.raises(ValueError, match=f"retired train config field '{key}' must be None"):
                load_config_file(str(path))

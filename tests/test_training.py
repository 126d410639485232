import json
import os
import struct

import numpy as np
import pytest

from docgrain.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from docgrain.model import Model, ModelConfig, load_model
from docgrain.optim import Adam
from docgrain.synth import SynthParams, generate_page, probe_page
from docgrain.tensor import Tensor
from docgrain.training import (
    TrainConfig,
    evaluate_model,
    load_config_file,
    lr_schedule,
    seed_averages,
    split_corpus,
    train,
    write_ablation_csv,
)
from docgrain.vocab import build_vocab

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
        opt = Adam({"p": p}, lr=1e-2, weight_decay=0.0)
        before = p.data.copy()
        opt.step()
        assert abs(before[0] - p.data[0]) == pytest.approx(1e-2, rel=1e-6)

    def test_zero_grad_zero_decay_unchanged(self):
        p = Tensor([2.0], requires_grad=True)
        p.grad = np.zeros(1)
        opt = Adam({"p": p}, lr=1e-2, weight_decay=0.0)
        opt.step()
        assert p.data[0] == 2.0

    def test_weight_decay_decoupled(self):
        p = Tensor([2.0], requires_grad=True)
        p.grad = np.zeros(1)
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.01)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(0)
            p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            opt = Adam({"p": p}, lr=1e-3)
            for _ in range(5):
                p.grad = rng.normal(size=(4, 4))
                opt.step()
            return p.data.tobytes()

        assert run() == run()


class TestCheckpointFormat:
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
        # Older checkpoints store five retired fields, always at these values.
        config["model"] |= {
            "activation": "gelu",
            "dropout": dropout,
            "ffn_width": None,
            "commonsense_dim": None,
            "aggregation": "sum",
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

    def test_magic_prefix(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, {"t": np.zeros(2)}, {})
        with open(path, "rb") as fh:
            assert fh.read(5) == b"MMLY1"

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


class TestTrainLoop:
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
        report = evaluate_model(model, pages)
        assert report.micro_f1 == 1.0
        model.predict_word_tags = real

    def test_label_outside_tag_set_rejected(self):
        pages = small_corpus(2)
        pages[0].labels[0] = "B-BOGUS"
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        model = Model(cfg, build_vocab(pages, SMALL_MODEL["vocab_size"]))
        with pytest.raises(ValueError, match="not covered"):
            evaluate_model(model, pages)

    def test_checkpoint_roundtrip_reproduces_metrics(self, tmp_path):
        pages = small_corpus(8)
        cfg = ModelConfig(seed=0, **SMALL_MODEL)
        tc = TrainConfig(lr=1e-3, warmup_steps=2, epochs=2, batch_size=4, eval_every=2)
        result = train(pages[:6], pages[6:], cfg, tc)
        before = evaluate_model(result.model, pages[6:])
        path = str(tmp_path / "m.ckpt")
        result.model.save(path)
        after = evaluate_model(load_model(path), pages[6:])
        assert after == before


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

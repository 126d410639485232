import json
import os
import shutil
from pathlib import Path

import pytest

from docgrain.checkpoint import load_checkpoint, save_checkpoint
from docgrain.cli import run
from docgrain.render import count_region_rects

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
THREE_BLOCKS = str(FIXTURES / "three_blocks.json")
RADIUS_PAGE = str(FIXTURES / "radius_page.json")


class TestBuildGraph:
    def test_emits_schema(self, tmp_path):
        out = str(tmp_path / "graph.json")
        assert run(["build-graph", "--input", THREE_BLOCKS, "--radius", "10", "--grid", "2x2", "--output", out]) == 0
        data = json.load(open(out))
        assert set(data) == {"regions", "patch_grid", "text_parent", "visual_parent"}
        assert data["patch_grid"] == [2, 2]
        assert len(data["text_parent"]) == 3
        assert len(data["visual_parent"]) == 4
        assert [r["segments"] for r in data["regions"]] == [[0, 1], [2]]

    def test_default_radius_is_30(self, tmp_path):
        default_out = str(tmp_path / "default.json")
        explicit_out = str(tmp_path / "r30.json")
        narrow_out = str(tmp_path / "r4.json")
        assert run(["build-graph", "--input", THREE_BLOCKS, "--output", default_out]) == 0
        assert run(["build-graph", "--input", THREE_BLOCKS, "--radius", "30", "--output", explicit_out]) == 0
        assert run(["build-graph", "--input", THREE_BLOCKS, "--radius", "4", "--output", narrow_out]) == 0
        assert open(default_out).read() == open(explicit_out).read()
        assert open(default_out).read() != open(narrow_out).read()

    def test_missing_input_is_validation_error(self, tmp_path):
        code = run(["build-graph", "--input", str(tmp_path / "nope.json"), "--output", str(tmp_path / "g.json")])
        assert code == 1

    def test_bad_grid_flag(self, tmp_path):
        code = run(["build-graph", "--input", THREE_BLOCKS, "--grid", "7", "--output", str(tmp_path / "g.json")])
        assert code == 1

    def test_directory_input_is_validation_error(self, tmp_path, capsys):
        assert run(["build-graph", "--input", str(tmp_path), "--output", str(tmp_path / "g.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_radius_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        # A negative exponent literal is a value, not an option, in either form.
        for argv in (["--radius", "nan"], ["--radius", "-1e-3"], ["--radius=-1e-3"]):
            assert run(["build-graph", "--input", THREE_BLOCKS, *argv, "--output", str(out)]) == 1
            assert capsys.readouterr().err.startswith("error: radius")
            assert not out.exists()


class TestRender:
    def test_three_block_fixture_has_two_regions_at_r10(self, tmp_path):
        out = str(tmp_path / "out.svg")
        assert run(["render", "--input", THREE_BLOCKS, "--radius", "10", "--svg-out", out]) == 0
        svg = open(out).read()
        assert count_region_rects(svg) == 2
        assert svg.count('class="segment"') == 3

    def test_golden_files_match(self, tmp_path):
        for r in (5, 100):
            out = str(tmp_path / f"r{r}.svg")
            assert run(["render", "--input", RADIUS_PAGE, "--radius", str(r), "--svg-out", out]) == 0
            got = open(out).read()
            want = open(GOLDEN / f"radius_page_r{r}.svg").read()
            assert got == want, f"golden mismatch at r={r}"

    def test_fewer_regions_at_large_radius(self):
        small = open(GOLDEN / "radius_page_r5.svg").read()
        large = open(GOLDEN / "radius_page_r100.svg").read()
        assert small != large
        assert count_region_rects(large) < count_region_rects(small)

    def test_rerun_is_identical(self, tmp_path):
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        run(["render", "--input", RADIUS_PAGE, "--radius", "30", "--svg-out", a])
        run(["render", "--input", RADIUS_PAGE, "--radius", "30", "--svg-out", b])
        assert open(a).read() == open(b).read()


class TestSynthCli:
    def test_writes_corpus(self, tmp_path):
        out = str(tmp_path / "corpus")
        assert run(["synth", "--seed", "5", "--count", "4", "--out", out]) == 0
        files = sorted(os.listdir(out))
        assert files == ["doc_00000.json", "doc_00001.json", "doc_00002.json", "doc_00003.json", "manifest.json"]

    def test_rerun_overwrites_identically(self, tmp_path):
        out = str(tmp_path / "corpus")
        run(["synth", "--seed", "5", "--count", "2", "--out", out])
        first = open(os.path.join(out, "doc_00000.json")).read()
        run(["synth", "--seed", "5", "--count", "2", "--out", out])
        assert open(os.path.join(out, "doc_00000.json")).read() == first

    def test_negative_seed_is_named(self, tmp_path, capsys):
        assert run(["synth", "--seed", "-1", "--count", "1", "--out", str(tmp_path / "corpus")]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "corpus").exists()

    def test_bad_count_leaves_no_directory(self, tmp_path, capsys):
        assert run(["synth", "--seed", "1", "--count", "0", "--out", str(tmp_path / "a" / "corpus")]) == 1
        assert capsys.readouterr().err == "error: count must be >= 1, got 0\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("out", ["{file}", "{file}/corpus", "{file}/a/corpus"], ids=["file", "under-file", "deep"])
    def test_bad_out_fails_before_synthesis(self, tmp_path, monkeypatch, capsys, out):
        import docgrain.cli as cli

        monkeypatch.setattr(cli, "synth_generate", lambda *args, **kwargs: pytest.fail("synthesized before the --out check"))
        file = tmp_path / "notes.txt"
        file.write_text("kept")
        assert run(["synth", "--seed", "5", "--count", "4", "--out", out.format(file=file)]) == 1
        assert capsys.readouterr().err == f"error: --out: '{file}' is not a directory\n"
        assert os.listdir(tmp_path) == ["notes.txt"] and file.read_text() == "kept"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(["render", "--input", THREE_BLOCKS, "--svg-out", "x.svg", "--zoom", "3"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower() or "error" in err.lower()

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "command", ["build-graph", "render", "synth", "train", "eval", "ablate", "gradcheck"]
    )
    def test_subcommand_help_documents_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out
        if command != "eval":  # eval's flags are all required paths
            assert "default" in out

    def test_internal_error_exits_two(self, monkeypatch):
        import docgrain.cli as cli

        def boom(args):
            raise KeyError("unexpected")

        monkeypatch.setitem(cli._COMMANDS, "render", boom)
        assert run(["render", "--input", THREE_BLOCKS, "--svg-out", "x.svg"]) == 2


class TestConfigErrors:
    @pytest.fixture(scope="class")
    @staticmethod
    def corpus(tmp_path_factory):
        out = str(tmp_path_factory.mktemp("config_errors") / "corpus")
        assert run(["synth", "--seed", "3", "--count", "4", "--out", out]) == 0
        return out

    @pytest.mark.parametrize(
        "config",
        [
            {"model": {"grid": 5}},
            {"model": {"d": "64"}},
            {"model": {"heads": 0}},
            {"model": {"grid": [2]}},
            {"model": 5},
            {"train": {"lr": "x"}},
            {"train": {"epochs": 1.5}},
            {"train": {"grad_clip": "a"}},
            {"model": {"rel_buckets": 5}},
            {"model": {"rel_max_distance": 8}},
            {"model": {"radius": -1}},
            {"model": {"min_pts": -1}},
            {"model": {"activation": "relu"}},
            {"model": {"dropout": 0.1}},
            {"model": {"dropout": False}},
            {"model": {"ffn_width": 128}},
            {"model": {"commonsense_dim": 32}},
            {"model": {"aggregation": "mean"}},
            {"model": {"commonsense_k": 9}},
            {"train": {"total_steps": 100}},
            {"train": {"grad_clip": 1.0}},
            *({"train": {key: value, "epochs": 1}} for key in ("lr", "weight_decay")
              for value in (float("nan"), float("inf"), float("-inf"))),
            {"model": {"radius": 10**400}},
            *({"train": {key: 10**400, "epochs": 1}} for key in ("lr", "weight_decay")),
        ],
        ids=[
            "grid-int", "d-string", "heads-zero", "grid-one", "model-int", "lr-string", "epochs-float", "clip-string",
            "buckets-odd", "max-distance-short", "radius-negative", "min-pts-negative",
            "retired-relu", "retired-dropout", "retired-dropout-bool", "retired-ffn-width", "retired-cs-dim",
            "retired-mean", "cs-k-nine", "retired-total-steps", "retired-clip",
            "lr-nan", "lr-inf", "lr-minus-inf", "decay-nan", "decay-inf", "decay-minus-inf",
            "radius-huge-int", "lr-huge-int", "decay-huge-int",
        ],
    )
    def test_malformed_config_is_validation_error(self, corpus, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run(["train", "--corpus", corpus, "--config", str(path), "--out", str(tmp_path / "m.ckpt")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("config", [{"model": {"seed": -1}}, {"train": {"seed": -2}}], ids=["model", "train"])
    def test_negative_seed_fails_before_the_corpus(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        missing = str(tmp_path / "no-corpus")
        assert run(["train", "--corpus", missing, "--config", str(path), "--out", str(tmp_path / "m.ckpt")]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

    def test_vocab_size_below_the_special_tokens_fails_before_the_corpus(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"vocab_size": 1}}))
        missing = str(tmp_path / "no-corpus")
        assert run(["train", "--corpus", missing, "--config", str(path), "--out", str(tmp_path / "m.ckpt")]) == 1
        assert capsys.readouterr().err.startswith("error: vocab_size must be at least 2")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["train", "--corpus", "{corpus}", "--out", "{missing}/m.ckpt"], "--out: '{missing}' is not an existing directory"),
            (["train", "--corpus", "{corpus}", "--out", "{tmp}/m.ckpt", "--log-out", "{missing}/log.jsonl"],
             "--log-out: '{missing}' is not an existing directory"),
            (["ablate", "--corpus", "{corpus}", "--axis", "radius", "--out", "{missing}/a.csv"],
             "--out: '{missing}' is not an existing directory"),
            (["eval", "--corpus", "{corpus}", "--checkpoint", "{tmp}/m.ckpt", "--dump-intermediates", "{missing}/d.json"],
             "--dump-intermediates: '{missing}' is not an existing directory"),
            (["train", "--corpus", "{corpus}", "--out", "{tmp}"], "--out: '{tmp}' is a directory"),
            (["ablate", "--corpus", "{corpus}", "--axis", "radius", "--out", "{tmp}"], "--out: '{tmp}' is a directory"),
            (["build-graph", "--input", THREE_BLOCKS, "--output", "{tmp}"], "--output: '{tmp}' is a directory"),
            (["render", "--input", THREE_BLOCKS, "--svg-out", "{missing}/x.svg"],
             "--svg-out: '{missing}' is not an existing directory"),
        ],
        ids=["train-out", "train-log-out", "ablate-out", "eval-dump", "train-out-is-dir", "ablate-out-is-dir",
             "build-graph-output-is-dir", "render-svg-out"],
    )
    def test_bad_output_path_fails_before_the_corpus(self, corpus, tmp_path, monkeypatch, capsys, argv, error):
        import docgrain.cli as cli

        for name in ("iter_corpus", "load_corpus", "load_document", "load_model", "train", "ablate"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("ran past the output check"))
        paths = dict(missing=tmp_path / "nodir", tmp=tmp_path, corpus=corpus)
        assert run([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {error.format(**paths)}\n"
        assert os.listdir(tmp_path) == []

    def test_out_of_memory_is_validation_error(self, corpus, tmp_path, monkeypatch, capsys):
        import docgrain.cli as cli

        def oom(*args, **kwargs):
            raise MemoryError("Unable to allocate 477. GiB for an array")

        monkeypatch.setattr(cli, "train", oom)
        assert run(["train", "--corpus", corpus, "--out", str(tmp_path / "m.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "477. GiB" in err


class TestTrainEvalCli:
    @pytest.fixture(scope="class")
    @staticmethod
    def trained(tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_train")
        corpus = str(root / "corpus")
        ckpt = str(root / "model.ckpt")
        cfg_path = str(root / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(
                {
                    "model": {"d": 12, "heads": 2, "fine_layers": 1, "coarse_layers": 1,
                              "vocab_size": 512, "max_len": 256, "grid": [2, 2], "commonsense_k": 4},
                    "train": {"lr": 1e-3, "warmup_steps": 4, "epochs": 2, "batch_size": 4, "eval_every": 2},
                },
                fh,
            )
        assert run(["synth", "--seed", "9", "--count", "12", "--out", corpus]) == 0
        log = str(root / "log.jsonl")
        assert run(["train", "--corpus", corpus, "--config", cfg_path, "--out", ckpt, "--log-out", log]) == 0
        return root, corpus, ckpt, log

    def test_train_writes_checkpoint_and_log(self, trained):
        root, corpus, ckpt, log = trained
        assert os.path.exists(ckpt)
        records = [json.loads(line) for line in open(log)]
        assert records and set(records[0]) == {"step", "loss", "f1", "lr"}

    def test_eval_runs_and_dumps_intermediates(self, trained, capsys, tmp_path):
        root, corpus, ckpt, log = trained
        dump = str(tmp_path / "stages.json")
        assert run(["eval", "--checkpoint", ckpt, "--corpus", corpus, "--dump-intermediates", dump]) == 0
        out = capsys.readouterr().out
        assert "micro:" in out
        stages = json.load(open(dump))
        assert "fine_encoded" in stages and "coarse_encoded" in stages
        for info in stages.values():
            assert set(info) == {"shape", "norm"}

    def test_eval_dump_loads_checkpoint_and_corpus_once(self, trained, tmp_path, monkeypatch):
        """One checkpoint load and one pass over the corpus: the stream,
        never the whole-corpus list."""
        import docgrain.checkpoint as checkpoint
        import docgrain.cli as cli
        import docgrain.synth as synth

        root, corpus, ckpt, log = trained
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(checkpoint, "load_checkpoint", counted("checkpoint", checkpoint.load_checkpoint))
        for module in (cli, synth):
            for name in ("iter_corpus", "load_corpus"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        dump = str(tmp_path / "stages.json")
        assert run(["eval", "--checkpoint", ckpt, "--corpus", corpus, "--dump-intermediates", dump]) == 0
        assert sorted(calls) == ["checkpoint", "iter_corpus"]

    def test_eval_malformed_late_document_is_validation_error(self, trained, tmp_path, capsys):
        """A bad page after pages that were already scored still fails the
        run with the parser's message."""
        root, corpus, ckpt, log = trained
        shutil.copytree(corpus, tmp_path / "corpus")
        names = sorted(n for n in os.listdir(tmp_path / "corpus") if n.startswith("doc_"))
        (tmp_path / "corpus" / names[-1]).write_text('{"width": 10}')
        assert run(["eval", "--checkpoint", ckpt, "--corpus", str(tmp_path / "corpus")]) == 1
        assert capsys.readouterr().err == "error: missing field 'height'\n"

    def test_eval_bad_image_is_validation_error(self, trained, tmp_path, capsys):
        root, corpus, ckpt, log = trained
        shutil.copytree(corpus, tmp_path / "corpus")
        image = tmp_path / "zero.ppm"
        image.write_bytes(b"P6 1 1 0\n" + bytes(3))  # maxval 0 once read as NaN pixels
        page = tmp_path / "corpus" / "doc_00000.json"
        page.write_text(json.dumps(json.loads(page.read_text()) | {"image": str(image)}))
        assert run(["eval", "--checkpoint", ckpt, "--corpus", str(tmp_path / "corpus")]) == 1
        assert "maxval 0" in capsys.readouterr().err

    def test_eval_relative_image_beside_documents(self, trained, tmp_path, monkeypatch, capsys):
        root, corpus, ckpt, log = trained
        shutil.copytree(corpus, tmp_path / "corpus")
        (tmp_path / "corpus" / "img.ppm").write_bytes(b"P6 2 2 255\n" + bytes(range(12)))
        page = tmp_path / "corpus" / "doc_00000.json"
        page.write_text(json.dumps(json.loads(page.read_text()) | {"image": "img.ppm"}))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run(["eval", "--checkpoint", ckpt, "--corpus", str(tmp_path / "corpus")]) == 0
        assert "micro:" in capsys.readouterr().out

    def test_eval_missing_checkpoint(self, tmp_path):
        assert run(["eval", "--checkpoint", str(tmp_path / "no.ckpt"), "--corpus", str(tmp_path)]) == 1

    def test_eval_directory_checkpoint(self, trained, tmp_path, capsys):
        root, corpus, ckpt, log = trained
        assert run(["eval", "--checkpoint", str(tmp_path), "--corpus", corpus]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "content",
        [
            b"MMLY1\x00",
            b"MMLY1\x0e\x00\x00\x00" + b'{"config": {}}',
            b"MMLY1\x06\x00\x00\x00" + b"[1, 2]",
        ],
        ids=["six-bytes", "no-tensors", "list-header"],
    )
    def test_eval_malformed_checkpoint_is_validation_error(self, trained, tmp_path, capsys, content):
        root, corpus, ckpt, log = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(content)
        assert run(["eval", "--checkpoint", str(bad), "--corpus", corpus]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err


    def test_eval_non_string_label_type_is_validation_error(self, trained, tmp_path, capsys):
        root, corpus, ckpt, log = trained
        tensors, config = load_checkpoint(ckpt)
        config["label_types"][0] = []  # once an internal error (exit 2) when scoring
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(str(bad), tensors, config)
        assert run(["eval", "--checkpoint", str(bad), "--corpus", corpus]) == 1
        assert "entity types must be strings" in capsys.readouterr().err

    def test_eval_non_string_vocab_token_is_validation_error(self, trained, tmp_path, capsys):
        root, corpus, ckpt, log = trained
        tensors, config = load_checkpoint(ckpt)
        config["vocab"][2] = 7  # once loaded silently, the piece then read as [UNK]
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(str(bad), tensors, config)
        assert run(["eval", "--checkpoint", str(bad), "--corpus", corpus]) == 1
        assert "vocabulary must be a list of strings" in capsys.readouterr().err


class TestGradcheckCli:
    def test_prints_small_error_and_exits_zero(self, capsys):
        assert run(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        value = float(out.strip().rsplit(" ", 1)[1])
        assert value < 1e-4

    def test_nan_error_fails(self, monkeypatch, capsys):
        import docgrain.cli as cli

        monkeypatch.setattr(cli, "finite_difference_check", lambda model, page: (float("nan"), {}))
        assert run(["gradcheck"]) == 1
        assert "gradient check FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1e-4", "-5E+2", "-inf", "-Infinity", "-nan"])
    def test_threshold_must_be_finite_and_positive(self, capsys, threshold):
        for argv in ([f"--threshold={threshold}"], ["--threshold", threshold]):
            assert run(["gradcheck", *argv]) == 1
            assert capsys.readouterr().err.startswith("error: --threshold must be a finite number > 0")

import json
import os
import re
import shutil
from collections import Counter
from pathlib import Path

import pytest

from docgrain.clustering import detect_salient_regions
from docgrain.document import parse_document, serialize_document
from docgrain.labeling import bio_decode
from docgrain.synth import (
    REFERENCE_CLUSTERING,
    CorpusBundle,
    SynthParams,
    generate_page,
    iter_corpus,
    load_corpus,
    probe_page,
    save_corpus,
    synth_generate,
)

from .reference_impls import document_to_json


class TestGeneratorBasics:
    def test_same_seed_bitwise_identical(self):
        a = synth_generate(3, 12, SynthParams())
        b = synth_generate(3, 12, SynthParams())
        for pa, pb in zip(a.pages, b.pages):
            assert document_to_json(pa) == document_to_json(pb)

    def test_different_seeds_differ(self):
        a = synth_generate(1, 4, SynthParams())
        b = synth_generate(2, 4, SynthParams())
        assert any(document_to_json(x) != document_to_json(y) for x, y in zip(a.pages, b.pages))

    def test_pages_pass_parse_validation(self):
        for variant in ("plain", "region_cue"):
            bundle = synth_generate(5, 20, SynthParams(variant=variant))
            for page in bundle.pages:
                reparsed = parse_document(document_to_json(page))
                assert reparsed.n_words == page.n_words

    def test_count_validated(self):
        with pytest.raises(ValueError, match="count"):
            synth_generate(0, 0)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_page(-1, 0, SynthParams())

    def test_variant_validated(self):
        with pytest.raises(ValueError, match="unknown variant"):
            SynthParams(variant="weird")

    def test_probe_page_fixed_shape(self):
        page = probe_page()
        assert page.n_words == 6
        assert page.n_segments == 3
        assert len(page.labels) == 6


def entity_counts(pages) -> Counter:
    return Counter(e.type for page in pages for e in bio_decode(page.labels))


class TestBookkeeping:
    def test_all_label_types_appear(self):
        bundle = synth_generate(1, 50, SynthParams())
        assert set(entity_counts(bundle.pages)) == {"HEADER", "QUESTION", "ANSWER"}
        assert Counter(tag for page in bundle.pages for tag in page.labels)["O"] > 0


class TestRegionCue:
    def test_labels_match_region_sizes(self):
        params = SynthParams(variant="region_cue")
        for idx in range(20):
            page = generate_page(13, idx, params)
            regions = detect_salient_regions(page.segments, REFERENCE_CLUSTERING)
            size_of_segment = {}
            for r in regions:
                for s in r.member_segment_ids:
                    size_of_segment[s] = len(r.member_segment_ids)
            cue_words = [
                (w, page.labels[i])
                for i, w in enumerate(page.words)
                if page.labels[i].endswith(("ANSWER", "QUESTION")) and w.text.islower()
            ]
            for word, label in cue_words:
                etype = label[2:]
                size = size_of_segment[word.segment_id]
                if etype == "ANSWER" and word.text in ("ref", "code", "entry", "unit", "node", "item"):
                    assert size >= 3
                if etype == "QUESTION" and word.text in ("ref", "code", "entry", "unit", "node", "item"):
                    assert size < 3

    def test_both_classes_present_across_corpus(self):
        counts = entity_counts(synth_generate(2, 30, SynthParams(variant="region_cue")).pages)
        assert counts["ANSWER"] > 20
        assert counts["QUESTION"] > 20


class TestCorpusIo:
    def test_roundtrip(self, tmp_path):
        out = str(tmp_path / "corpus")
        bundle = synth_generate(4, 6, SynthParams())
        save_corpus(bundle, out)
        pages = load_corpus(out)
        assert len(pages) == 6
        for orig, loaded in zip(bundle.pages, pages):
            assert document_to_json(orig) == document_to_json(loaded)
        with open(tmp_path / "corpus" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 4 and manifest["count"] == 6
        assert manifest["params"]["variant"] == "plain"

    def test_resave_smaller_corpus_removes_stale_documents(self, tmp_path):
        out = str(tmp_path / "corpus")
        save_corpus(synth_generate(4, 6, SynthParams()), out)
        (tmp_path / "corpus" / "notes.txt").write_text("kept")
        smaller = synth_generate(5, 3, SynthParams())
        save_corpus(smaller, out)
        pages = load_corpus(out)
        assert [document_to_json(p) for p in pages] == [document_to_json(p) for p in smaller.pages]
        assert (tmp_path / "corpus" / "notes.txt").read_text() == "kept"

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no documents"):
            load_corpus(str(tmp_path))

    def test_stream_of_empty_dir_fails_at_the_call(self, tmp_path):
        with pytest.raises(ValueError, match=f"^no documents found in {re.escape(str(tmp_path))}$"):
            iter_corpus(str(tmp_path))

    def test_list_is_the_stream(self, tmp_path):
        for i, fixture in enumerate(("radius_page.json", "three_blocks.json")):
            shutil.copy(Path(__file__).parent / "fixtures" / fixture, tmp_path / f"doc_{i:05d}.json")
        pages = load_corpus(str(tmp_path))
        assert len(pages) == 2 and repr(pages) == repr(list(iter_corpus(str(tmp_path))))

    def test_page_that_fails_to_encode_leaves_no_file(self, tmp_path):
        bundle = synth_generate(4, 3, SynthParams())
        bundle.pages[1].labels[0] = {"O"}
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            save_corpus(bundle, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["doc_00000.json", "manifest.json"]
        assert [document_to_json(p) for p in load_corpus(str(tmp_path))] == [document_to_json(bundle.pages[0])]


def _word(text: str, bbox: list[float], segment_id: int) -> dict:
    return {"text": text, "bbox": bbox, "segment_id": segment_id}


class TestPageBytes:
    """Each ``doc_*.json`` is byte for byte what the pure-Python encoder
    (the one ``json.dump`` runs) makes of the page."""

    @staticmethod
    def check(bundle: CorpusBundle, out) -> None:
        save_corpus(bundle, str(out))
        encoder = json.JSONEncoder(separators=(",", ":"))
        for i, page in enumerate(bundle.pages):
            expected = "".join(encoder.iterencode(serialize_document(page)))
            assert (out / f"doc_{i:05d}.json").read_bytes() == expected.encode("ascii")
        loaded = load_corpus(str(out))
        assert [serialize_document(p) for p in loaded] == [serialize_document(p) for p in bundle.pages]

    @pytest.mark.parametrize(
        "params",
        [
            SynthParams(),
            SynthParams(page_height=2600, min_kv_pairs=12, max_kv_pairs=24, max_list_blocks=6, max_noise_lines=6),
            SynthParams(variant="region_cue"),
        ],
        ids=["forms", "dense", "region_cue"],
    )
    def test_generated_corpus(self, tmp_path, params):
        self.check(synth_generate(8, 6, params), tmp_path)

    def test_non_ascii_text_and_long_floats(self, tmp_path):
        a = [0.1 + 0.2, 1 / 3, 12.345678901234567, 2 / 3 * 100]
        b = [1e-7 + 13, 1 / 7, 1e16 / 1e13, 2**0.5 * 50]
        page = parse_document(
            {
                "width": 1200,
                "height": 100,
                "words": [_word("Café", a, 0), _word("ſept", b, 0), _word("naïve—Ω", [50, 60, 70.000000000001, 80], 1)],
                "segments": [
                    {"text": "Café ſept", "bbox": [a[0], b[1], b[2], b[3]], "word_ids": [0, 1]},
                    {"text": "naïve—Ω", "bbox": [50, 60, 70.000000000001, 80], "word_ids": [2]},
                ],
                "labels": ["B-QUESTION", "I-QUESTION", "B-ANSWER"],
            }
        )
        self.check(CorpusBundle([page], 0, SynthParams()), tmp_path)
        written = (tmp_path / "doc_00000.json").read_bytes()
        assert b"Caf\\u00e9" in written and b"\\u017fept" in written and b"0.30000000000000004" in written

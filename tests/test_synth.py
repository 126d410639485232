import json
from collections import Counter

import pytest

from docgrain.clustering import detect_salient_regions
from docgrain.document import document_to_json, parse_document
from docgrain.labeling import bio_decode
from docgrain.synth import (
    REFERENCE_CLUSTERING,
    SynthParams,
    generate_page,
    load_corpus,
    probe_page,
    save_corpus,
    synth_generate,
)


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

    def test_variant_validated(self):
        with pytest.raises(ValueError, match="unknown variant"):
            SynthParams(variant="weird")

    def test_probe_page_fixed_shape(self):
        page = probe_page()
        assert page.n_words == 6
        assert page.n_segments == 3
        assert len(page.labels) == 6


class TestBookkeeping:
    def test_ledger_matches_independent_recount(self):
        bundle = synth_generate(0, 100, SynthParams())
        tags = Counter()
        entities = Counter()
        for page in bundle.pages:
            tags.update(page.labels)
            entities.update(e.type for e in bio_decode(page.labels))
        assert tags == bundle.tag_counts
        assert entities == bundle.entity_counts

    def test_all_label_types_appear(self):
        bundle = synth_generate(1, 50, SynthParams())
        types = {e for e in bundle.entity_counts}
        assert types == {"HEADER", "QUESTION", "ANSWER"}
        assert bundle.tag_counts["O"] > 0


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
        bundle = synth_generate(2, 30, SynthParams(variant="region_cue"))
        assert bundle.entity_counts["ANSWER"] > 20
        assert bundle.entity_counts["QUESTION"] > 20


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

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no documents"):
            load_corpus(str(tmp_path))

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgrain.document import (
    BBox,
    DocumentParseError,
    boundary_distance,
    iou,
    load_document,
    normalize_box,
    parse_document,
    serialize_document,
    union_box,
)
from docgrain.synth import SynthParams, synth_generate

from .reference_impls import document_to_json, parse_document_reference, parse_outcome


def box(x0, y0, x1, y1):
    return BBox(float(x0), float(y0), float(x1), float(y1))


boxes_st = st.builds(
    lambda x0, y0, w, h: BBox(x0, y0, x0 + w, y0 + h),
    st.floats(0, 500),
    st.floats(0, 500),
    st.floats(0, 200),
    st.floats(0, 200),
)


class TestBBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BBox(5, 0, 4, 10)
        with pytest.raises(ValueError):
            BBox(0, 10, 4, 9)

    def test_degenerate_allowed(self):
        b = box(3, 3, 3, 3)
        assert b.area == 0


class TestIou:
    def test_identical(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        assert iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(50 / 150, abs=1e-12)

    def test_degenerate_pair(self):
        assert iou(box(0, 0, 0, 0), box(5, 5, 5, 5)) == 0.0

    @given(boxes_st, boxes_st)
    def test_symmetric_and_bounded(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


class TestBoundaryDistance:
    def test_overlapping_is_zero(self):
        assert boundary_distance(box(0, 0, 10, 10), box(5, 5, 15, 15)) == 0.0

    def test_three_four_five(self):
        assert boundary_distance(box(0, 0, 10, 10), box(13, 14, 20, 20)) == pytest.approx(5.0, abs=0)

    def test_horizontal_gap_only(self):
        assert boundary_distance(box(0, 0, 10, 10), box(12, 0, 20, 10)) == pytest.approx(2.0, abs=0)

    def test_touching_is_zero(self):
        assert boundary_distance(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0

    @given(boxes_st, boxes_st)
    def test_symmetric(self, a, b):
        assert boundary_distance(a, b) == boundary_distance(b, a)

    @given(boxes_st, boxes_st)
    def test_zero_iff_axis_gaps_zero(self, a, b):
        dx = max(max(a.x0, b.x0) - min(a.x1, b.x1), 0.0)
        dy = max(max(a.y0, b.y0) - min(a.y1, b.y1), 0.0)
        assert (boundary_distance(a, b) == 0.0) == (dx == 0.0 and dy == 0.0)


class TestUnionBox:
    def test_envelope(self):
        assert union_box([box(0, 0, 2, 2), box(5, 1, 7, 3)]) == box(0, 0, 7, 3)

    def test_single(self):
        b = box(1, 2, 3, 4)
        assert union_box([b]) == b

    def test_containment(self):
        assert union_box([box(1, 1, 2, 2), box(0, 0, 3, 3)]) == box(0, 0, 3, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty region"):
            union_box([])

    @given(st.lists(boxes_st, min_size=1, max_size=8))
    def test_idempotent_order_independent_contains_all(self, bs):
        u = union_box(bs)
        assert union_box(list(reversed(bs))) == u
        assert union_box([u]) == u
        for b in bs:
            assert u.x0 <= b.x0 and u.y0 <= b.y0 and u.x1 >= b.x1 and u.y1 >= b.y1


class TestNormalizeBox:
    def test_full_page(self):
        assert normalize_box(box(0, 0, 640, 480), 640, 480) == box(0, 0, 1000, 1000)

    def test_origin(self):
        assert normalize_box(box(0, 0, 0, 0), 640, 480) == box(0, 0, 0, 0)

    def test_linear_scale(self):
        assert normalize_box(box(500, 250, 1500, 750), 2000, 1000) == box(250, 250, 750, 750)

    def test_clamps_out_of_page(self):
        b = normalize_box(box(0, 0, 5000, 5000), 100, 100)
        assert b == box(0, 0, 1000, 1000)

    def test_bad_page_dims(self):
        with pytest.raises(ValueError):
            normalize_box(box(0, 0, 1, 1), 0, 100)

    @given(boxes_st)
    def test_range_and_integrality(self, b):
        n = normalize_box(b, 700, 700)
        for v in n.as_list():
            assert 0 <= v <= 1000
            assert v == math.floor(v)


MINIMAL_DOC = {
    "width": 200,
    "height": 100,
    "words": [
        {"text": "Fax:", "bbox": [10, 10, 38, 24], "segment_id": 0},
        {"text": "123", "bbox": [42, 10, 63, 24], "segment_id": 0},
    ],
    "segments": [{"text": "Fax: 123", "bbox": [10, 10, 63, 24], "word_ids": [0, 1]}],
}


class TestParseDocument:
    def test_minimal_roundtrip(self):
        page = parse_document(json.dumps(MINIMAL_DOC))
        assert page.n_words == 2 and page.n_segments == 1
        again = parse_document(document_to_json(page))
        assert serialize_document(again) == serialize_document(page)

    def test_dangling_segment_id(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["words"][0]["segment_id"] = 7
        with pytest.raises(DocumentParseError, match=r"dangling segment_id at words\[0\]"):
            parse_document(json.dumps(doc))

    def test_empty_page_allowed(self):
        page = parse_document(json.dumps({"width": 10, "height": 10, "words": [], "segments": []}))
        assert page.n_words == 0 and page.n_segments == 0

    def test_empty_segment_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["segments"].append({"text": "", "bbox": [0, 0, 1, 1], "word_ids": []})
        with pytest.raises(DocumentParseError, match=r"empty segment at segments\[1\]"):
            parse_document(json.dumps(doc))

    def test_empty_word_text_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["words"][1]["text"] = "  "
        with pytest.raises(DocumentParseError, match=r"empty text at words\[1\]"):
            parse_document(json.dumps(doc))

    def test_envelope_mismatch_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["segments"][0]["bbox"] = [10, 10, 90, 24]
        with pytest.raises(DocumentParseError, match="deviates from word envelope"):
            parse_document(json.dumps(doc))

    def test_word_not_partitioned(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["segments"][0]["word_ids"] = [0]
        doc["segments"][0]["bbox"] = doc["words"][0]["bbox"]
        with pytest.raises(DocumentParseError, match="do not cover every word"):
            parse_document(json.dumps(doc))

    def test_labels_length_checked(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["labels"] = ["O"]
        with pytest.raises(DocumentParseError, match="labels length"):
            parse_document(json.dumps(doc))

    def test_labels_roundtrip(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["labels"] = ["B-QUESTION", "B-ANSWER"]
        page = parse_document(json.dumps(doc))
        assert page.labels == ["B-QUESTION", "B-ANSWER"]
        assert serialize_document(page)["labels"] == ["B-QUESTION", "B-ANSWER"]

    def test_invalid_json(self):
        with pytest.raises(DocumentParseError, match="invalid JSON"):
            parse_document(b"{nope")

    @pytest.mark.parametrize("blob", [b'{"width": \xff}', b"[" * 100000, b'{"width": ' + b"9" * 5000 + b"}"])
    def test_undecodable_json(self, blob):
        with pytest.raises(DocumentParseError, match="invalid JSON"):
            parse_document(blob)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_non_finite_bbox_rejected(self, value):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["words"][1]["bbox"][2] = value
        with pytest.raises(DocumentParseError, match=r"bbox at words\[1\]"):
            parse_document(json.dumps(doc))

    def test_quoted_coordinates_rejected(self):
        # float() would read every one of these strings
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["words"][1]["bbox"] = ["42", "10", " 63 ", "2.4e1"]
        with pytest.raises(DocumentParseError, match=r"bbox at words\[1\]: coordinates must be numbers"):
            parse_document(json.dumps(doc))

    def test_boolean_coordinate_rejected(self):
        # true would read as 1, which matches this segment's envelope
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["words"][0]["bbox"][0] = True
        doc["segments"][0]["bbox"][0] = 1
        with pytest.raises(DocumentParseError, match=r"bbox at words\[0\]: coordinates must be numbers"):
            parse_document(json.dumps(doc))
        doc["words"][0]["bbox"][0] = 1
        doc["segments"][0]["bbox"][0] = True
        with pytest.raises(DocumentParseError, match=r"bbox at segments\[0\]: coordinates must be numbers"):
            parse_document(doc)

    def test_boolean_page_dimensions_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["width"] = doc["height"] = True
        with pytest.raises(DocumentParseError, match="width/height must be integers"):
            parse_document(json.dumps(doc))

    def test_boolean_ids_rejected(self):
        # two one-word segments, so true would read as the valid id 1
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["segments"] = [
            {"text": "Fax:", "bbox": [10, 10, 38, 24], "word_ids": [0]},
            {"text": "123", "bbox": [42, 10, 63, 24], "word_ids": [1]},
        ]
        doc["words"][1]["segment_id"] = 1
        assert parse_document(json.dumps(doc)).n_segments == 2
        doc["words"][1]["segment_id"] = True
        with pytest.raises(DocumentParseError, match=r"non-integer segment_id at words\[1\]"):
            parse_document(json.dumps(doc))
        doc["words"][1]["segment_id"] = 1
        doc["segments"][1]["word_ids"] = [True]
        with pytest.raises(DocumentParseError, match=r"bad word id True at segments\[1\]"):
            parse_document(json.dumps(doc))


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_synth_pages_reparse_identically(seed):
    # parse -> serialize -> parse is the identity on generator output
    from docgrain.synth import SynthParams, generate_page

    page = generate_page(seed % 1000, seed % 7, SynthParams())
    blob = document_to_json(page)
    assert serialize_document(parse_document(blob)) == serialize_document(page)


@pytest.mark.parametrize("image", ["img.ppm", "sub/img.ppm", "/abs/img.ppm"])
def test_load_document_reads_image_path_beside_the_document(tmp_path, image):
    doc = json.loads((Path(__file__).parent / "fixtures" / "three_blocks.json").read_text())
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc | {"image": image}))
    # Joined to the document's directory; an absolute path stays as it is.
    assert load_document(str(path)).image_path == str(tmp_path / image)


FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
DENSE = SynthParams(page_height=2600, min_kv_pairs=12, max_kv_pairs=24, max_list_blocks=6, max_noise_lines=6)


class TestParserMatchesReference:
    """The parser returns the reference parser's page, or raises its message."""

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
    def test_fixtures(self, path):
        blob = path.read_bytes()
        assert parse_outcome(parse_document, blob) == parse_outcome(parse_document_reference, blob)

    @pytest.mark.parametrize("params", [SynthParams(), DENSE, SynthParams(variant="region_cue")], ids=["forms", "dense", "region_cue"])
    def test_synthetic_pages(self, params):
        for page in synth_generate(3, 16, params).pages:
            blob = document_to_json(page)
            assert parse_outcome(parse_document, blob) == parse_outcome(parse_document_reference, blob)

    @pytest.mark.parametrize("value", [
        [1, 2, 3, 4], [1.5, 2, 3, 4.5], [-0.0, 0.0, 0.0, -0.0], (10, 10, 38, 24), [3, 0, 1, 4], [0, 4, 1, 3],
        [float("nan"), 0, 1, 1], [0, 0, float("inf"), 1], [float("-inf"), 0, 0, 0], [10**400, 0, 10**400, 0],
        [1e308, 1e308, 1e308, 1e308], [True, 0, 1, 1], ["1", 0, 1, 1], [1, 2, 3], [1, 2, 3, 4, 5], None,
    ])
    @pytest.mark.parametrize("where", ["words", "segments"])
    def test_box_values(self, value, where):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc[where][0]["bbox"] = value
        assert parse_outcome(parse_document, doc) == parse_outcome(parse_document_reference, doc)

    @pytest.mark.parametrize("word_ids", [[0, 1, 1], [1, 0], [0, 0, 1], [1, 1]])
    def test_word_id_lists(self, word_ids):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["segments"][0]["word_ids"] = word_ids
        assert parse_outcome(parse_document, doc) == parse_outcome(parse_document_reference, doc)

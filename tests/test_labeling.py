import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from docgrain.labeling import (
    BioTagSet,
    Entity,
    F1Accumulator,
    anls,
    bio_decode,
    bio_encode,
    entity_f1,
    labeling_head,
    levenshtein,
)
from docgrain.tensor import Tensor

from .reference_impls import levenshtein_oracle


class TestBioTagSet:
    def test_tag_count(self):
        ts = BioTagSet(("HEADER", "QUESTION", "ANSWER"))
        assert ts.n_tags == 7
        assert ts.tags[0] == "O"

    def test_tag_id_roundtrip(self):
        ts = BioTagSet()
        for tag in ts.tags:
            assert ts.id_tag(ts.tag_id(tag)) == tag

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown tag"):
            BioTagSet().tag_id("B-NOPE")

    def test_tags_built_once_in_order(self):
        ts = BioTagSet(("HEADER", "ANSWER"))
        assert ts.tags is ts.tags
        assert list(ts.tags) == ["O", "B-HEADER", "I-HEADER", "B-ANSWER", "I-ANSWER"]
        assert [ts.tag_id(t) for t in ts.tags] == [0, 1, 2, 3, 4]
        assert BioTagSet(("HEADER", "ANSWER")) == ts and hash(BioTagSet(("HEADER", "ANSWER"))) == hash(ts)


class TestBioDecode:
    def test_basic_run(self):
        assert bio_decode(["B-ANSWER", "I-ANSWER", "O"]) == [Entity("ANSWER", 0, 2)]

    def test_lenient_stray_inside(self):
        assert bio_decode(["I-ANSWER", "O"]) == [Entity("ANSWER", 0, 1)]

    def test_adjacent_b_tags(self):
        assert bio_decode(["B-QUESTION", "B-QUESTION"]) == [
            Entity("QUESTION", 0, 1),
            Entity("QUESTION", 1, 2),
        ]

    def test_type_change_splits(self):
        assert bio_decode(["B-QUESTION", "I-ANSWER"]) == [
            Entity("QUESTION", 0, 1),
            Entity("ANSWER", 1, 2),
        ]

    def test_unknown_tag_string(self):
        with pytest.raises(ValueError, match="unknown tag"):
            bio_decode(["B-X", "Z-Y"])

    def test_trailing_entity_closed(self):
        assert bio_decode(["O", "B-HEADER", "I-HEADER"]) == [Entity("HEADER", 1, 3)]


entity_lists = st.lists(
    st.tuples(st.sampled_from(["HEADER", "QUESTION", "ANSWER"]), st.integers(0, 20), st.integers(1, 4)),
    max_size=5,
)


class TestBioEncodeDecode:
    @given(entity_lists)
    def test_roundtrip_nonadjacent(self, raw):
        # lay entities out with gaps so the partition is unambiguous
        entities = []
        cursor = 0
        for etype, _, length in raw:
            entities.append(Entity(etype, cursor, cursor + length))
            cursor += length + 1  # gap prevents same-type adjacency
        tags = bio_encode(entities, cursor + 1 if entities else 3)
        assert bio_decode(tags) == entities

    def test_adjacent_same_type_preserved_by_b_markers(self):
        entities = [Entity("ANSWER", 0, 2), Entity("ANSWER", 2, 3)]
        tags = bio_encode(entities, 3)
        assert tags == ["B-ANSWER", "I-ANSWER", "B-ANSWER"]
        assert bio_decode(tags) == entities

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            bio_encode([Entity("A", 0, 2), Entity("A", 1, 3)], 4)


class TestEntityF1:
    def test_exact_match(self):
        gold = [Entity("ANSWER", 0, 2), Entity("HEADER", 3, 4)]
        assert entity_f1(gold, gold) == (1.0, 1.0, 1.0)

    def test_half(self):
        gold = [Entity("ANSWER", 0, 2), Entity("ANSWER", 4, 6)]
        pred = [Entity("ANSWER", 0, 2), Entity("ANSWER", 8, 9)]
        p, r, f1 = entity_f1(pred, gold)
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_empty_pred(self):
        assert entity_f1([], [Entity("ANSWER", 0, 1)])[2] == 0.0

    def test_both_empty_is_perfect(self):
        assert entity_f1([], []) == (1.0, 1.0, 1.0)

    @given(entity_lists, entity_lists)
    def test_swapping_pred_gold_swaps_p_r(self, a_raw, b_raw):
        a = [Entity(t, s, s + l) for t, s, l in a_raw]
        b = [Entity(t, s, s + l) for t, s, l in b_raw]
        p1, r1, f1 = entity_f1(a, b)
        p2, r2, f2 = entity_f1(b, a)
        assert p1 == r2 and r1 == p2 and f1 == pytest.approx(f2)

    def test_accumulator_micro(self):
        acc = F1Accumulator()
        acc.add([Entity("A", 0, 1)], [Entity("A", 0, 1), Entity("A", 2, 3)])
        acc.add([Entity("B", 0, 1)], [])
        p, r, f1 = acc.scores()
        assert p == 0.5 and r == 0.5 and f1 == 0.5


class TestLevenshtein:
    def test_fixtures(self):
        assert levenshtein("fox", "fax") == 1
        assert levenshtein("", "abc") == 3
        assert levenshtein("kitten", "sitting") == 3

    @given(st.text(max_size=8), st.text(max_size=8))
    def test_matches_recursive_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_oracle(a, b)


class TestAnls:
    def test_exact_match(self):
        assert anls("Fox", ["fox"]) == 1.0

    def test_fox_fax(self):
        want = 1.0 - levenshtein_oracle("fox", "fax") / 3
        assert anls("fox", ["fax"]) == pytest.approx(want, abs=1e-12)
        assert anls("fox", ["fax"]) == pytest.approx(2 / 3, abs=1e-12)

    def test_threshold_zeroes_low_similarity(self):
        assert anls("abcd", ["wxyz"]) == 0.0

    def test_best_gold_wins(self):
        assert anls("fox", ["wxyz", "fox"]) == 1.0

    def test_gold_order_irrelevant(self):
        golds = ["fax", "fox", "box"]
        assert anls("fox", golds) == anls("fox", list(reversed(golds)))

    def test_case_insensitive(self):
        assert anls("FAX number", ["fax NUMBER"]) == 1.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError, match="at least one gold"):
            anls("x", [])

    def test_both_empty(self):
        assert anls("", [""]) == 1.0


class TestLabelingHead:
    def test_zero_weights_uniform_logits(self):
        h = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
        w = Tensor(np.zeros((8, 7)))
        b = Tensor(np.zeros(7))
        out = labeling_head(h, w, b)
        assert out.shape == (5, 7)
        assert np.all(out.data == 0.0)
        from docgrain.tensor import cross_entropy

        loss = cross_entropy(out, [0, 1, 2, 3, 4])
        assert loss.item() == pytest.approx(np.log(7.0), abs=1e-12)

    def test_shape_for_three_types(self):
        ts = BioTagSet(("HEADER", "QUESTION", "ANSWER"))
        h = Tensor(np.zeros((4, 6)))
        out = labeling_head(h, Tensor(np.zeros((6, ts.n_tags))), Tensor(np.zeros(ts.n_tags)))
        assert out.shape == (4, 7)

from dataclasses import replace

import numpy as np
import pytest

from docgrain.document import BBox, Page, Segment, Word
from docgrain.embeddings import (
    COORD_RANGE,
    PATCH_RAW_DIM,
    TEXT_TYPE,
    VISUAL_TYPE,
    EmbeddingTables,
    layout_lookups,
    load_image,
    patch_raw_features,
)
from docgrain.graph import patch_boxes
from docgrain.model import Model, ModelConfig, normalized_coords
from docgrain.tensor import Tensor, add_lookups
from docgrain.vocab import SPECIALS, Vocab, build_vocab, tokenize, word_pieces

from .reference_impls import add, gather


def make_tables(d=12, vocab=16, max_len=24, rng=None):
    rng = rng or np.random.default_rng(0)
    c = d // 6
    return EmbeddingTables(
        word=Tensor(rng.normal(size=(vocab, d)), requires_grad=True),
        token_type=Tensor(rng.normal(size=(2, d)), requires_grad=True),
        position=Tensor(rng.normal(size=(max_len, d)), requires_grad=True),
        coord_x=Tensor(rng.normal(size=(COORD_RANGE, c)), requires_grad=True),
        coord_y=Tensor(rng.normal(size=(COORD_RANGE, c)), requires_grad=True),
        patch_proj_w=Tensor(rng.normal(size=(PATCH_RAW_DIM, d)), requires_grad=True),
        patch_proj_b=Tensor(np.zeros(d), requires_grad=True),
    )


def fax_page():
    words = [
        Word("fax:", BBox(10, 10, 38, 24), 0),
        Word("123", BBox(42, 10, 63, 24), 0),
    ]
    seg = Segment("fax: 123", BBox(10, 10, 63, 24), (0, 1))
    return Page(width=200, height=100, words=words, segments=[seg])


def fax_model(grid=(2, 2), max_len=24):
    cfg = ModelConfig(
        d=12, heads=2, fine_layers=1, coarse_layers=1, vocab_size=16,
        max_len=max_len, grid=grid, commonsense_k=0,
    )
    return Model(cfg, Vocab(list(SPECIALS) + ["fax", ":", "123"]))


def text_page(*texts):
    """One segment of words laid out left to right, 30 px apart."""
    words = [Word(t, BBox(10 + 30 * i, 10, 30 + 30 * i, 24), 0) for i, t in enumerate(texts)]
    seg = Segment(" ".join(texts), BBox(10, 10, 30 + 30 * (len(texts) - 1), 24), tuple(range(len(texts))))
    return Page(width=200, height=100, words=words, segments=[seg])


def layout_rows(coords, tables):
    """The layout term alone: the six lookups added to zero rows."""
    coords = np.asarray(coords)
    return add_lookups(Tensor(np.zeros((len(coords), tables.word.shape[1]))), layout_lookups(coords, tables)).data


def layout_free(model):
    """Zero the coordinate tables: fine-input rows then hold content,
    token-type and position terms only (adding 0.0 changes no bit)."""
    model.tables.coord_x.data[:] = 0.0
    model.tables.coord_y.data[:] = 0.0
    return model


def fine_rows(model, page):
    enc = model.encode_page(page)
    return enc, model.fine_input(enc).data


class TestTokenizer:
    def test_splitting_rule(self):
        assert word_pieces("fax:") == ["fax", ":"]
        assert word_pieces("123") == ["123"]
        assert word_pieces("(202)") == ["(", "202", ")"]
        assert word_pieces("778-5212") == ["778", "-", "5212"]

    def test_unknown_maps_to_unk(self):
        v = Vocab(list(SPECIALS) + ["fax", ":"])
        assert v.token_to_id("zzz") == v.unk_id

    def test_roundtrip_in_vocab(self):
        v = Vocab(list(SPECIALS) + ["fax", ":", "123"])
        for tok in ("fax", ":", "123"):
            assert v.tokens[v.token_to_id(tok)] == tok

    def test_tokenize_carries_word_index(self):
        words = [
            Word("Fax:", BBox(0, 0, 28, 14), 0),
            Word("123", BBox(32, 0, 53, 14), 0),
        ]
        v = Vocab(list(SPECIALS) + ["fax", ":", "123"])
        seq = tokenize(words, v, max_len=16)
        assert seq.ids == [v.token_to_id(p) for p in ("fax", ":", "123")]
        assert seq.word_index == [0, 0, 1]
        assert seq.first_subtoken == [True, False, True]

    def test_tokenize_over_max_len(self):
        words = [Word("a b", BBox(0, 0, 5, 5), 0)]
        v = Vocab(list(SPECIALS) + ["a", "b"])
        with pytest.raises(ValueError, match="truncate the document"):
            tokenize(words * 9, v, max_len=2)

    def test_build_vocab_rank_order(self):
        page = Page(
            width=100,
            height=100,
            words=[
                Word("b b", BBox(0, 0, 10, 10), 0),
                Word("a", BBox(0, 0, 10, 10), 0),
                Word("b", BBox(0, 0, 10, 10), 0),
            ],
            segments=[],
        )
        v = build_vocab([page], size=10)
        assert v.tokens[: len(SPECIALS)] == list(SPECIALS)
        assert v.tokens[len(SPECIALS)] == "b"  # most frequent first

    def test_build_vocab_truncates(self):
        page = Page(
            width=10, height=10,
            words=[Word(t, BBox(0, 0, 1, 1), 0) for t in "abcdefgh"],
            segments=[],
        )
        assert len(build_vocab([page], size=4)) == 4


class TestEmbedText:
    """The text rows of ``Model.fine_input``."""

    def test_single_token_is_sum_of_three_rows(self):
        model = layout_free(fax_model())
        t = model.tables
        enc, out = fine_rows(model, text_page("123"))
        token = enc.tokens.ids[0]
        want = t.word.data[token] + t.token_type.data[TEXT_TYPE] + t.position.data[0]
        assert np.array_equal(out[0], want)

    def test_identical_tokens_differ_by_position(self):
        model = layout_free(fax_model())
        t = model.tables
        _, out = fine_rows(model, text_page("123", "123"))
        diff = out[0] - out[1]
        assert np.allclose(diff, t.position.data[0] - t.position.data[1])

    def test_zero_tables_zero_output(self):
        model = layout_free(fax_model())
        t = model.tables
        for tensor in (t.word, t.token_type, t.position):
            tensor.data[:] = 0.0
        enc, out = fine_rows(model, text_page("fax:", "123"))
        assert np.all(out[: enc.n_text] == 0.0)


class TestEmbedLayout:
    def test_origin_box_uses_index_zero(self):
        t = make_tables(d=12)
        out = layout_rows([[0, 0, 0, 0]], t)[0]
        want = np.concatenate([t.coord_x.data[0]] * 3 + [t.coord_y.data[0]] * 3)
        assert np.array_equal(out, want)

    def test_width_height_slices(self):
        t = make_tables(d=12)
        out = layout_rows([[10, 20, 110, 70]], t)[0]
        c = 2
        assert np.array_equal(out[2 * c : 3 * c], t.coord_x.data[100])  # width slice
        assert np.array_equal(out[5 * c : 6 * c], t.coord_y.data[50])  # height slice

    def test_equal_boxes_equal_rows(self):
        t = make_tables()
        out = layout_rows([[1, 2, 3, 4], [1, 2, 3, 4]], t)
        assert np.array_equal(out[0], out[1])

    def test_out_of_range_rejected(self):
        t = make_tables()
        with pytest.raises(ValueError, match="0..1000"):
            layout_lookups(np.array([[0, 0, 1500, 10]]), t)

    def test_zero_padding_when_not_divisible(self):
        t = make_tables(d=16)  # coord width 2, 6*2=12 < 16
        out = layout_rows([[1, 2, 3, 4]], t)
        assert out.shape == (1, 16)
        assert np.all(out[:, 12:] == 0.0)


class TestPatchFeatures:
    def test_no_image_fallback(self):
        page = Page(width=100, height=50)
        raw = patch_raw_features(page, 2, 2)
        assert raw.shape == (4, PATCH_RAW_DIM)
        assert np.all(raw[:, :3] == 0.0)
        assert raw[0, 3:].tolist() == [0.25, 0.25, 0.5, 0.5]

    def test_uniform_image_identical_color(self):
        page = Page(width=40, height=40, image=np.full((40, 40, 3), 128, dtype=np.uint8))
        raw = patch_raw_features(page, 2, 2)
        assert np.allclose(raw[:, :3], 128 / 255.0)
        assert len({tuple(r) for r in np.round(raw[:, :3], 12)}) == 1

    def test_dark_uint8_image_is_scaled_by_dtype(self):
        # An 8-bit image of all 1s is near black, however small its values.
        page = Page(width=4, height=4, image=np.ones((4, 4, 3), dtype=np.uint8))
        raw = patch_raw_features(page, 1, 1)
        assert raw[0, :3].tolist() == [1 / 255.0] * 3

    def test_float_image_is_read_as_unit_range(self):
        page = Page(width=4, height=4, image=np.full((4, 4, 3), 0.25))
        assert patch_raw_features(page, 2, 2)[:, :3].tolist() == [[0.25] * 3] * 4

    @pytest.mark.parametrize(
        "image",
        [
            np.full((4, 4, 3), 2.0),
            np.full((4, 4, 3), np.nan),
            np.full((4, 4, 3), 256, dtype=np.int64),
            np.full((4, 4, 3), -1, dtype=np.int16),
            np.ones((4, 4, 3), dtype=bool),
        ],
        ids=["float-above-one", "float-nan", "int-above-255", "int-negative", "bool"],
    )
    def test_out_of_range_image_rejected(self, image):
        with pytest.raises(ValueError, match="page image"):
            patch_raw_features(Page(width=4, height=4, image=image), 2, 2)

    def test_checker_image_matches_pixel_loop(self):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(12, 16, 3)).astype(np.uint8)
        page = Page(width=16, height=12, image=img)
        grid_w, grid_h = 3, 2
        raw = patch_raw_features(page, grid_w, grid_h)
        scaled = img.astype(np.float64) / 255.0
        for row in range(grid_h):
            for col in range(grid_w):
                sums = np.zeros(3)
                count = 0
                for py in range(12):
                    for px in range(16):
                        in_col = col <= (px + 0.5) * grid_w / 16 < col + 1
                        in_row = row <= (py + 0.5) * grid_h / 12 < row + 1
                        if in_col and in_row:
                            sums += scaled[py, px]
                            count += 1
                want = sums / count
                got = raw[row * grid_w + col, :3]
                assert np.max(np.abs(got - want)) < 1e-12

    def test_projection_shape(self):
        model = fax_model(grid=(3, 3))
        enc = model.encode_page(fax_page())
        visual = model.fine_input(enc).data[enc.n_text :]
        assert visual.shape == (9, 12)
        assert len(enc.fine_boxes[enc.n_text :]) == 9


class TestEmbedVisual:
    """The patch rows of ``Model.fine_input``."""

    def test_zero_everything(self):
        model = layout_free(fax_model())
        t = model.tables
        for tensor in (t.patch_proj_w, t.patch_proj_b, t.token_type, t.position):
            tensor.data[:] = 0.0
        enc, out = fine_rows(model, fax_page())
        assert np.all(out[enc.n_text :] == 0.0)

    def test_shared_tables_alias_text_and_visual(self):
        model = fax_model()
        enc, before = fine_rows(model, fax_page())
        model.tables.position.data[0] += 1.0
        after = model.fine_input(enc).data
        assert not np.array_equal(after[0], before[0])
        assert not np.array_equal(after[enc.n_text], before[enc.n_text])


class TestPermutationStructure:
    def test_identical_tokens_identical_rows_after_position_removed(self):
        # equivariance over text tokens holds up to the position term
        model = layout_free(fax_model())
        _, out = fine_rows(model, text_page("123", "123"))
        stripped = out[:2] - model.tables.position.data[:2]
        assert np.max(np.abs(stripped[0] - stripped[1])) < 1e-12

    def test_swapping_patch_features_permutes_rows(self):
        model = layout_free(fax_model(grid=(3, 1)))
        enc = model.encode_page(fax_page())
        rng = np.random.default_rng(5)
        enc = replace(enc, patch_raw=rng.normal(size=enc.patch_raw.shape))
        base = model.fine_input(enc).data[enc.n_text :]
        swapped_enc = replace(enc, patch_raw=enc.patch_raw[[1, 0, 2]])
        swapped = model.fine_input(swapped_enc).data[enc.n_text :]
        pos = model.tables.position.data
        assert np.max(np.abs((base[0] - pos[0]) - (swapped[1] - pos[1]))) < 1e-12
        assert np.max(np.abs((base[1] - pos[1]) - (swapped[0] - pos[0]))) < 1e-12


class TestBuildFineInput:
    """``Model.encode_page`` and ``Model.fine_input`` build the fine input."""

    def test_shape_and_order(self):
        model = fax_model()
        enc = model.encode_page(fax_page())
        fine = model.fine_input(enc)
        assert fine.shape == (3 + 4, 12)
        assert enc.n_text == 3
        assert list(enc.positions) == [0, 1, 2, 0, 1, 2, 3]

    def test_matches_composed_ops(self):
        model = fax_model()
        t = model.tables
        page = fax_page()
        fine = model.fine_input(model.encode_page(page))
        seq = tokenize(page.words, model.vocab, 24)
        features = Tensor(patch_raw_features(page, 2, 2) @ t.patch_proj_w.data + t.patch_proj_b.data)

        def rows(content, token_type, boxes):
            n = content.shape[0]
            out = add(content, gather(t.token_type, np.full(n, token_type)))
            out = add(out, gather(t.position, np.arange(n)))
            return add_lookups(out, layout_lookups(normalized_coords(boxes, page), t)).data

        want_text = rows(gather(t.word, seq.ids), TEXT_TYPE, [page.words[w].bbox for w in seq.word_index])
        want_visual = rows(features, VISUAL_TYPE, patch_boxes(page.width, page.height, 2, 2))
        assert np.array_equal(fine.data[:3], want_text)
        assert np.array_equal(fine.data[3:], want_visual)

    def test_budget_enforced(self):
        model = fax_model(max_len=5)
        with pytest.raises(ValueError, match="exceed max_len"):
            model.encode_page(fax_page())


class TestReadPpm:
    """Netpbm P3 and P6 rasters: 8- and 16-bit samples, comments, bad headers."""

    @staticmethod
    def load(tmp_path, blob: bytes) -> np.ndarray:
        path = tmp_path / "image.ppm"
        path.write_bytes(blob)
        return load_image(str(path))

    def test_p6_8bit(self, tmp_path):
        image = self.load(tmp_path, b"P6\n2 1\n255\n" + bytes([255, 0, 51, 0, 102, 255]))
        assert image.shape == (1, 2, 3)
        assert image.tolist() == [[[1.0, 0.0, 0.2], [0.0, 0.4, 1.0]]]

    def test_p6_16bit_is_big_endian(self, tmp_path):
        payload = (65535).to_bytes(2, "big") + (0).to_bytes(2, "big") + (32768).to_bytes(2, "big")
        image = self.load(tmp_path, b"P6 1 1 65535\n" + payload)
        assert image.tolist() == [[[1.0, 0.0, 32768 / 65535]]]

    def test_p6_low_maxval(self, tmp_path):
        image = self.load(tmp_path, b"P6 1 1 4\n" + bytes([4, 2, 0]))
        assert image.tolist() == [[[1.0, 0.5, 0.0]]]

    def test_p3_with_comments(self, tmp_path):
        blob = b"P3\n# made by hand\n2 # width\n2\n# maxval next\n1000\n0 500 1000  1000 0 0\n0 0 0  250 250 250\n"
        image = self.load(tmp_path, blob)
        assert image.shape == (2, 2, 3)
        assert image[0, 0].tolist() == [0.0, 0.5, 1.0]
        assert image[1, 1].tolist() == [0.25, 0.25, 0.25]

    def test_p3_16bit(self, tmp_path):
        assert self.load(tmp_path, b"P3 1 1 65535 65535 0 1").tolist() == [[[1.0, 0.0, 1 / 65535]]]

    @pytest.mark.parametrize("blob, message", [
        (b"P6 1 1 0\n" + bytes(3), "maxval 0"),
        (b"P3 1 1 0 0 0 0", "maxval 0"),
        (b"P6 1 1 65536\n" + bytes(6), "maxval 65536"),
        (b"P6 0 1 255\n", "empty"),
        (b"P3 1 0 255\n", "empty"),
        (b"P3 1 1 255 0 256 0", "sample 256 above maxval 255"),
        (b"P6 1 1 100\n" + bytes([0, 101, 0]), "sample 101 above maxval 100"),
        (b"P6 1 1 65535\n" + b"\xff\xff" * 2 + b"\xff", "payload holds 5 bytes, 6 needed"),
        (b"P6 2 2 255\n" + bytes(11), "payload holds 11 bytes, 12 needed"),
        (b"P3 1 1 255 1 2", "payload holds 2 samples, 3 needed"),
        (b"P3 1 1 255 1 2 -3", "samples must be decimal integers"),
        (b"P6 1 1 255", "payload holds 0 bytes, 3 needed"),
        (b"P6 -1 1 255\n", "must be decimal integers"),
        (b"P6 1 1", "must be decimal integers"),
        (b"P5 1 1 255\n" + bytes(1), "unsupported PPM magic"),
    ])
    def test_bad_file_raises_value_error(self, tmp_path, blob, message):
        with pytest.raises(ValueError, match=message):
            self.load(tmp_path, blob)

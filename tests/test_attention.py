import math

import numpy as np
import pytest

from docgrain.attention import (
    REL_BUCKETS,
    LayerParams,
    RelativeBiasTables,
    multi_head_attention,
    rel_bucket,
    spatial_bias,
    spatial_indices,
    transformer_layer,
)
from docgrain.tensor import Tensor, grad_check

from .reference_impls import attention_oracle, composed_transformer_layer, layer_norm, weighted_sum

RNG = np.random.default_rng(1)


def make_layer(d, ffn=None, rng=None, zero_outputs=False):
    rng = rng or np.random.default_rng(2)
    ffn = ffn or 4 * d

    def w(*shape):
        return Tensor(rng.normal(scale=0.3, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    params = LayerParams(
        wq=w(d, d), bq=zeros(d), wk=w(d, d), bk=zeros(d), wv=w(d, d), bv=zeros(d),
        wo=w(d, d), bo=zeros(d),
        ln1_gain=Tensor(np.ones(d), requires_grad=True), ln1_bias=zeros(d),
        ln2_gain=Tensor(np.ones(d), requires_grad=True), ln2_bias=zeros(d),
        ffn_w1=w(d, ffn), ffn_b1=zeros(ffn), ffn_w2=w(ffn, d), ffn_b2=zeros(d),
    )
    if zero_outputs:
        params.wo.data[:] = 0.0
        params.ffn_w2.data[:] = 0.0
    return params


def make_bias(heads, zero=True, rng=None):
    rng = rng or np.random.default_rng(3)

    def t():
        data = np.zeros((REL_BUCKETS, heads)) if zero else rng.normal(scale=0.5, size=(REL_BUCKETS, heads))
        return Tensor(data, requires_grad=True)

    return RelativeBiasTables(rel_1d=t(), rel_x=t(), rel_y=t())


class TestRelBucket:
    def test_zero_offset(self):
        assert rel_bucket(0) == 0

    def test_sign_symmetry(self):
        assert rel_bucket(1) != rel_bucket(-1)
        assert rel_bucket(1) == 16 + 1
        assert rel_bucket(-1) == 1

    def test_monotone_over_full_range(self):
        vals = [rel_bucket(o) for o in range(0, 2001)]
        assert all(b <= a for a, b in zip(vals[1:], vals))  # non-decreasing
        neg = [rel_bucket(-o) for o in range(0, 2001)]
        assert all(b <= a for a, b in zip(neg[1:], neg))

    def test_saturates(self):
        assert rel_bucket(10**9) == 31
        assert rel_bucket(-(10**9)) == 15

    def test_range(self):
        vals = rel_bucket(np.arange(-3000, 3001))
        assert vals.min() == 0 and vals.max() == REL_BUCKETS - 1

    def test_exact_below_quarter(self):
        # one bucket per offset below buckets/4, per sign
        for o in range(1, 8):
            assert rel_bucket(o) == 16 + o
            assert rel_bucket(-o) == o
        assert rel_bucket(0) == 0

    def test_vectorized_matches_scalar(self):
        offsets = np.arange(-50, 51)
        vec = rel_bucket(offsets)
        assert list(vec) == [rel_bucket(int(o)) for o in offsets]


def norm_boxes(coords):
    """(n, 4) normalized coordinates of 10x10 boxes at the given corners."""
    return np.array([(x, y, x + 10, y + 10) for x, y in coords], dtype=np.int64)


class TestAttention:
    def test_single_row_returns_projected_value(self):
        d = 8
        params = make_layer(d)
        h = Tensor(RNG.normal(size=(1, d)))
        out = multi_head_attention(h, params, heads=2).data
        v = h.data @ params.wv.data + params.bv.data
        want = v @ params.wo.data + params.bo.data
        assert np.max(np.abs(out - want)) < 1e-12

    def test_identical_keys_uniform_average(self):
        d = 8
        params = make_layer(d)
        params.wk.data[:] = 0.0  # all keys identical -> uniform attention
        h = Tensor(RNG.normal(size=(5, d)))
        out = multi_head_attention(h, params, heads=2).data
        v = h.data @ params.wv.data + params.bv.data
        want = np.tile(v.mean(axis=0), (5, 1)) @ params.wo.data + params.bo.data
        assert np.max(np.abs(out - want)) < 1e-12

    def test_matches_naive_loop_oracle(self):
        d, n, heads = 8, 4, 2
        params = make_layer(d)
        h = RNG.normal(size=(n, d))
        got = multi_head_attention(Tensor(h), params, heads).data
        want = attention_oracle(
            h.tolist(),
            params.wq.data.tolist(), params.bq.data.tolist(),
            params.wk.data.tolist(), params.bk.data.tolist(),
            params.wv.data.tolist(), params.bv.data.tolist(),
            params.wo.data.tolist(), params.bo.data.tolist(),
            heads,
        )
        assert np.max(np.abs(got - np.asarray(want))) < 1e-12

    def test_width_not_divisible_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            multi_head_attention(Tensor(RNG.normal(size=(2, 6))), make_layer(6), heads=4)


class TestSpatialMha:
    def setup_case(self, n=5, d=8, heads=2, zero_bias=True):
        params = make_layer(d)
        bias = make_bias(heads, zero=zero_bias)
        coords = [(int(x), int(y)) for x, y in RNG.integers(0, 900, size=(n, 2))]
        boxes = norm_boxes(coords)
        positions = list(range(n))
        h = Tensor(RNG.normal(size=(n, d)))
        return heads, params, bias, boxes, positions, h

    def test_zero_bias_tables_reduce_to_canonical(self):
        heads, params, bias, boxes, positions, h = self.setup_case(zero_bias=True)
        got = multi_head_attention(h, params, heads, spatial_bias(bias, spatial_indices(boxes, positions))).data
        want = multi_head_attention(h, params, heads).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_translation_invariance_exact(self):
        heads, params, bias, boxes, positions, h = self.setup_case(zero_bias=False)
        moved = boxes + [7, 11, 7, 11]
        a = multi_head_attention(h, params, heads, spatial_bias(bias, spatial_indices(boxes, positions))).data
        b = multi_head_attention(h, params, heads, spatial_bias(bias, spatial_indices(moved, positions))).data
        assert np.array_equal(a, b)

    def test_hand_computed_two_by_two(self):
        # one head, d = dk = 1, hand-set weights: attention math by hand
        d, heads = 1, 1
        params = make_layer(d)
        params.wq.data[:] = [[1.0]]
        params.wk.data[:] = [[1.0]]
        params.wv.data[:] = [[1.0]]
        params.wo.data[:] = [[1.0]]
        for b in (params.bq, params.bk, params.bv, params.bo):
            b.data[:] = 0.0
        bias = make_bias(heads, zero=True)
        b_1d, b_x, b_y = 0.3, -0.2, 0.5
        h = Tensor(np.array([[1.0], [2.0]]))
        boxes = norm_boxes([(0, 0), (40, 10)])
        positions = [0, 1]
        idx = spatial_indices(boxes, positions)
        bias.rel_1d.data[idx.idx_1d[0, 1], 0] = b_1d
        bias.rel_x.data[idx.idx_x[0, 1], 0] = b_x
        bias.rel_y.data[idx.idx_y[0, 1], 0] = b_y
        got = multi_head_attention(h, params, heads, spatial_bias(bias, spatial_indices(boxes, positions))).data

        # row 0: scores [q0*k0, q0*k1 + biases] with q=k=v=h and dk=1
        s00, s01 = 1.0 * 1.0, 1.0 * 2.0 + b_1d + b_x + b_y
        w01 = math.exp(s01 - max(s00, s01)) / (math.exp(s00 - max(s00, s01)) + math.exp(s01 - max(s00, s01)))
        want0 = (1 - w01) * 1.0 + w01 * 2.0
        # row 1: reverse offsets land in different (still zero) buckets
        s10, s11 = 2.0 * 1.0, 2.0 * 2.0
        w11 = math.exp(s11 - s11) / (math.exp(s10 - s11) + math.exp(s11 - s11))
        want1 = (1 - w11) * 1.0 + w11 * 2.0
        assert got[0, 0] == pytest.approx(want0, abs=1e-12)
        assert got[1, 0] == pytest.approx(want1, abs=1e-12)

    def test_matches_naive_loop_oracle_with_bias(self):
        heads, params, bias, boxes, positions, h = self.setup_case(n=4, zero_bias=False)
        idx = spatial_indices(boxes, positions)
        n = len(boxes)
        bias_mats = [
            bias.rel_1d.data[idx.idx_1d, hd] + bias.rel_x.data[idx.idx_x, hd] + bias.rel_y.data[idx.idx_y, hd]
            for hd in range(heads)
        ]
        got = multi_head_attention(h, params, heads, spatial_bias(bias, spatial_indices(boxes, positions))).data
        want = attention_oracle(
            h.data.tolist(),
            params.wq.data.tolist(), params.bq.data.tolist(),
            params.wk.data.tolist(), params.bk.data.tolist(),
            params.wv.data.tolist(), params.bv.data.tolist(),
            params.wo.data.tolist(), params.bo.data.tolist(),
            heads,
            bias=[m.tolist() for m in bias_mats],
        )
        assert np.max(np.abs(got - np.asarray(want))) < 1e-12

    def test_constant_score_shift_leaves_output_unchanged(self):
        heads, params, bias, boxes, positions, h = self.setup_case(zero_bias=True)
        base = multi_head_attention(h, params, heads, spatial_bias(bias, spatial_indices(boxes, positions))).data
        for t in (bias.rel_1d, bias.rel_x, bias.rel_y):
            t.data += 2.5  # constant over all buckets shifts every score row
        shifted = multi_head_attention(h, params, heads, spatial_bias(bias, spatial_indices(boxes, positions))).data
        assert np.max(np.abs(base - shifted)) < 1e-12

    def test_attention_rows_sum_to_one_after_bias(self):
        # probe the attention weights through a constant-value trick:
        # with V rows all ones, output rows equal the row sums of A
        heads, params, bias, boxes, positions, h = self.setup_case(zero_bias=False)
        params.wv.data[:] = 0.0
        params.bv.data[:] = 1.0
        params.wo.data[:] = np.eye(8)
        params.bo.data[:] = 0.0
        out = multi_head_attention(h, params, heads, spatial_bias(bias, spatial_indices(boxes, positions))).data
        assert np.max(np.abs(out - 1.0)) < 1e-9


class TestTransformerLayer:
    def test_zero_output_projections_collapse_to_double_norm(self):
        d = 8
        params = make_layer(d, zero_outputs=True)
        h = Tensor(RNG.normal(size=(4, d)))
        out = transformer_layer(h, params, heads=2).data
        inner = layer_norm(h, params.ln1_gain, params.ln1_bias)
        want = layer_norm(inner, params.ln2_gain, params.ln2_bias).data
        assert np.max(np.abs(out - want)) < 1e-12

    def test_shape_preserved(self):
        for n, d in ((1, 8), (6, 16)):
            params = make_layer(d)
            h = Tensor(RNG.normal(size=(n, d)))
            assert transformer_layer(h, params, heads=2).shape == (n, d)

    def test_grad_check_through_layer(self):
        d = 8
        params = make_layer(d)
        bias = make_bias(2, zero=False)
        boxes = norm_boxes([(0, 0), (50, 20), (100, 700)])
        idx = spatial_indices(boxes, [0, 1, 2])
        h = Tensor(RNG.normal(size=(3, d)), requires_grad=True)
        w = Tensor(RNG.normal(size=(3, d)))

        def f(t):
            return weighted_sum(transformer_layer(t, params, 2, spatial_bias(bias, idx)), w.data)

        assert grad_check(f, h) < 1e-6
        for name in ("wq", "wo", "ffn_w1", "ln1_gain", "ln2_bias"):
            assert grad_check(lambda _: f(h), getattr(params, name)) < 1e-6
        assert grad_check(lambda _: f(h), bias.rel_x) < 1e-6

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("spatial", [False, True], ids=["canonical", "spatial"])
    def test_matches_composed_layer_bit_for_bit(self, heads, n, spatial):
        """Two stacked layers sharing one spatial bias, against the 13-op
        composed layer: output and every gradient byte for byte."""
        d = 8
        boxes = norm_boxes([(int(x), int(y)) for x, y in np.random.default_rng(n).integers(0, 900, size=(n, 2))])
        idx = spatial_indices(boxes, list(range(n)))
        h_data = np.random.default_rng(heads).normal(size=(n, d))
        upstream = np.random.default_rng(4).normal(size=(n, d))
        runs = []
        for layer in (transformer_layer, composed_transformer_layer):
            stack = [make_layer(d, rng=np.random.default_rng(20 + i)) for i in range(2)]
            tables = make_bias(heads, zero=False)
            h = Tensor(h_data.copy(), requires_grad=True)
            bias = spatial_bias(tables, idx) if spatial else None
            out = h
            for params in stack:
                out = layer(out, params, heads, bias)
            weighted_sum(out, upstream).backward()
            grads = [h.grad] + [getattr(p, name).grad for p in stack for name in vars(p)]
            grads += [t.grad for t in (tables.rel_1d, tables.rel_x, tables.rel_y) if spatial]
            runs.append([out.data.tobytes()] + [g.tobytes() for g in grads])
        assert runs[0] == runs[1]

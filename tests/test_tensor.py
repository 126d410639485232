import contextlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from docgrain.tensor import (
    _SCORE_TILE,
    _erf,
    _make,
    _scatter_add,
    IGNORE_INDEX,
    Tensor,
    add_lookups,
    coarse_input_sum,
    fine_input_sum,
    gather_heads,
    gelu_ffn,
    grad_check,
    linear,
    linear_cross_entropy,
    matmul,
    no_grad,
    residual_layer_norm,
    self_attention,
)

from .reference_impls import (
    add,
    chain_coarse_input,
    chain_cross_entropy,
    chain_fine_input,
    composed_gelu_ffn,
    composed_residual_layer_norm,
    composed_self_attention,
    concat_rows,
    gather,
    gradients_sharing_memory,
    scale,
    slice_rows,
    softmax,
    stacked_matmul,
    tape_tensors,
    weighted_sum,
)

RNG = np.random.default_rng(0)


def rand(*shape, rg=True):
    return Tensor(RNG.normal(size=shape), requires_grad=rg)


def check_op(build, theta, tol=1e-6):
    """Finite-difference check of sum(op(theta)) against the tape."""
    err = grad_check(lambda t: weighted_sum(build(t)), theta)
    assert err < tol, f"max relative error {err}"


def attention_inputs(n, d, heads, rng, bias=True):
    """``self_attention``'s tensor arguments, all requiring a gradient:
    h, then the (weight, bias) pairs of q, k, v and the output, then the
    (heads, n, n) score bias or None."""
    def t(*shape, s=0.5):
        return Tensor(rng.normal(scale=s, size=shape), requires_grad=True)

    args = [t(n, d, s=1.0)] + [x for _ in range(4) for x in (t(d, d), t(d, s=0.1))]
    return args, (t(heads, n, n, s=1.0) if bias else None)


class TestForwardValues:
    def test_matmul_identity(self):
        eye = Tensor(np.eye(2))
        v = Tensor([[3.0], [7.0]])
        assert np.array_equal(matmul(eye, v).data, v.data)

    def test_matmul_hand(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert np.array_equal(matmul(a, b).data, [[3.0], [7.0]])

    def test_matmul_matches_triple_loop(self):
        a, b = RNG.normal(size=(5, 4)), RNG.normal(size=(4, 3))
        want = [[sum(a[i, k] * b[k, j] for k in range(4)) for j in range(3)] for i in range(5)]
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - np.asarray(want))) < 1e-12

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) vs \(2, 3\)"):
            matmul(rand(2, 3), rand(2, 3))

    def test_softmax_fixtures(self):
        assert np.allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])
        out = softmax(np.array([[math.log(3.0), 0.0]]))
        assert np.allclose(out, [[0.75, 0.25]], atol=1e-12)

    def test_softmax_shift_invariance(self):
        # dyadic inputs so x + 1000 is exact and the invariance is bitwise
        x = RNG.integers(-512, 512, size=(3, 5)) / 64.0
        a = softmax(x)
        b = softmax(x + 1000.0)
        assert np.array_equal(a, b)

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(6, 9)) * 50
        s = softmax(x).sum(axis=-1)
        assert np.max(np.abs(s - 1.0)) < 1e-9

    def test_layer_norm_constant_row(self):
        # the residual sum is normalized: h + delta is constant
        out = residual_layer_norm(Tensor([[3.0, 4.0, 5.0]]), Tensor([[1.0, 0.0, -1.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_layer_norm_already_normalized(self):
        out = residual_layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.zeros((1, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_layer_norm_statistics(self):
        x, delta = RNG.normal(size=(4, 32)) * 3 + 1, RNG.normal(size=(4, 32))
        out = residual_layer_norm(Tensor(x - delta), Tensor(delta), Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4

    def test_cross_entropy_uniform(self):
        zero = Tensor(np.zeros((5, 4)))
        loss = linear_cross_entropy(Tensor(np.ones((3, 5))), zero, Tensor(np.zeros(4)), [0, 1, 2])
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_cross_entropy_confident(self):
        logits = np.full((1, 4), -50.0)
        logits[0, 2] = 50.0
        loss = linear_cross_entropy(Tensor(logits), Tensor(np.eye(4)), Tensor(np.zeros(4)), [2])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_ignore_index(self):
        # the targets cover the first rows only; ignored ones count for nothing
        x, w, b = Tensor(RNG.normal(size=(4, 3))), Tensor(RNG.normal(size=(3, 5))), Tensor(RNG.normal(size=5))
        full = linear_cross_entropy(x, w, b, [0, 1])
        half = linear_cross_entropy(x, w, b, [0, 1, IGNORE_INDEX, IGNORE_INDEX])
        assert half.item() == pytest.approx(full.item(), abs=1e-12)
        weighted = linear_cross_entropy(x, w, b, [0, 1], weight=0.25)
        assert weighted.item() == full.item() * 0.25

    def test_cross_entropy_all_ignored(self):
        with pytest.raises(ValueError, match="all positions ignored"):
            linear_cross_entropy(rand(2, 3), rand(3, 4), rand(4), [IGNORE_INDEX, IGNORE_INDEX])

    def test_cross_entropy_shape_errors(self):
        x, w, b = rand(2, 3), rand(3, 4), rand(4)
        with pytest.raises(ValueError, match="linear_cross_entropy shapes"):
            linear_cross_entropy(x, w, b, [0, 1, 2])  # more targets than rows
        with pytest.raises(ValueError, match="linear_cross_entropy shapes"):
            linear_cross_entropy(x, w, b, [[0, 1]])
        with pytest.raises(ValueError, match="shape mismatch in linear"):
            linear_cross_entropy(x, rand(2, 4), b, [0, 1])
        with pytest.raises(ValueError, match="target out of range for 4 classes"):
            linear_cross_entropy(x, w, b, [0, 4])

    def test_linear_rows_prefix_is_a_slice(self):
        x, w, b = rand(5, 3), rand(3, 2), rand(2)
        assert np.array_equal(linear(x, w, b, 2).data, linear(Tensor(x.data[:2]), w, b).data)

    def test_add_shape_error(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            add(rand(2, 3), rand(3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            add(rand(4, 3), rand(3))  # no broadcasting

    def test_gather_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            gather(rand(4, 2), [0, 4])

    def test_matmul_stacked_matches_per_matrix(self):
        # stacks are the composed attention oracle's; matmul takes matrices only
        a, b = RNG.normal(size=(3, 4, 5)), RNG.normal(size=(3, 5, 2))
        got = stacked_matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(got, np.stack([a[i] @ b[i] for i in range(3)]))
        with pytest.raises(ValueError, match=r"\(3, 4, 5\) vs \(2, 5, 2\)"):
            stacked_matmul(Tensor(a), rand(2, 5, 2))
        with pytest.raises(ValueError, match=r"\(3, 4, 5\) vs \(3, 5, 2\)"):
            matmul(Tensor(a), Tensor(b))

    def test_project_heads_is_column_blocks(self):
        # head i attends with columns i*d_k:(i+1)*d_k of q, k and v, and
        # writes the same columns of the merged output
        n, d, heads = 5, 6, 3
        (h, wq, bq, wk, bk, wv, bv, wo, bo), bias = attention_inputs(n, d, heads, RNG)
        got = self_attention(h, wq, bq, wk, bk, wv, bv, wo, bo, heads, bias).data
        q, k, v = (h.data @ w.data + b.data for w, b in ((wq, bq), (wk, bk), (wv, bv)))
        merged = np.zeros((n, d))
        for i in range(heads):
            cols = slice(2 * i, 2 * i + 2)
            weights = softmax(q[:, cols] @ k[:, cols].T / math.sqrt(2) + bias.data[i])
            merged[:, cols] = weights @ v[:, cols]
        assert np.max(np.abs(got - (merged @ wo.data + bo.data))) < 1e-12
        with pytest.raises(ValueError, match="not divisible"):
            self_attention(h, wq, bq, wk, bk, wv, bv, wo, bo, 4, None)

    def test_merge_heads_inverts_project_heads(self):
        # one row attends only to itself: identity projections give h back
        x = RNG.normal(size=(1, 6))
        eye, zero = Tensor(np.eye(6)), Tensor(np.zeros(6))
        out = self_attention(Tensor(x), eye, zero, eye, zero, eye, zero, eye, zero, 3, None)
        assert np.array_equal(out.data, x)

    def test_attention_weights_match_composed_softmax(self):
        n, d, heads = 4, 6, 2
        (h, wq, bq, wk, bk, wv, bv, wo, bo), bias = attention_inputs(n, d, heads, RNG)
        bias.data[1, 2, 0] = -50.0
        q = (h.data @ wq.data + bq.data).reshape(n, heads, 3).transpose(1, 0, 2)
        kt = (h.data @ wk.data + bk.data).reshape(n, heads, 3).transpose(1, 2, 0)
        v = (h.data @ wv.data + bv.data).reshape(n, heads, 3).transpose(1, 0, 2)
        for b, extra in ((bias, bias.data), (None, 0.0)):
            weights = softmax(np.ascontiguousarray(q) @ np.ascontiguousarray(kt) * (1.0 / math.sqrt(3)) + extra)
            want = (weights @ np.ascontiguousarray(v)).transpose(1, 0, 2).reshape(n, d) @ wo.data + bo.data
            got = self_attention(h, wq, bq, wk, bk, wv, bv, wo, bo, heads, b).data
            assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="attention bias of shape"):
            self_attention(h, wq, bq, wk, bk, wv, bv, wo, bo, heads, Tensor(bias.data[:, :3]))

    def test_gather_heads_sums_columns(self):
        t1, t2 = RNG.normal(size=(6, 2)), RNG.normal(size=(4, 2))
        i1, i2 = RNG.integers(0, 6, size=(3, 3)), RNG.integers(0, 4, size=(3, 3))
        got = gather_heads([Tensor(t1), Tensor(t2)], [i1, i2]).data
        assert np.array_equal(got, np.stack([t1[i1, h] + t2[i2, h] for h in range(2)]))
        with pytest.raises(ValueError, match="out of range"):
            gather_heads([Tensor(t1), Tensor(t2)], [i1, i2 + 2])

    def test_add_lookups_adds_column_blocks(self):
        x, t1, t2 = RNG.normal(size=(4, 7)), RNG.normal(size=(6, 2)), RNG.normal(size=(3, 7))
        i1, i2 = np.array([0, 5, 5, 1]), np.array([2, 0, 2, 1])
        got = add_lookups(Tensor(x), [(Tensor(t2), i2, 0), (Tensor(t1), i1, 1), (Tensor(t1), i1[::-1], 4)]).data
        want = x + t2[i2]
        want[:, 1:3] += t1[i1]
        want[:, 4:6] += t1[i1[::-1]]
        assert np.array_equal(got, want)
        assert np.array_equal(add_lookups(Tensor(x), [(Tensor(t1), i1, 0)]).data[:, 2:], x[:, 2:])
        with pytest.raises(ValueError, match="out of range"):
            add_lookups(Tensor(x), [(Tensor(t1), i1 + 1, 0)])
        with pytest.raises(ValueError, match="shapes"):
            add_lookups(Tensor(x), [(Tensor(t1), i1, 6)])
        with pytest.raises(ValueError, match="shapes"):
            add_lookups(Tensor(x), [(Tensor(t1), i1[:3], 0)])
        with pytest.raises(ValueError, match="shapes"):
            add_lookups(Tensor(x), [(Tensor(t1[:, 0]), i1, 0)])  # a table of scalars


class TestGradients:
    def test_scale_and_neg(self):
        check_op(lambda t: scale(t, -2.5), rand(3, 3))

    def test_matmul(self):
        a, b = rand(4, 5), rand(5, 2)
        check_op(lambda t: matmul(t, b), a)
        check_op(lambda t: matmul(a, t), b)

    def test_matmul_stacked(self):
        a, b = rand(3, 4, 5), rand(3, 5, 2)
        check_op(lambda t: stacked_matmul(t, b), a)
        check_op(lambda t: stacked_matmul(a, t), b)

    @pytest.mark.parametrize(
        "op, shapes",
        [(matmul, ((4, 5), (5, 2))), (stacked_matmul, ((3, 4, 5), (3, 5, 2)))],
        ids=["matrix", "stacked"],
    )
    def test_matmul_skips_constant_operand(self, op, shapes):
        a_data, b_data = RNG.normal(size=shapes[0]), RNG.normal(size=shapes[1])
        g = RNG.normal(size=(a_data @ b_data).shape)
        for const_left in (True, False):
            const = Tensor(a_data if const_left else b_data)
            live = Tensor(b_data if const_left else a_data, requires_grad=True)
            both = [Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)]
            out = op(const, live) if const_left else op(live, const)
            weighted_sum(out, g).backward()
            weighted_sum(op(*both), g).backward()
            assert const.grad is None
            assert np.array_equal(live.grad, both[1 if const_left else 0].grad)

    def test_linear(self):
        x, w, b = rand(4, 5), rand(5, 3), rand(3)
        check_op(lambda t: linear(t, w, b), x)
        check_op(lambda t: linear(x, t, b), w)
        check_op(lambda t: linear(x, w, t), b)

    def test_project_heads_transposed_keys(self):
        # the query, key and value projections, keys held as (heads, d_k, n)
        args, bias = attention_inputs(4, 6, 2, np.random.default_rng(11))
        weight = RNG.normal(size=(4, 6))
        for b in (None, bias):
            def build(t, slot, b=b):
                return weighted_sum(self_attention(*args[:slot], t, *args[slot + 1 :], 2, b), weight)

            for slot in (1, 2, 3, 5, 6):  # wq, bq, wk, wv, bv
                check_op(lambda t, slot=slot: build(t, slot), args[slot])
            # A key bias moves every score of a row alike, which the softmax
            # ignores: its gradient vanishes.
            bk = args[4]
            bk.zero_grad()
            build(bk, 4).backward()
            assert np.max(np.abs(bk.grad)) < 1e-12
            bk.zero_grad()

    def test_merge_heads(self):
        # the head merge and the output projection
        args, bias = attention_inputs(4, 6, 3, np.random.default_rng(12))
        weight = RNG.normal(size=(4, 6))
        for slot in (7, 8):
            check_op(lambda t, slot=slot: weighted_sum(self_attention(*args[:slot], t, *args[slot + 1 :], 3, bias), weight), args[slot])

    def test_attention_weights(self):
        # the rows attend through the softmax weights; the bias enters them
        # directly, and one bias shared by two layers receives both gradients
        (h, *params), bias = attention_inputs(4, 6, 2, np.random.default_rng(13))
        bias.data[0, 1, 3] = -50.0  # a row with a vanishing weight
        weight = RNG.normal(size=(4, 6))
        for b in (None, bias):
            check_op(lambda t, b=b: weighted_sum(self_attention(t, *params, 2, b), weight), h)
        check_op(lambda t: weighted_sum(self_attention(h, *params, 2, t), weight), bias)
        (_, *other), _ = attention_inputs(4, 6, 2, np.random.default_rng(14))

        def shared(t):
            return add(self_attention(h, *params, 2, t), self_attention(h, *other, 2, t))

        check_op(lambda t: weighted_sum(shared(t), weight), bias)

    def test_gather_repeated_indices(self):
        table = rand(5, 3)
        idx = np.array([0, 2, 2, 4, 0, 0])
        check_op(lambda t: gather(t, idx), table)

    def test_gather_heads_repeated_indices(self):
        t1, t2 = rand(6, 2), rand(4, 2)
        i1, i2 = np.array([[0, 1], [5, 5]]), np.array([[3, 3], [3, 0]])
        weight = RNG.normal(size=(2, 2, 2))
        check_op(lambda t: weighted_sum(gather_heads([t, t2], [i1, i2]), weight), t1)
        check_op(lambda t: weighted_sum(gather_heads([t1, t], [i1, i2]), weight), t2)

    def test_concat_and_slices(self):
        a, b = rand(2, 3), rand(4, 3)
        check_op(lambda t: slice_rows(concat_rows([t, b]), 1, 5), a)

    def test_add_lookups(self):
        # repeated indices, two lookups into one table, and a table that is
        # itself a tape node (as in the fuse step)
        x, t1, t2 = rand(4, 7), rand(6, 2), rand(3, 5)
        i1, i2 = np.array([0, 5, 5, 0]), np.array([2, 2, 2, 1])
        weight = RNG.normal(size=(4, 7))

        def build(x, t1, t2):
            lookups = [(t1, i1, 0), (scale(t2, 1.5), i2, 2), (t1, i1[::-1], 5)]
            return weighted_sum(add_lookups(x, lookups), weight)

        check_op(lambda t: build(t, t1, t2), x)
        check_op(lambda t: build(x, t, t2), t1)
        check_op(lambda t: build(x, t1, t), t2)

    def test_layer_norm(self):
        args = [rand(4, 8), rand(4, 8), rand(8), rand(8)]  # h, delta, gain, bias
        w = RNG.normal(size=(4, 8))
        for slot in range(4):
            check_op(lambda t, slot=slot: weighted_sum(residual_layer_norm(*args[:slot], t, *args[slot + 1 :]), w), args[slot])

    def test_gelu(self):
        args = [rand(4, 6), rand(6, 12), rand(12), rand(12, 6), rand(6)]  # h, w1, b1, w2, b2
        for slot in range(5):
            check_op(lambda t, slot=slot: gelu_ffn(*args[:slot], t, *args[slot + 1 :]), args[slot])

    def test_cross_entropy(self):
        # targets over the first four of six rows, one of them ignored
        args = [rand(6, 5), rand(5, 4), rand(4)]  # x, w, b
        targets = np.array([0, 3, IGNORE_INDEX, 2])
        for slot in range(3):
            err = grad_check(lambda t, slot=slot: linear_cross_entropy(*args[:slot], t, *args[slot + 1 :], targets, 0.3), args[slot])
            assert err < 1e-6

    def test_linear_rows_prefix(self):
        x, w, b = rand(5, 4), rand(4, 3), rand(3)
        check_op(lambda t: linear(t, w, b, 2), x)
        check_op(lambda t: linear(x, t, b, 2), w)
        check_op(lambda t: linear(x, w, t, 2), b)

    def test_softmax_cross_entropy_composite(self):
        # attention ending in a cross-entropy loss
        h = rand(4, 6)
        w = Tensor(RNG.normal(size=(6, 3)))
        targets = np.array([0, 2, 1, 0])
        eye, zero = Tensor(np.eye(6)), Tensor(np.zeros(6))

        def f(t):
            h = self_attention(t, eye, zero, eye, zero, eye, zero, eye, zero, 1, None)
            return linear_cross_entropy(h, w, Tensor(np.zeros(3)), targets)

        assert grad_check(f, h) < 1e-6

    def test_grad_check_polynomial(self):
        theta = Tensor([[3.0]], requires_grad=True)
        err = grad_check(lambda t: weighted_sum(matmul(t, t)), theta)
        assert err < 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grad_check_nonfinite_gradient_counts_as_infinite(self, bad):
        def op(t):
            return _make(t.data * 2.0, (t,), lambda g: t._accumulate(np.full_like(t.data, bad)))

        theta = Tensor([1.0, 2.0], requires_grad=True)
        assert grad_check(lambda t: weighted_sum(op(t)), theta) == math.inf

    def test_grad_check_rejects_nonfinite(self):
        theta = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="not finite"):
            grad_check(lambda t: weighted_sum(scale(t, math.inf)), theta)


def twin(tensors):
    """Fresh leaves holding copies of the same data."""
    return [None if t is None else Tensor(t.data.copy(), requires_grad=True) for t in tensors]


def node_and_oracle(node, oracle, inputs, preset=()):
    """Forward and backward of ``node`` and of ``oracle`` on twin inputs,
    under one random upstream gradient; the inputs at the ``preset`` slots
    start with a gradient already there, as a shared tensor's would.
    Returns each run's output and input gradients as bytes."""
    runs = []
    upstream = None
    for fn in (node, oracle):
        args = twin(inputs)
        for slot in preset:
            args[slot].grad = np.linspace(-1.0, 1.0, args[slot].data.size).reshape(args[slot].shape)
        out = fn(*args)
        if upstream is None:
            upstream = np.random.default_rng(7).normal(size=out.shape)
        weighted_sum(out, upstream).backward()
        runs.append([out.data.tobytes()] + [None if a is None else a.grad.tobytes() for a in args])
    return runs


class TestSublayerNodesMatchComposedChain:
    """Each sublayer node against the composed ops it replaced: the output
    and every input gradient byte for byte."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
    def test_self_attention(self, heads, n, with_bias):
        args, bias = attention_inputs(n, 8, heads, np.random.default_rng(heads * 10 + n), bias=with_bias)
        # Fresh gradients; then h holding the residual's gradient, and a
        # bias holding an earlier layer's, both of which are added to.
        for preset in [(), (0,)] + ([(0, 9)] if with_bias else []):
            got, want = node_and_oracle(
                lambda *a: self_attention(*a[:9], heads, a[9]),
                lambda *a: composed_self_attention(*a[:9], heads, a[9]),
                [*args, bias],
                preset,
            )
            assert got == want, preset

    @pytest.mark.parametrize("n", [1, 5])
    def test_gelu_ffn(self, n):
        rng = np.random.default_rng(n)
        inputs = [Tensor(rng.normal(size=shape)) for shape in ((n, 8), (8, 32), (32,), (32, 8), (8,))]
        got, want = node_and_oracle(gelu_ffn, composed_gelu_ffn, inputs)
        assert got == want

    @pytest.mark.parametrize("n", [1, 5])
    def test_residual_layer_norm(self, n):
        rng = np.random.default_rng(n)
        inputs = [Tensor(rng.normal(size=shape)) for shape in ((n, 8), (n, 8), (8,), (8,))]
        got, want = node_and_oracle(residual_layer_norm, composed_residual_layer_norm, inputs)
        assert got == want
        # h holding a gradient already: the residual term is added to it
        got, want = node_and_oracle(residual_layer_norm, composed_residual_layer_norm, inputs, preset=(0,))
        assert got == want


class TestUntapedAttention:
    """Without a tape, ``self_attention`` scores its heads one at a time once
    all of them would pass ``_SCORE_TILE`` scores; a tape keeps every head's
    weights in one buffer for the backward pass. Either way the output is
    the same bits."""

    @pytest.mark.parametrize("heads, n", [(4, 1), (4, 128), (4, 129), (4, 200), (4, 287), (2, 287), (8, 100)])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
    def test_no_tape_matches_the_taped_node(self, heads, n, with_bias):
        # (4, 1) and (4, 128) hold at most _SCORE_TILE scores: one stacked pass.
        assert (heads * n * n > _SCORE_TILE) == (n > 128 or heads == 8)
        args, bias = attention_inputs(n, 64, heads, np.random.default_rng(n + heads), bias=with_bias)
        taped = self_attention(*args, heads, bias)
        assert taped._backward is not None
        with no_grad():
            off = self_attention(*args, heads, bias)
        # No tape either when no input requires a gradient.
        constants = [None if a is None else Tensor(a.data) for a in [*args, bias]]
        untaped = self_attention(*constants[:9], heads, constants[9])
        assert off._backward is None and untaped._backward is None
        assert off.data.tobytes() == taped.data.tobytes()
        assert untaped.data.tobytes() == taped.data.tobytes()

    def test_empty_sequence_rejected(self):
        args, _ = attention_inputs(0, 8, 2, RNG, bias=False)
        for mode in (contextlib.nullcontext, no_grad):
            with mode(), pytest.raises(ValueError):
                self_attention(*args, 2, None)

    def test_memory_peak(self):
        # The tracemalloc peak of one no-tape self_attention at max_len
        # (n = 512, heads 4, d 64), bias built before the trace: 3,395 KiB
        # with numpy 2.4.6, against 9,539 KiB while the weights of all four
        # heads were scored in one 8 MiB (heads, n, n) buffer; the bound is
        # half of that buffer. An upper bound; raising it loosens the check.
        args, bias = attention_inputs(512, 64, 4, np.random.default_rng(0))
        with no_grad():
            tracemalloc.start()
            try:
                self_attention(*args, 4, bias)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 3_400 * 1024, peak


def erf_edge_points():
    """The branch and table boundaries of cephes's erf and their neighbouring
    floats, the underflow cutoff ``a * a > MAXLOG``, subnormals and the
    non-finite values, each with both signs."""
    points = [0.0, 1e-300, 5e-324, 26.6, 27.0, 1e300, math.inf]
    for edge in (1.0, 8.0, math.sqrt(7.09782712893383996843e2)):
        points.append(edge)
        below = above = edge
        for _ in range(2):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            points += [below, above]
    points = np.array(points)
    return np.concatenate([points, -points])


class TestErf:
    """``_erf`` against ``scipy.special.erf``, whose cephes arithmetic it
    repeats: every output byte equal, into a fresh ``out`` and in place,
    without a floating-point warning."""

    @staticmethod
    def assert_bit_equal(x):
        want = scipy_erf(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = _erf(x, np.empty_like(x))
            inplace = x.copy()
            assert _erf(inplace, inplace) is inplace
        for got in (fresh, inplace):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [0.01, 0.3, 1.0, 3.0])
    def test_normal_samples(self, sigma):
        self.assert_bit_equal(np.random.default_rng(7).normal(0.0, sigma, (500, 200)))

    def test_uniform_samples(self):
        self.assert_bit_equal(np.random.default_rng(8).uniform(-30.0, 30.0, 100_000))

    def test_edge_points(self):
        points = erf_edge_points()
        self.assert_bit_equal(points)
        for x in points:
            self.assert_bit_equal(np.array([x]))

    def test_nan_among_finite_and_infinite(self):
        x = np.random.default_rng(9).normal(0.0, 2.0, 64)
        x[[3, 17, 40]] = math.nan
        x[[5, 6]] = math.inf, -math.inf
        self.assert_bit_equal(x)
        self.assert_bit_equal(np.array([math.nan]))


def input_node_cases():
    """(node, chain, inputs) per input node: repeated indices, and one table
    under two lookups. Every input is a tensor; the rest is closed over."""
    rng = np.random.default_rng(17)

    def t(*shape):
        return Tensor(rng.normal(size=shape))

    ids, raw = np.array([3, 0, 3, 3]), rng.normal(size=(3, 7))
    i1, i2 = np.array([0, 4, 4, 1, 0, 0, 2]), np.array([1, 1, 0, 1, 1, 0, 0])

    def fine(node):
        return lambda word, pw, pb, t1, t2: node(word, ids, raw, pw, pb, [(t2, i2, 0), (t1, i1, 1), (t1, i1[::-1], 4)])

    bits = (rng.random(size=(7, 3)) < 0.5).astype(np.float64)

    def coarse(node):
        return lambda agg, emb, proj, t1: node(agg, bits, emb, proj, [(t1, i1, 0), (t1, i1[::-1], 3)])

    return {
        "fine_input_sum": (fine(fine_input_sum), fine(chain_fine_input), [t(5, 6), t(7, 6), t(6), t(5, 2), t(2, 6)]),
        "coarse_input_sum": (coarse(coarse_input_sum), coarse(chain_coarse_input), [t(7, 6), t(3, 6), t(6, 6), t(5, 3)]),
    }


class TestInputAndLossNodes:
    """The one-node fine input, coarse input and head plus loss: finite
    differences, byte-equal outputs and gradients against the chains they
    replaced, and the errors of the ops those chains were built from."""

    @pytest.mark.parametrize("case", list(input_node_cases()))
    def test_grad_check_every_input(self, case):
        node, _, inputs = input_node_cases()[case]
        args = twin(inputs)
        weight = RNG.normal(size=node(*args).shape)
        for slot in range(len(args)):
            err = grad_check(lambda t, slot=slot: weighted_sum(node(*args[:slot], t, *args[slot + 1 :]), weight), args[slot])
            assert err < 1e-6, (case, slot)

    @pytest.mark.parametrize("case", list(input_node_cases()))
    def test_matches_the_chain(self, case):
        node, chain, inputs = input_node_cases()[case]
        # Fresh gradients; then the aggregate or a table holding one already.
        for preset in [(), (0,), (len(inputs) - 1,)]:
            got, want = node_and_oracle(node, chain, inputs, preset)
            assert got == want, preset

    @pytest.mark.parametrize("weight", [None, 1.0 / 3.0])
    @pytest.mark.parametrize("preset", [False, True], ids=["fresh", "preset"])
    def test_loss_matches_the_chain(self, weight, preset):
        rng = np.random.default_rng(19)
        inputs = [Tensor(rng.normal(size=shape)) for shape in ((6, 5), (5, 4), (4,))]
        targets = np.array([2, IGNORE_INDEX, 0, 3])
        runs = []
        for loss_of in (linear_cross_entropy, chain_cross_entropy):
            args = twin(inputs)
            if preset:
                args[1].grad = np.linspace(-1.0, 1.0, 20).reshape(5, 4)
            loss = loss_of(*args, targets, *(() if weight is None else (weight,)))
            loss.backward()
            runs.append([loss.data.tobytes()] + [a.grad.tobytes() for a in args])
        assert runs[0] == runs[1]

    def test_index_out_of_range(self):
        cases = input_node_cases()
        word, pw, pb, t1, t2 = cases["fine_input_sum"][2]
        raw = np.zeros((2, 7))
        with pytest.raises(ValueError, match="fine_input_sum index out of range for table with 5 rows"):
            fine_input_sum(word, [0, 5], raw, pw, pb, [])
        with pytest.raises(ValueError, match="fine_input_sum index out of range for table with 5 rows"):
            fine_input_sum(word, [0, 1], raw, pw, pb, [(t1, [0, 1, 2, -1], 0)])
        agg, emb, proj, t1 = cases["coarse_input_sum"][2]
        with pytest.raises(ValueError, match="coarse_input_sum index out of range for table with 5 rows"):
            coarse_input_sum(agg, np.zeros((7, 3)), emb, proj, [(t1, np.full(7, 5), 0)])

    def test_shape_errors(self):
        cases = input_node_cases()
        word, pw, pb, t1, t2 = cases["fine_input_sum"][2]
        raw = np.zeros((2, 7))
        with pytest.raises(ValueError, match="shape mismatch in linear"):
            fine_input_sum(word, [0], np.zeros((2, 6)), pw, pb, [])
        with pytest.raises(ValueError, match="fine_input_sum shapes"):
            fine_input_sum(Tensor(np.zeros((5, 4))), [0], raw, pw, pb, [])
        with pytest.raises(ValueError, match="fine_input_sum shapes"):
            fine_input_sum(word, [[0]], raw, pw, pb, [])
        with pytest.raises(ValueError, match="fine_input_sum shapes"):
            fine_input_sum(word, [0, 1], raw, pw, pb, [(t1, [0, 1, 2], 0)])  # 4 rows, 3 indices
        with pytest.raises(ValueError, match="fine_input_sum shapes"):
            fine_input_sum(word, [0, 1], raw, pw, pb, [(t1, [0, 1, 2, 3], 5)])  # past the last column
        agg, emb, proj, t1 = cases["coarse_input_sum"][2]
        with pytest.raises(ValueError, match="coarse_input_sum shapes"):
            coarse_input_sum(agg, np.zeros((6, 3)), emb, proj, [])
        with pytest.raises(ValueError, match="coarse_input_sum shapes"):
            coarse_input_sum(agg, np.zeros((7, 3)), emb, Tensor(np.zeros((6, 5))), [])
        with pytest.raises(ValueError, match="coarse_input_sum shapes"):
            coarse_input_sum(agg, np.zeros((7, 3)), emb, proj, [(t1, np.zeros(7), -1)])


class TestTapeMechanics:
    def test_accumulation_through_reuse(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = add(matmul(x, x), matmul(x, x))
        weighted_sum(y).backward()
        assert x.grad[0, 0] == pytest.approx(8.0)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            rand(2, 2).backward()

    def test_no_grad_suppresses_tape(self):
        x = rand(2, 2)
        with no_grad():
            y = matmul(x, x)
        assert y._backward is None and not y.requires_grad

    def test_zero_grad(self):
        x = rand(2, 2)
        weighted_sum(matmul(x, x)).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_iterative_topo(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = add(y, x)
        weighted_sum(y).backward()
        assert x.grad[0] == pytest.approx(3001.0)


class TestTapeRelease:
    """``backward()`` drops each node's closure and parents as it runs
    them, so the saved activations go while the caller still holds the
    loss, and the released graph cannot be swept again."""

    def test_stage_data_freed_while_loss_held(self):
        rng = np.random.default_rng(5)
        x, w1, b1, w2, b2 = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((6, 4), (4, 5), (5,), (5, 3), (3,)))
        h = linear(x, w1, b1)
        stage = weakref.ref(h.data)
        loss = linear_cross_entropy(h, w2, b2, [0, 2, 1, IGNORE_INDEX, 2, 0])
        del h
        loss.backward()
        assert stage() is None
        assert loss.grad is not None and all(t.grad is not None for t in (x, w1, b1, w2, b2))

    def test_second_backward_raises(self):
        x = rand(3, 3)
        loss = weighted_sum(matmul(x, x))
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        assert x.grad.tobytes() == first.tobytes()

    def test_new_graph_over_released_node_raises(self):
        x = rand(3, 3)
        y = matmul(x, x)
        weighted_sum(y).backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            weighted_sum(y).backward()
        assert x.grad.tobytes() == first.tobytes()

    def test_leaf_root_is_not_released(self):
        x = Tensor([[2.0]], requires_grad=True)
        x.backward()
        weighted_sum(matmul(x, x)).backward()
        assert x.grad.tolist() == [[5.0]]


def tape_gradients(build, inputs, preset=()):
    """Backward of ``build`` on twin inputs under a fixed upstream gradient;
    the inputs at the ``preset`` slots start with a gradient already there.
    Returns every tensor of the graph, in walk order."""
    args = twin(inputs)
    for slot in preset:
        args[slot].grad = np.linspace(-1.0, 1.0, args[slot].data.size).reshape(args[slot].shape)
    out = build(*args)
    loss = weighted_sum(out, np.random.default_rng(7).normal(size=out.shape))
    tensors = tape_tensors(loss)
    loss.backward()
    return tensors


def shared_input_cases():
    rng = np.random.default_rng(3)

    def t(*shape):
        return Tensor(rng.normal(size=shape))

    attn, bias = attention_inputs(5, 8, 2, rng)

    def two_layers(*a):
        # One spatial bias under two layers, as in the fine encoder: the
        # second layer's backward leaves bias.grad, the first adds to it.
        return self_attention(self_attention(*a[:9], 2, a[9]), *a[1:9], 2, a[9])

    return {
        "add(a, a)": (lambda a, w: matmul(add(a, a), w), [t(3, 4), t(4, 2)], ()),
        "concat_rows([a, a])": (lambda a, w: matmul(concat_rows([a, a]), w), [t(3, 4), t(4, 2)], ()),
        "residual_layer_norm(h, delta)": (residual_layer_norm, [t(3, 8), t(3, 8), t(8), t(8)], ()),
        "residual_layer_norm(h, h)": (lambda h, g, b: residual_layer_norm(h, h, g, b), [t(3, 8), t(8), t(8)], ()),
        "add_lookups": (lambda x, tab: add_lookups(x, [(tab, [0, 2, 0], 1)]), [t(3, 4), t(3, 2)], ()),
        "attention bias, two layers": (two_layers, [*attn, bias], ()),
        "attention bias preset": (lambda *a: self_attention(*a[:9], 2, a[9]), [*attn, bias], (0, 9)),
    }


class TestOwnedGradients:
    """A first gradient is copied into a C-contiguous ``.grad`` that the
    tensor owns, and later ones are added into it in place, so no two
    tensors' gradients share memory, even where one input feeds several
    consumers."""

    @pytest.mark.parametrize("case", list(shared_input_cases()))
    def test_shared_inputs(self, case):
        build, inputs, preset = shared_input_cases()[case]
        assert gradients_sharing_memory(tape_gradients(build, inputs, preset)) == []

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_first_gradient_is_copied(self, layout):
        base = np.arange(24.0).reshape(4, 6)
        g = {"C": base[:, :3].copy(), "F": np.asfortranarray(base[:, :3]), "strided": base[:, ::2]}[layout]
        t = rand(4, 3)
        t._accumulate(g)
        assert t.grad is not g
        assert not np.shares_memory(t.grad, g)
        assert t.grad.flags.c_contiguous
        first = t.grad
        t._accumulate(g)
        assert t.grad is first
        assert t.grad.tobytes() == np.ascontiguousarray(g * 2.0).tobytes()

    def test_constant_input_gets_no_gradient(self):
        x, w, b = rand(3, 4, rg=False), rand(4, 2), rand(2)
        weighted_sum(linear(x, w, b)).backward()
        assert x.grad is None and w.grad is not None and b.grad is not None
        args, bias = attention_inputs(3, 4, 2, np.random.default_rng(1))
        h, bias = Tensor(args[0].data), Tensor(bias.data)
        weighted_sum(self_attention(h, *args[1:], 2, bias)).backward()
        assert h.grad is None and bias.grad is None and args[1].grad is not None


class TestScatterAdd:
    """The flat scatter-add behind ``gather`` and ``add_lookups`` against a
    row-wise ``np.add.at``, byte for byte: repeated indices, a gradient
    already there, index arrays of any shape and tables of any rank."""

    @pytest.mark.parametrize("table_shape, idx", [
        ((6, 3), [0, 5, 0, 2, 0, 5]),
        ((6,), [[1, 1], [4, 1]]),
        ((4, 2, 3), [3, 3, 0]),
        ((5, 2), []),
    ])
    @pytest.mark.parametrize("preset", [False, True], ids=["fresh", "preset"])
    def test_matches_row_wise_add_at(self, table_shape, idx, preset):
        rng = np.random.default_rng(len(idx))
        idx = np.asarray(idx, dtype=np.int64)
        # Terms of very different magnitudes, so any other order of the
        # sums would show in the bits.
        g = rng.normal(size=idx.shape + table_shape[1:]) * 10.0 ** rng.integers(-8, 8, size=idx.shape + table_shape[1:])
        table = Tensor(np.zeros(table_shape), requires_grad=True)
        want = np.zeros(table_shape)
        if preset:
            table.grad = rng.normal(size=table_shape)
            want = table.grad.copy()
        np.add.at(want, idx, g)
        _scatter_add(table, idx, g)
        assert table.grad.tobytes() == want.tobytes()

    def test_column_block_of_a_non_contiguous_gradient(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(5, 8))
        table = Tensor(np.zeros((3, 3)), requires_grad=True)
        table.grad = np.asfortranarray(rng.normal(size=(3, 3)))
        want = table.grad.copy()
        idx = np.array([2, 0, 2, 2, 1])
        np.add.at(want, idx, g[:, 4:7])
        _scatter_add(table, idx, g[:, 4:7])
        assert table.grad.tobytes() == np.ascontiguousarray(want).tobytes()

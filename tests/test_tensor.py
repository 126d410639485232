import math

import numpy as np
import pytest

from docgrain.tensor import (
    IGNORE_INDEX,
    Tensor,
    add,
    add_lookups,
    attention_weights,
    concat_rows,
    cross_entropy,
    gather,
    gather_heads,
    gelu,
    grad_check,
    layer_norm,
    linear,
    matmul,
    merge_heads,
    mul,
    no_grad,
    project_heads,
    relu,
    scale,
    slice_rows,
)

from .reference_impls import softmax

RNG = np.random.default_rng(0)


def rand(*shape, rg=True):
    return Tensor(RNG.normal(size=shape), requires_grad=rg)


def check_op(build, theta, tol=1e-6):
    """Finite-difference check of sum(op(theta)) against the tape."""
    err = grad_check(lambda t: build(t).sum(), theta)
    assert err < tol, f"max relative error {err}"


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
        out = layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_layer_norm_already_normalized(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_layer_norm_statistics(self):
        x = RNG.normal(size=(4, 32)) * 3 + 1
        out = layer_norm(Tensor(x), Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = cross_entropy(logits, [0, 1, 2])
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_cross_entropy_confident(self):
        logits = np.full((1, 4), -50.0)
        logits[0, 2] = 50.0
        assert cross_entropy(Tensor(logits), [2]).item() == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(RNG.normal(size=(4, 3)))
        full = cross_entropy(slice_rows(logits, 0, 2), [0, 1])
        half = cross_entropy(logits, [0, 1, IGNORE_INDEX, IGNORE_INDEX])
        assert half.item() == pytest.approx(full.item(), abs=1e-12)

    def test_cross_entropy_all_ignored(self):
        with pytest.raises(ValueError, match="all positions ignored"):
            cross_entropy(rand(2, 3, rg=False), [IGNORE_INDEX, IGNORE_INDEX])

    def test_add_shape_error(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            add(rand(2, 3), rand(3, 3))

    def test_gather_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            gather(rand(4, 2), [0, 4])

    def test_matmul_stacked_matches_per_matrix(self):
        a, b = RNG.normal(size=(3, 4, 5)), RNG.normal(size=(3, 5, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(got, np.stack([a[i] @ b[i] for i in range(3)]))
        with pytest.raises(ValueError, match=r"\(3, 4, 5\) vs \(2, 5, 2\)"):
            matmul(Tensor(a), rand(2, 5, 2))

    def test_project_heads_is_column_blocks(self):
        x, w, b = RNG.normal(size=(5, 4)), RNG.normal(size=(4, 6)), RNG.normal(size=6)
        full = x @ w + b
        q = project_heads(Tensor(x), Tensor(w), Tensor(b), 3).data
        kt = project_heads(Tensor(x), Tensor(w), Tensor(b), 3, keys=True).data
        assert q.shape == (3, 5, 2) and kt.shape == (3, 2, 5)
        for i in range(3):
            assert np.array_equal(q[i], full[:, 2 * i : 2 * i + 2])
            assert np.array_equal(kt[i], full[:, 2 * i : 2 * i + 2].T)
        with pytest.raises(ValueError, match="not divisible"):
            project_heads(Tensor(x), Tensor(w), Tensor(b), 4)

    def test_merge_heads_inverts_project_heads(self):
        x = RNG.normal(size=(5, 6))
        eye, zero = Tensor(np.eye(6)), Tensor(np.zeros(6))
        heads = project_heads(Tensor(x), eye, zero, 3)
        assert np.array_equal(merge_heads(heads, eye, zero).data, x)

    def test_attention_weights_match_composed_softmax(self):
        q, kt, bias = RNG.normal(size=(2, 4, 3)), RNG.normal(size=(2, 3, 5)), RNG.normal(size=(2, 4, 5))
        bias[1, 2, 0] = -50.0
        got = attention_weights(Tensor(q), Tensor(kt), Tensor(bias), 0.5).data
        want = softmax(q @ kt * 0.5 + bias)
        assert np.array_equal(got, want)
        plain = attention_weights(Tensor(q), Tensor(kt), None, 0.5).data
        assert np.array_equal(plain, softmax(q @ kt * 0.5))
        with pytest.raises(ValueError, match="shape mismatch"):
            attention_weights(Tensor(q), Tensor(kt), Tensor(bias[:, :3]), 0.5)

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


class TestGradients:
    def test_add_broadcast_rows(self):
        a = rand(4, 3)
        b = rand(3)
        check_op(lambda t: add(t, b), a)
        check_op(lambda t: add(a, t), b)

    def test_mul(self):
        a, b = rand(3, 4), rand(3, 4)
        check_op(lambda t: mul(t, b), a)

    def test_scale_and_neg(self):
        check_op(lambda t: scale(t, -2.5), rand(3, 3))

    def test_matmul(self):
        a, b = rand(4, 5), rand(5, 2)
        check_op(lambda t: matmul(t, b), a)
        check_op(lambda t: matmul(a, t), b)

    def test_matmul_stacked(self):
        a, b = rand(3, 4, 5), rand(3, 5, 2)
        check_op(lambda t: matmul(t, b), a)
        check_op(lambda t: matmul(a, t), b)

    @pytest.mark.parametrize("shapes", [((4, 5), (5, 2)), ((3, 4, 5), (3, 5, 2))], ids=["matrix", "stacked"])
    def test_matmul_skips_constant_operand(self, shapes):
        a_data, b_data = RNG.normal(size=shapes[0]), RNG.normal(size=shapes[1])
        g = RNG.normal(size=(a_data @ b_data).shape)
        for const_left in (True, False):
            const = Tensor(a_data if const_left else b_data)
            live = Tensor(b_data if const_left else a_data, requires_grad=True)
            both = [Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)]
            out = matmul(const, live) if const_left else matmul(live, const)
            mul(out, Tensor(g)).sum().backward()
            mul(matmul(*both), Tensor(g)).sum().backward()
            assert const.grad is None
            assert np.array_equal(live.grad, both[1 if const_left else 0].grad)

    def test_linear(self):
        x, w, b = rand(4, 5), rand(5, 3), rand(3)
        check_op(lambda t: linear(t, w, b), x)
        check_op(lambda t: linear(x, t, b), w)
        check_op(lambda t: linear(x, w, t), b)

    def test_project_heads_transposed_keys(self):
        # (heads, n, d_k) for queries and values, (heads, d_k, n) for keys
        x, w, b = rand(4, 5), rand(5, 6), rand(6)
        for keys, shape in ((False, (2, 4, 3)), (True, (2, 3, 4))):
            weight = Tensor(RNG.normal(size=shape))
            check_op(lambda t: mul(project_heads(t, w, b, 2, keys), weight), x)
            check_op(lambda t: mul(project_heads(x, t, b, 2, keys), weight), w)
            check_op(lambda t: mul(project_heads(x, w, t, 2, keys), weight), b)

    def test_merge_heads(self):
        a, w, b = rand(3, 4, 2), rand(6, 5), rand(5)
        weight = Tensor(RNG.normal(size=(4, 5)))
        check_op(lambda t: mul(merge_heads(t, w, b), weight), a)
        check_op(lambda t: mul(merge_heads(a, t, b), weight), w)
        check_op(lambda t: mul(merge_heads(a, w, t), weight), b)

    def test_attention_weights(self):
        # weighted, since each softmax row sums to one whatever the scores
        q, kt = rand(2, 4, 3), rand(2, 3, 5)
        bias = Tensor(RNG.normal(size=(2, 4, 5)), requires_grad=True)
        bias.data[0, 1, 3] = -50.0  # a row with a vanishing weight
        weight = Tensor(RNG.normal(size=(2, 4, 5)))
        for b in (None, bias):
            check_op(lambda t: mul(attention_weights(t, kt, b, 0.7), weight), q)
            check_op(lambda t: mul(attention_weights(q, t, b, 0.7), weight), kt)
        check_op(lambda t: mul(attention_weights(q, kt, t, 0.7), weight), bias)
        # one bias shared by two layers receives the sum of both gradients
        check_op(lambda t: mul(add(attention_weights(q, kt, t, 0.7), attention_weights(q, kt, t, -0.3)), weight), bias)

    def test_gather_repeated_indices(self):
        table = rand(5, 3)
        idx = np.array([0, 2, 2, 4, 0, 0])
        check_op(lambda t: gather(t, idx), table)

    def test_gather_heads_repeated_indices(self):
        t1, t2 = rand(6, 2), rand(4, 2)
        i1, i2 = np.array([[0, 1], [5, 5]]), np.array([[3, 3], [3, 0]])
        weight = Tensor(RNG.normal(size=(2, 2, 2)))
        check_op(lambda t: mul(gather_heads([t, t2], [i1, i2]), weight), t1)
        check_op(lambda t: mul(gather_heads([t1, t], [i1, i2]), weight), t2)

    def test_concat_and_slices(self):
        a, b = rand(2, 3), rand(4, 3)
        check_op(lambda t: slice_rows(concat_rows([t, b]), 1, 5), a)

    def test_add_lookups(self):
        # repeated indices, two lookups into one table, and a table that is
        # itself a tape node (as in the fuse step)
        x, t1, t2 = rand(4, 7), rand(6, 2), rand(3, 5)
        i1, i2 = np.array([0, 5, 5, 0]), np.array([2, 2, 2, 1])
        weight = Tensor(RNG.normal(size=(4, 7)))

        def build(x, t1, t2):
            lookups = [(t1, i1, 0), (scale(t2, 1.5), i2, 2), (t1, i1[::-1], 5)]
            return mul(add_lookups(x, lookups), weight)

        check_op(lambda t: build(t, t1, t2), x)
        check_op(lambda t: build(x, t, t2), t1)
        check_op(lambda t: build(x, t1, t), t2)

    def test_layer_norm(self):
        x, g, b = rand(4, 8), rand(8), rand(8)
        w = Tensor(RNG.normal(size=(4, 8)))
        check_op(lambda t: mul(layer_norm(t, g, b), w), x)
        check_op(lambda t: mul(layer_norm(x, t, b), w), g)
        check_op(lambda t: mul(layer_norm(x, g, t), w), b)

    def test_gelu(self):
        check_op(lambda t: gelu(t), rand(4, 6))

    def test_relu_away_from_kink(self):
        x = RNG.normal(size=(4, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_op(lambda t: relu(t), Tensor(x, requires_grad=True))

    def test_cross_entropy(self):
        logits = rand(5, 4)
        targets = np.array([0, 3, IGNORE_INDEX, 2, 1])
        err = grad_check(lambda t: cross_entropy(t, targets), logits)
        assert err < 1e-6

    def test_softmax_cross_entropy_composite(self):
        # attention-style composition ending in a cross-entropy loss
        h = rand(4, 6)
        w = Tensor(RNG.normal(size=(6, 3)))
        targets = np.array([0, 2, 1, 0])

        eye, zero = Tensor(np.eye(6)), Tensor(np.zeros(6))

        def f(t):
            q = project_heads(t, eye, zero, 1)
            weights = attention_weights(q, project_heads(t, eye, zero, 1, keys=True), None, 1.0)
            return cross_entropy(merge_heads(matmul(weights, q), w, Tensor(np.zeros(3))), targets)

        assert grad_check(f, h) < 1e-6

    def test_grad_check_polynomial(self):
        theta = Tensor([3.0], requires_grad=True)
        err = grad_check(lambda t: mul(t, t).sum(), theta)
        assert err < 1e-8

    def test_grad_check_rejects_nonfinite(self):
        theta = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="not finite"):
            grad_check(lambda t: mul(t, Tensor([np.inf])).sum(), theta)


class TestTapeMechanics:
    def test_accumulation_through_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = add(mul(x, x), mul(x, x))
        y.sum().backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            rand(2, 2).backward()

    def test_no_grad_suppresses_tape(self):
        x = rand(2, 2)
        with no_grad():
            y = mul(x, x)
        assert y._backward is None and not y.requires_grad

    def test_zero_grad(self):
        x = rand(2, 2)
        mul(x, x).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_iterative_topo(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = add(y, x)
        y.sum().backward()
        assert x.grad[0] == pytest.approx(3001.0)

    def test_dropout_identity_at_zero(self):
        from docgrain.tensor import dropout

        x = rand(3, 3)
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

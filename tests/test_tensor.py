import math

import numpy as np
import pytest

from qgen.tensor import (
    Parameter,
    ShapeError,
    Tensor,
    add,
    attention,
    backward,
    check_gradients,
    concat_last,
    cross_entropy_with_logits,
    dropout,
    embedding,
    layer_norm,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    softmax_rows,
    swap_axes,
    transpose,
    tsum,
)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity_left(self):
        m = np.arange(9.0).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_identity_right(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_hand_example(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_matches_triple_loop_exactly_on_integers(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, k, n = rng.integers(1, 7, size=3)
            a = rng.integers(-9, 10, size=(m, k)).astype(float)
            b = rng.integers(-9, 10, size=(k, n)).astype(float)
            np.testing.assert_array_equal(matmul(Tensor(a), Tensor(b)).data,
                                          naive_matmul(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) x \(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 2, 3, 5))
        b = rng.normal(size=(5, 2))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)


class TestSoftmaxRows:
    def test_single_element_row(self):
        out = softmax_rows(Tensor([[3.7]]))
        np.testing.assert_allclose(out.data, [[1.0]])

    def test_constant_row(self):
        out = softmax_rows(Tensor([[2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=10.0, size=(6, 8))
        out = softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(6), atol=1e-9)
        assert (out >= 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        base = softmax_rows(Tensor(x)).data
        shifted = softmax_rows(Tensor(x + 123.456)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            softmax_rows(Tensor([[1.0, float("nan")]]))


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter(np.arange(6.0).reshape(2, 3), "p")
        backward(tsum(p))
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_quadratic_gives_value(self):
        p = Parameter(np.array([1.0, -2.0, 3.0]), "p")
        backward(mul(0.5, tsum(mul(p, p))))
        np.testing.assert_allclose(p.grad, p.data)

    def test_two_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        w1 = Parameter(rng.normal(size=(4, 5)), "w1")
        w2 = Parameter(rng.normal(size=(5, 3)), "w2")
        x = Tensor(rng.normal(size=(2, 4)))
        weights = Tensor(rng.normal(size=(2, 3)))

        def f():
            return tsum(mul(softmax_rows(matmul(relu(matmul(x, w1)), w2)), weights))

        assert check_gradients(f, w1, step=1e-5) < 1e-4
        assert check_gradients(f, w2, step=1e-5) < 1e-4

    def test_rejects_non_scalar_loss(self):
        p = Parameter(np.ones(3), "p")
        with pytest.raises(ShapeError, match="scalar"):
            backward(mul(p, 2.0))

    def test_reused_operand_accumulates(self):
        p = Parameter(np.array([3.0]), "p")
        backward(tsum(mul(p, p)))
        np.testing.assert_allclose(p.grad, [6.0])

    def test_gradients_accumulate_across_passes(self):
        p = Parameter(np.ones(2), "p")
        backward(tsum(p))
        backward(tsum(p))
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])


class TestCheckGradients:
    def test_linear_is_exact(self):
        p = Parameter(np.array([1.0, 2.0, 3.0]), "p")
        err = check_gradients(lambda: tsum(mul(p, 4.0)), p)
        assert err < 1e-10

    def test_softmax_of_matmul(self):
        rng = np.random.default_rng(5)
        p = Parameter(rng.normal(size=(3, 4)), "p")
        x = Tensor(rng.normal(size=(2, 3)))
        weights = Tensor(rng.normal(size=(2, 4)))
        err = check_gradients(lambda: tsum(mul(softmax_rows(matmul(x, p)), weights)), p)
        assert err < 1e-4

    def test_zero_step_rejected(self):
        p = Parameter(np.ones(2), "p")
        with pytest.raises(ValueError, match="positive"):
            check_gradients(lambda: tsum(p), p, step=0.0)

    def test_nondeterministic_function_rejected(self):
        p = Parameter(np.ones(2), "p")
        rng = np.random.default_rng(6)

        def f():
            return tsum(mul(p, rng.normal()))

        with pytest.raises(ValueError, match="deterministic"):
            check_gradients(f, p)


def _embedding_case(p):
    return tsum(embedding(p, np.array([[0, 2], [1, 1]])))


def _cross_entropy_case(p):
    return cross_entropy_with_logits(p, np.array([1, 0, 2]), pad_id=None)


def _cross_entropy_pad_case(p):
    return cross_entropy_with_logits(p, np.array([1, 0, 2]), pad_id=2)


def _layer_norm_case(p):
    gain = Parameter(np.ones(p.shape[-1]), "g")
    bias = Parameter(np.zeros(p.shape[-1]), "b")
    weights = Tensor(np.arange(1.0, 1.0 + p.data.size).reshape(p.shape))
    return tsum(mul(layer_norm(p, gain, bias), weights))


PRIMITIVE_CASES = [
    ("add_broadcast", (3, 4), lambda p: tsum(add(p, Tensor(np.arange(4.0))))),
    ("mul_broadcast", (3, 4), lambda p: tsum(mul(p, Tensor(np.arange(1.0, 5.0))))),
    ("matmul", (4, 5), lambda p: tsum(matmul(Tensor(np.ones((3, 4))), p))),
    ("transpose", (3, 5), lambda p: tsum(matmul(transpose(p), Tensor(np.ones((3, 2)))))),
    ("swap_axes", (2, 3, 4), lambda p: tsum(mul(swap_axes(p, 0, 1), 2.0))),
    ("reshape", (2, 6), lambda p: tsum(matmul(reshape(p, (3, 4)), Tensor(np.ones((4, 2)))))),
    ("relu", (4, 4), lambda p: tsum(relu(p))),
    ("softmax_rows", (3, 6), lambda p: tsum(mul(softmax_rows(p), Tensor(np.arange(6.0))))),
    ("layer_norm", (4, 8), _layer_norm_case),
    ("embedding", (5, 3), _embedding_case),
    ("cross_entropy", (3, 7), _cross_entropy_case),
    ("cross_entropy_pad", (3, 7), _cross_entropy_pad_case),
    ("concat_last", (3, 4), lambda p: tsum(concat_last([p, Tensor(np.ones((3, 2)))]))),
]


@pytest.mark.parametrize("name,shape,builder", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, shape, builder):
    """Every primitive op's analytic gradient agrees with central differences
    at 1e-4 relative error on randomized small shapes."""
    rng = np.random.default_rng(hash(name) % 2**32)
    p = Parameter(rng.normal(size=shape), "p")
    assert check_gradients(lambda: builder(p), p, step=1e-5) < 1e-4


class TestStructuralOps:
    def test_concat_then_split_round_trip(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        joined = concat_last([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(joined.data[:, :3], a)
        np.testing.assert_array_equal(joined.data[:, 3:], b)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            concat_last([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))])

    def test_shape_data_contract(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.shape == (3, 4)
        assert np.prod(t.shape) == t.data.size
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.data.dtype == np.float64


class TestEmbedding:
    def test_lookup_rows(self):
        table = Parameter(np.arange(12.0).reshape(4, 3), "e")
        out = embedding(table, np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_out_of_range_rejected(self):
        table = Parameter(np.ones((4, 3)), "e")
        with pytest.raises(ShapeError, match="range"):
            embedding(table, np.array([4]))

    def test_repeated_ids_accumulate_gradient(self):
        table = Parameter(np.zeros((3, 2)), "e")
        backward(tsum(embedding(table, np.array([1, 1, 1]))))
        np.testing.assert_array_equal(table.grad, [[0, 0], [3, 3], [0, 0]])


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((4, 11)))
        out = cross_entropy_with_logits(logits, np.zeros(4, dtype=int))
        assert out.item() == pytest.approx(math.log(11), abs=1e-12)

    def test_all_pad_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            cross_entropy_with_logits(Tensor(np.zeros((2, 3))),
                                      np.array([0, 0]), pad_id=0)

    def test_pad_positions_excluded(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 50.0
        out = cross_entropy_with_logits(Tensor(logits), np.array([1, 0]), pad_id=0)
        assert out.item() == pytest.approx(0.0, abs=1e-12)


class TestNoGrad:
    def test_no_graph_recorded(self):
        p = Parameter(np.ones(3), "p")
        with no_grad():
            out = mul(p, 2.0)
        assert not out.requires_grad
        assert out._parents == ()

    def test_dropout_eval_mode_is_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert dropout(x, 0.5, None) is x

    def test_dropout_scales_kept_entries(self):
        rng = np.random.default_rng(8)
        x = Tensor(np.ones((100, 100)))
        out = dropout(x, 0.25, rng)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1 / 0.75)


class TestRandomizedShapeGradients:
    """Gradients agree with central differences on randomized shapes up to 8x8."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(1, 9, size=3)
        p = Parameter(rng.normal(size=(int(m), int(k))), "p")
        right = Tensor(rng.normal(size=(int(k), int(n))))
        weights = Tensor(rng.normal(size=(int(m), int(n))))
        gain = Parameter(np.ones(int(n)), "g")
        bias = Parameter(np.zeros(int(n)), "b")

        def f():
            h = layer_norm(matmul(p, right), gain, bias)
            return tsum(mul(softmax_rows(relu(h)), weights))

        for target in (p, gain, bias):
            assert check_gradients(f, target, step=1e-5) < 1e-4


def composed_attention(q, k, v, mask=None):
    """Scaled dot-product attention as a chain of primitive nodes: the graph
    the fused attention node replaces, kept as its oracle."""
    scores = mul(matmul(q, transpose(k)), 1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = add(scores, mask)
    return matmul(softmax_rows(scores), v)


def _pad_mask(rng, b, m):
    """(b, 1, 1, m) additive mask hiding a random tail of each row's keys."""
    mask = np.zeros((b, 1, 1, m))
    for i, n in enumerate(rng.integers(1, m + 1, size=b)):
        mask[i, ..., n:] = -1e9
    return mask


def _causal_mask(m):
    return np.triu(np.full((m, m), -1e9), k=1)


# (name, q rows, k rows, mask builder)
ATTENTION_MASKS = [
    ("no_mask", 3, 5, lambda rng: None),
    ("pad_mask", 3, 5, lambda rng: _pad_mask(rng, 2, 5)),
    ("causal_mask", 4, 4, lambda rng: _causal_mask(4)),
]


class TestFusedAttention:
    """attention is one node; its gradients reach q, k and v directly."""

    def _operands(self, seed, mq, mk):
        rng = np.random.default_rng(seed)
        q = Parameter(rng.normal(size=(2, 3, mq, 4)), "q")
        k = Parameter(rng.normal(size=(2, 3, mk, 4)), "k")
        v = Parameter(rng.normal(size=(2, 3, mk, 5)), "v")
        weights = Tensor(rng.normal(size=(2, 3, mq, 5)))
        return rng, q, k, v, weights

    @pytest.mark.parametrize("name,mq,mk,make_mask", ATTENTION_MASKS,
                             ids=[c[0] for c in ATTENTION_MASKS])
    def test_gradients_match_finite_differences(self, name, mq, mk, make_mask):
        rng, q, k, v, weights = self._operands(10, mq, mk)
        mask = make_mask(rng)

        def f():
            return tsum(mul(attention(q, k, v, mask), weights))

        for p in (q, k, v):
            assert check_gradients(f, p, step=1e-5) < 1e-4, p.name

    @pytest.mark.parametrize("name,mq,mk,make_mask", ATTENTION_MASKS,
                             ids=[c[0] for c in ATTENTION_MASKS])
    def test_matches_composed_graph(self, name, mq, mk, make_mask):
        rng, q, k, v, weights = self._operands(11, mq, mk)
        mask = make_mask(rng)
        results = []
        for op in (attention, composed_attention):
            for p in (q, k, v):
                p.zero_grad()
            out = op(q, k, v, mask)
            backward(tsum(mul(out, weights)))
            results.append([out.data, q.grad, k.grad, v.grad])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_is_one_node_over_q_k_v(self):
        rng, q, k, v, _ = self._operands(12, 3, 5)
        out = attention(q, k, v, Tensor(_pad_mask(rng, 2, 5)))
        assert out._parents == (q, k, v)

    def test_keeps_non_finite_score_check(self):
        rng, q, k, v, _ = self._operands(13, 3, 5)
        q.data[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or infinity"):
            attention(q, k, v)

    def test_mask_must_broadcast(self):
        _, q, k, v, _ = self._operands(14, 3, 5)
        with pytest.raises(ShapeError, match="mask"):
            attention(q, k, v, np.zeros((3, 4)))


class TestMatmulWeightGradient:
    """An N-d x 2-d product's weight gradient is the sum of the per-slice
    products a_i^T g_i over every leading index i."""

    @pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["3d_x_2d", "4d_x_2d"])
    def test_equals_sum_of_slice_products(self, lead):
        rng = np.random.default_rng(15)
        a = Tensor(rng.normal(size=(*lead, 4, 5)))
        w = Parameter(rng.normal(size=(5, 6)), "w")
        g = rng.normal(size=(*lead, 4, 6))
        backward(tsum(mul(matmul(a, w), Tensor(g))))
        want = np.zeros((5, 6))
        for i in np.ndindex(*lead):
            want += a.data[i].T @ g[i]
        np.testing.assert_allclose(w.grad, want, rtol=0, atol=1e-12)


class TestGradientLifetime:
    """After backward only the loss and the leaves hold a .grad, and each
    leaf's gradient is an array of its own."""

    def _graph(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Parameter(rng.normal(size=(4, 2)), "w")
        hidden = add(x, y)
        loss = tsum(relu(matmul(reshape(transpose(transpose(hidden)), (3, 4)), w)))
        return x, y, w, loss

    @staticmethod
    def _nodes(loss):
        seen, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        return list(seen.values())

    def test_leaf_gradients_are_values_of_their_own(self):
        x, y, w, loss = self._graph()
        backward(loss)
        active = (((x.data + y.data) @ w.data) > 0).astype(float)
        want_xy = active @ w.data.T
        np.testing.assert_array_equal(x.grad, want_xy)
        np.testing.assert_array_equal(y.grad, want_xy)
        np.testing.assert_array_equal(w.grad, (x.data + y.data).T @ active)
        assert not np.shares_memory(x.grad, y.grad)
        x.grad[0, 0] += 100.0
        np.testing.assert_array_equal(y.grad, want_xy)

    def test_no_intermediate_keeps_a_gradient(self):
        x, y, w, loss = self._graph()
        backward(loss)
        intermediates = [n for n in self._nodes(loss) if n._parents and n is not loss]
        assert len(intermediates) == 6
        assert all(n.grad is None for n in intermediates)
        assert loss.grad is not None

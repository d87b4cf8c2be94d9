import math
import re
import weakref

import numpy as np
import pytest

from qgen.model import ModelConfig, TransformerModel
from qgen.tensor import (
    Parameter,
    ShapeError,
    Tensor,
    _result,
    add,
    attention,
    backward,
    concat_last,
    cross_entropy_with_logits,
    dropout,
    embedding,
    gather_rows,
    layer_norm,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    scatter_rows,
    softmax_rows,
    swap_axes,
    transpose,
)
from gradcheck import check_gradients


def total(t):
    """The sum of t's entries as a scalar node, built from reshape and matmul."""
    ones = Tensor(np.ones((t.data.size, 1), t.data.dtype))
    return reshape(matmul(reshape(t, (1, -1)), ones), ())


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

    @pytest.mark.parametrize("right", [(2, 3, 4), (2, 2, 3, 4)], ids=["3d", "4d"])
    def test_right_operand_must_be_2d(self, right):
        left = (2, 5, 3)
        with pytest.raises(ShapeError, match=re.escape(f"{left} and {right}")):
            matmul(Tensor(np.ones(left)), Tensor(np.ones(right)))

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
        backward(total(p))
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_quadratic_gives_value(self):
        p = Parameter(np.array([1.0, -2.0, 3.0]), "p")
        backward(mul(0.5, total(mul(p, p))))
        np.testing.assert_allclose(p.grad, p.data)

    def test_two_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        w1 = Parameter(rng.normal(size=(4, 5)), "w1")
        w2 = Parameter(rng.normal(size=(5, 3)), "w2")
        x = Tensor(rng.normal(size=(2, 4)))
        weights = Tensor(rng.normal(size=(2, 3)))

        def f():
            return total(mul(softmax_rows(matmul(relu(matmul(x, w1)), w2)), weights))

        assert check_gradients(f, w1, step=1e-5) < 1e-4
        assert check_gradients(f, w2, step=1e-5) < 1e-4

    def test_rejects_non_scalar_loss(self):
        p = Parameter(np.ones(3), "p")
        with pytest.raises(ShapeError, match="scalar"):
            backward(mul(p, 2.0))

    def test_reused_operand_accumulates(self):
        p = Parameter(np.array([3.0]), "p")
        backward(total(mul(p, p)))
        np.testing.assert_allclose(p.grad, [6.0])

    def test_a_graph_takes_one_pass(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        shared = mul(p, p)
        loss = total(shared)
        backward(loss)
        np.testing.assert_array_equal(p.grad, [2.0, -4.0])
        with pytest.raises(ValueError, match="consumed"):
            backward(loss)
        with pytest.raises(ValueError, match="consumed"):
            backward(total(mul(shared, 3.0)))
        np.testing.assert_array_equal(p.grad, [2.0, -4.0])

    def test_gradients_accumulate_across_passes(self):
        p = Parameter(np.ones(2), "p")
        backward(total(p))
        backward(total(p))
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])


class TestCheckGradients:
    def test_linear_is_exact(self):
        p = Parameter(np.array([1.0, 2.0, 3.0]), "p")
        err = check_gradients(lambda: total(mul(p, 4.0)), p)
        assert err < 1e-10

    def test_softmax_of_matmul(self):
        rng = np.random.default_rng(5)
        p = Parameter(rng.normal(size=(3, 4)), "p")
        x = Tensor(rng.normal(size=(2, 3)))
        weights = Tensor(rng.normal(size=(2, 4)))
        err = check_gradients(lambda: total(mul(softmax_rows(matmul(x, p)), weights)), p)
        assert err < 1e-4

    def test_zero_step_rejected(self):
        p = Parameter(np.ones(2), "p")
        with pytest.raises(ValueError, match="positive"):
            check_gradients(lambda: total(p), p, step=0.0)

    def test_nondeterministic_function_rejected(self):
        p = Parameter(np.ones(2), "p")
        rng = np.random.default_rng(6)

        def f():
            return total(mul(p, rng.normal()))

        with pytest.raises(ValueError, match="deterministic"):
            check_gradients(f, p)


def _embedding_case(p):
    return total(embedding(p, np.array([[0, 2], [1, 1]])))


def _cross_entropy_case(p):
    return cross_entropy_with_logits(p, np.array([1, 0, 2]), pad_id=None)


def _cross_entropy_pad_case(p):
    return cross_entropy_with_logits(p, np.array([1, 0, 2]), pad_id=2)


def _cross_entropy_smoothed_pad_case(p):
    return cross_entropy_with_logits(p, np.array([[1, 0, 2], [2, 4, 3]]), pad_id=2,
                                     label_smoothing=0.1)


def _layer_norm_case(p):
    gain = Parameter(np.ones(p.shape[-1]), "g")
    bias = Parameter(np.zeros(p.shape[-1]), "b")
    weights = Tensor(np.arange(1.0, 1.0 + p.data.size).reshape(p.shape))
    return total(mul(layer_norm(p, gain, bias), weights))


# Rows of unequal lengths, one of them empty: 5 true positions of (3, 4).
ROWS = np.array([[True, True, False, False], [False] * 4, [True, True, True, False]])


def _gather_rows_case(p):
    weights = Tensor(np.arange(1.0, 11.0).reshape(5, 2))
    return total(mul(gather_rows(p, ROWS), weights))


def _scatter_rows_case(p):
    weights = Tensor(np.arange(1.0, 25.0).reshape(3, 4, 2))
    return total(mul(scatter_rows(p, ROWS), weights))


PRIMITIVE_CASES = [
    ("add_broadcast", (3, 4), lambda p: total(add(p, Tensor(np.arange(4.0))))),
    ("mul_broadcast", (3, 4), lambda p: total(mul(p, Tensor(np.arange(1.0, 5.0))))),
    ("matmul", (4, 5), lambda p: total(matmul(Tensor(np.ones((3, 4))), p))),
    ("transpose", (3, 5), lambda p: total(matmul(transpose(p), Tensor(np.ones((3, 2)))))),
    ("swap_axes", (2, 3, 4), lambda p: total(mul(swap_axes(p, 0, 1), 2.0))),
    ("reshape", (2, 6), lambda p: total(matmul(reshape(p, (3, 4)), Tensor(np.ones((4, 2)))))),
    ("relu", (4, 4), lambda p: total(relu(p))),
    ("softmax_rows", (3, 6), lambda p: total(mul(softmax_rows(p), Tensor(np.arange(6.0))))),
    ("layer_norm", (4, 8), _layer_norm_case),
    ("embedding", (5, 3), _embedding_case),
    ("cross_entropy", (3, 7), _cross_entropy_case),
    ("cross_entropy_pad", (3, 7), _cross_entropy_pad_case),
    ("cross_entropy_smoothed_pad", (2, 3, 7), _cross_entropy_smoothed_pad_case),
    ("concat_last", (3, 4), lambda p: total(concat_last([p, Tensor(np.ones((3, 2)))]))),
    ("gather_rows", (3, 4, 2), _gather_rows_case),
    ("scatter_rows", (5, 2), _scatter_rows_case),
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


class TestRows:
    def test_scatter_undoes_gather_and_fills_zeros(self):
        x = np.arange(24.0).reshape(3, 4, 2)
        packed = gather_rows(Tensor(x), ROWS)
        np.testing.assert_array_equal(packed.data, x[ROWS])
        np.testing.assert_array_equal(scatter_rows(packed, ROWS).data,
                                      np.where(ROWS[..., None], x, 0.0))

    def test_row_count_must_match_the_mask(self):
        with pytest.raises(ShapeError, match="4 rows for a mask of 5"):
            scatter_rows(Tensor(np.ones((4, 2))), ROWS)
        with pytest.raises(ShapeError, match="does not lead"):
            gather_rows(Tensor(np.ones((4, 3, 2))), ROWS)


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
        backward(total(embedding(table, np.array([1, 1, 1]))))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "-inf row"])
    def test_row_without_a_finite_maximum_rejected(self, bad):
        logits = np.zeros((2, 3))
        if bad == "-inf row":
            logits[1] = -np.inf
        else:
            logits[1, 2] = bad
        with pytest.raises(ValueError, match="cross entropy: logits contain NaN"):
            cross_entropy_with_logits(Tensor(logits), np.array([0, 1]))

    def test_pad_positions_excluded(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 50.0
        out = cross_entropy_with_logits(Tensor(logits), np.array([1, 0]), pad_id=0)
        assert out.item() == pytest.approx(0.0, abs=1e-12)

    def test_label_smoothing_mixes_in_the_mean_log_probability(self):
        logits = np.array([[0.5, -1.0, 2.0, 0.0], [1.0, 1.0, -3.0, 0.25],
                           [9.0, 9.0, 9.0, 9.0]])
        targets = np.array([2, 3, 0])
        out = cross_entropy_with_logits(Tensor(logits), targets, pad_id=0,
                                        label_smoothing=0.1)
        expected = 0.0
        for row, t in zip(logits[:2], targets[:2]):
            logp = row - math.log(sum(math.exp(x) for x in row))
            expected -= 0.9 * logp[t] + 0.1 * logp.mean()
        assert out.item() == pytest.approx(expected / 2, abs=1e-12)


class TestNoGrad:
    def test_no_graph_recorded(self):
        p = Parameter(np.ones(3), "p")
        with no_grad():
            out = mul(p, 2.0)
        assert not out.requires_grad
        assert out.node is None

    def test_backward_refuses_a_loss_with_no_graph(self):
        p = Parameter(np.ones(3), "p")
        with no_grad():
            loss = total(mul(p, 2.0))
        with pytest.raises(ValueError, match="no recorded graph"):
            backward(loss)
        with pytest.raises(ValueError, match="no recorded graph"):
            backward(total(Tensor(np.ones(3))))
        np.testing.assert_array_equal(p.grad, np.zeros(3))

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
            return total(mul(softmax_rows(relu(h)), weights))

        for target in (p, gain, bias):
            assert check_gradients(f, target, step=1e-5) < 1e-4


def _sum_to(x, shape):
    """x summed down to shape over the axes numpy broadcasting added."""
    x = x.sum(axis=tuple(range(x.ndim - len(shape))))
    ones = tuple(i for i, n in enumerate(shape) if n == 1 and x.shape[i] != 1)
    return x.sum(axis=ones, keepdims=True) if ones else x


def batched_matmul(a, b):
    """a @ b over the last two axes with leading axes broadcast, as a node
    written here: qgen's matmul takes only a 2-d right operand."""
    ad, bd = a.data, b.data
    out = _result(ad @ bd, (a, b))
    if out.node is not None:
        out.node.backward = lambda g: (
            _sum_to(g @ np.swapaxes(bd, -1, -2), ad.shape),
            _sum_to(np.swapaxes(ad, -1, -2) @ g, bd.shape),
        )
    return out


def plain_softmax(x):
    """Softmax over the last axis as a node written here, forward and
    backward in plain numpy."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = _result(y, (x,))
    if out.node is not None:
        out.node.backward = lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),)
    return out


def composed_attention(q, k, v, mask=None):
    """Scaled dot-product attention as a chain of nodes, the fused attention
    node's oracle. Its product and softmax are written above, so they share
    no code with the node they check."""
    scores = mul(batched_matmul(q, transpose(k)), 1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = add(scores, mask)
    return batched_matmul(plain_softmax(scores), v)


def softmax_of_scores(q, k, v, mask):
    """softmax_rows called directly on the masked attention scores."""
    scores = q.data @ np.swapaxes(k.data, -1, -2) / np.sqrt(q.shape[-1])
    return softmax_rows(Tensor(scores + mask.data))


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
            return total(mul(attention(q, k, v, mask), weights))

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
            backward(total(mul(out, weights)))
            results.append([out.data, q.grad, k.grad, v.grad])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_is_one_node_over_q_k_v(self):
        rng, q, k, v, _ = self._operands(12, 3, 5)
        out = attention(q, k, v, Tensor(_pad_mask(rng, 2, 5)))
        assert out.node.parents == (q.node, k.node, v.node)

    def test_keeps_non_finite_score_check(self):
        rng, q, k, v, _ = self._operands(13, 3, 5)
        q.data[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or infinity"):
            attention(q, k, v)

    @pytest.mark.parametrize("op", [attention, softmax_of_scores],
                             ids=["attention", "softmax_rows"])
    @pytest.mark.parametrize("damage", ["nan_in_q", "neg_inf_in_mask"])
    def test_rejects_other_non_finite_scores(self, op, damage):
        _, q, k, v, _ = self._operands(13, 3, 5)
        mask = np.zeros((2, 1, 1, 5))
        if damage == "nan_in_q":
            q.data[1, 2, 0, 3] = np.nan
        else:
            mask[1, 0, 0, 4] = -np.inf
        with pytest.raises(ValueError, match="NaN or infinity"):
            op(q, k, v, Tensor(mask))

    def test_mask_must_broadcast(self):
        _, q, k, v, _ = self._operands(14, 3, 5)
        with pytest.raises(ShapeError, match="mask"):
            attention(q, k, v, np.zeros((3, 4)))


def out_of_place_attention(q, k, v, mask, g):
    """The fused node's output and gradients, each step into a new array;
    the masked scores keep the scores' dtype."""
    scale = float(1.0 / np.sqrt(q.shape[-1]))
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    if mask is not None:
        scores = (scores + mask).astype(scores.dtype)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    gp = g @ np.swapaxes(v, -1, -2)
    gs = (probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))) * scale
    return (probs @ v, _sum_to(gs @ k, q.shape),
            _sum_to(np.swapaxes(gs, -1, -2) @ q, k.shape),
            _sum_to(np.swapaxes(probs, -1, -2) @ g, v.shape))


# (name, q/k/v leading shape, mask shape or None, mask dtype or None for q's)
IN_PLACE_CASES = [
    ("no_mask", (2, 3), None, None),
    ("pad_mask", (2, 3), (2, 1, 1, 5), None),
    ("causal_mask", (2, 3), (4, 5), None),
    ("mask_broadcasts_larger", (3,), (2, 1, 4, 5), None),
    ("float64_mask", (2, 3), (2, 1, 1, 5), np.float64),
]


class TestAttentionInPlace:
    """attention works in place only on arrays it made: the operands, the
    mask and the incoming gradient stay as they were, and every result equals
    the out-of-place formula bit for bit. A mask that would widen the scores
    is a ShapeError."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name,lead,mask_shape,mask_dtype", IN_PLACE_CASES,
                             ids=[c[0] for c in IN_PLACE_CASES])
    def test_writes_into_no_array_it_is_given(self, name, lead, mask_shape,
                                              mask_dtype, dtype):
        rng = np.random.default_rng(30)
        q, k, v = (rng.normal(size=(*lead, m, n)).astype(dtype)
                   for m, n in ((4, 6), (5, 6), (5, 3)))
        mask = None
        if mask_shape is not None:
            mask = np.where(rng.random(mask_shape) < 0.3, -1e9, 0.0)
            mask[..., 0] = 0.0
            mask = mask.astype(mask_dtype or dtype)
        given = [a for a in (q, k, v, mask) if a is not None]
        before = [a.copy() for a in given]
        operands = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        if name == "mask_broadcasts_larger":
            with pytest.raises(ShapeError, match="does not broadcast"):
                attention(*operands, mask)
            return
        out = attention(*operands, mask)
        g = rng.normal(size=out.shape).astype(out.data.dtype)
        g_before = g.copy()
        got = [out.data, *out.node.backward(g)]
        for a, b in zip(given + [g], before + [g_before]):
            np.testing.assert_array_equal(a, b)
        for x, want in zip(got, out_of_place_attention(q, k, v, mask, g)):
            assert x.dtype == want.dtype and x.shape == want.shape
            np.testing.assert_array_equal(x, want)


class TestMatmulWeightGradient:
    """An N-d x 2-d product's weight gradient is the sum of the per-slice
    products a_i^T g_i over every leading index i."""

    @pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["3d_x_2d", "4d_x_2d"])
    def test_equals_sum_of_slice_products(self, lead):
        rng = np.random.default_rng(15)
        a = Tensor(rng.normal(size=(*lead, 4, 5)))
        w = Parameter(rng.normal(size=(5, 6)), "w")
        g = rng.normal(size=(*lead, 4, 6))
        backward(total(mul(matmul(a, w), Tensor(g))))
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
        loss = total(relu(matmul(reshape(transpose(transpose(hidden)), (3, 4)), w)))
        return x, y, w, loss

    @staticmethod
    def _nodes(loss):
        seen, stack = {}, [loss.node]
        while stack:
            node = stack.pop()
            if node is not None and id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node.parents)
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
        intermediates = [n for n in self._nodes(loss) if n.parents and n is not loss.node]
        assert len(intermediates) == 8  # six ops, and total's matmul and reshape
        assert all(n.grad is None for n in intermediates)
        assert loss.grad is not None


class TestRetention:
    """A node keeps only the arrays its backward rule reads: an intermediate
    whose array no rule reads is freed once the forward code drops it."""

    @staticmethod
    def _leaves():
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        gain = Parameter(rng.normal(size=4), "gain")
        bias = Parameter(rng.normal(size=4), "bias")
        w = Parameter(rng.normal(size=(4, 5)), "w")
        return x, y, gain, bias, w, rng.integers(0, 5, size=6)

    def test_only_read_arrays_outlive_their_tensors(self):
        x, y, gain, bias, w, targets = self._leaves()
        alive = {}
        h = add(x, y)
        alive["add"] = weakref.ref(h.data)
        h = layer_norm(h, gain, bias)
        alive["layer_norm"] = weakref.ref(h.data)
        h = relu(h)
        alive["relu"] = weakref.ref(h.data)
        h = matmul(dropout(h, 0.25, np.random.default_rng(18)), w)
        alive["logits"] = weakref.ref(h.data)
        loss = cross_entropy_with_logits(h, targets)
        del h
        assert alive["add"]() is None
        assert alive["layer_norm"]() is None
        assert alive["logits"]() is None
        assert alive["relu"]() is not None  # relu's mask is its output > 0
        backward(loss)

        ref = self._leaves()
        kept = [add(ref[0], ref[1])]
        kept.append(layer_norm(kept[-1], ref[2], ref[3]))
        kept.append(relu(kept[-1]))
        kept.append(dropout(kept[-1], 0.25, np.random.default_rng(18)))
        kept.append(matmul(kept[-1], ref[4]))
        backward(cross_entropy_with_logits(kept[-1], ref[5]))
        for got, want in zip((x, y, gain, bias, w), ref):
            np.testing.assert_array_equal(got.grad, want.grad)


def _owner(a):
    """The array that owns a's memory (a itself unless a is a view)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class TestRecordedGraphHolds:
    """A training forward pass records only the arrays its rules read, seen
    the way a closure keeps them: through its cells."""

    B, S, T, D, H, FF, V = 3, 7, 5, 8, 2, 16, 16  # batch, lengths, widths, vocab

    def _graph(self):
        cfg = ModelConfig(vocab_size=self.V, d_model=self.D, num_heads=self.H,
                          enc_layers=2, dec_layers=2, d_ff=self.FF, max_positions=16,
                          dropout=0.25, pad_id=0, bos_id=2, eos_id=3)
        model = TransformerModel(cfg, seed=19)
        rng = np.random.default_rng(20)
        src = rng.integers(4, self.V, size=(self.B, self.S))
        dec_in = rng.integers(4, self.V, size=(self.B, self.T))
        tgt = rng.integers(4, self.V, size=(self.B, self.T))
        logits = model.forward(src, dec_in, rng=np.random.default_rng(21))
        loss = cross_entropy_with_logits(logits, tgt, pad_id=0)
        held = []  # (rule name, node, arrays in its closure)
        seen, stack = set(), [loss.node]
        while stack:
            node = stack.pop()
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.parents)
            if node.backward is not None:
                cells = [c.cell_contents for c in node.backward.__closure__ or ()]
                arrays = [c for c in cells if isinstance(c, np.ndarray)]
                held.append((node.backward.__qualname__.split(".")[0], node, arrays))
        params = {id(_owner(p.data)) for p in model.parameters()}
        return held, params

    def test_dropout_keeps_a_boolean_mask(self):
        held, _ = self._graph()
        masks = [arrays for rule, _, arrays in held if rule == "dropout"]
        assert len(masks) == 2 + 2 * 2 + 3 * 2  # embeddings, encoder, decoder layers
        for arrays in masks:
            assert [a.dtype for a in arrays] == [np.dtype(bool)]

    def test_mul_and_add_keep_nothing_for_a_constant(self):
        held, _ = self._graph()
        constant = [(rule, arrays) for rule, node, arrays in held
                    if rule in ("mul", "add") and None in node.parents]
        # x * sqrt(d) and x + positions, for the encoder and the decoder
        assert sorted(rule for rule, _ in constant) == ["add", "add", "mul", "mul"]
        for rule, arrays in constant:
            assert all(a.size <= 1 for a in arrays), rule

    def test_total_bytes_held(self):
        held, params = self._graph()
        owners = {id(_owner(a)): _owner(a) for _, _, arrays in held for a in arrays}
        got = sum(a.nbytes for key, a in owners.items() if key not in params)
        B, S, T, D, H, FF, V = self.B, self.S, self.T, self.D, self.H, self.FF, self.V
        f, n = 8, 8  # float64 values, int64 ids
        def norm(m):
            """A layer norm's x-hat and inverse deviations, and its output,
            which the products reading it keep."""
            return f * (2 * m * D + m)

        # Attention keeps its probabilities and the packed q, k and v.
        encoder = (norm(B * S)
                   + f * B * H * S * S + 3 * f * B * S * D  # probabilities, q k v
                   + f * B * S * D + B * S * D       # merged heads, dropout mask
                   + norm(B * S) + f * B * S * FF + B * S * D)  # ln2, relu, mask
        decoder = (norm(B * T) + f * B * H * T * T + 3 * f * B * T * D
                   + f * B * T * D + B * T * D       # self-attention
                   + norm(B * T) + f * B * H * T * S + f * B * T * D
                   + 2 * f * B * S * D + f * B * T * D + B * T * D  # cross-attention
                   + norm(B * T) + f * B * T * FF + B * T * D)  # feed-forward
        # Each stack's real-row masks, which scatter and gather keep: the
        # encoder's, and the decoder's own and its source's.
        rows = B * S + B * T + B * S
        want = (n * B * S + f + B * S * D            # ids, sqrt(d), dropout mask
                + 2 * encoder + norm(B * S)          # layers, final norm + output
                + n * B * T + f + B * T * D
                + 2 * decoder + norm(B * T)
                + f * B * T * V + 2 * n * B * T + B * T  # log-probs, targets, valid
                + rows)
        assert got == want

import math

import numpy as np
import pytest

from qgen.tensor import (
    Parameter,
    ShapeError,
    Tensor,
    add,
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

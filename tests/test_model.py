import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.generation import GenerationConfig, beam_search
from qgen.model import (
    ModelConfig,
    MultiHeadParams,
    ParameterMaker,
    TransformerModel,
    attention,
    multi_head,
    positional_encoding,
    read_container,
    write_container,
)
from qgen.tensor import (
    ShapeError,
    Tensor,
    backward,
    cross_entropy_with_logits,
    no_grad,
)
from gradcheck import check_gradients
from test_tensor import composed_attention


def small_config(**kw):
    base = dict(vocab_size=16, d_model=8, num_heads=2, enc_layers=2, dec_layers=2,
                d_ff=16, max_positions=16, dropout=0.0, pad_id=0, bos_id=2, eos_id=3)
    base.update(kw)
    return ModelConfig(**base)


def naive_attention(q, k, v, mask=None):
    """Independent straight-line evaluation of scaled dot-product attention."""
    d = q.shape[-1]
    scores = q @ k.T / math.sqrt(d)
    if mask is not None:
        scores = scores + mask
    out = np.zeros_like(scores)
    for i, row in enumerate(scores):
        e = np.exp(row - row.max())
        out[i] = e / e.sum()
    return out @ v


class TestPositionalEncoding:
    def test_row_zero_alternates(self):
        table = positional_encoding(4, 6).data
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_entries_bounded(self):
        table = positional_encoding(50, 16).data
        assert (np.abs(table) <= 1.0).all()

    def test_formula_value(self):
        table = positional_encoding(4, 8).data
        assert table[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
        assert table[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            positional_encoding(4, 7)

    def test_models_of_one_shape_share_one_read_only_table(self):
        a = TransformerModel(small_config(), seed=0)
        b = TransformerModel(small_config(vocab_size=12), seed=1)
        assert a.positions.data is b.positions.data
        with pytest.raises(ValueError, match="read-only"):
            a.positions.data[0, 0] = 1.0


class TestAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(5, 3)))
        k = Tensor(rng.normal(size=(1, 3)))
        v = Tensor(rng.normal(size=(1, 4)))
        out = attention(q, k, v)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 5, axis=0), atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(3, 4)))
        k = Tensor(np.tile(rng.normal(size=(1, 4)), (6, 1)))
        v = Tensor(rng.normal(size=(6, 2)))
        out = attention(q, k, v)
        expect = np.tile(v.data.mean(axis=0), (3, 1))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_closed_form_two_keys(self):
        q = Tensor([[1.0, 0.0]])
        k = Tensor([[1.0, 0.0], [0.0, 1.0]])
        v = Tensor([[1.0, 0.0], [0.0, 1.0]])
        out = attention(q, k, v).data[0]
        w = math.exp(1 / math.sqrt(2)) / (math.exp(1 / math.sqrt(2)) + 1.0)
        np.testing.assert_allclose(out, [w, 1 - w], atol=1e-12)
        np.testing.assert_allclose(out, [0.6698, 0.3302], atol=5e-5)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mq, mk, d, dv = rng.integers(1, 9, size=4)
            q = rng.normal(size=(mq, d))
            k = rng.normal(size=(mk, d))
            v = rng.normal(size=(mk, dv))
            got = attention(Tensor(q), Tensor(k), Tensor(v)).data
            np.testing.assert_allclose(got, naive_attention(q, k, v), atol=1e-10)

    def test_mask_forbids_positions(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(2, 4)))
        k = Tensor(rng.normal(size=(3, 4)))
        v = Tensor(rng.normal(size=(3, 4)))
        mask = np.array([0.0, -1e9, 0.0])
        out = attention(q, k, v, mask=Tensor(mask))
        only = attention(Tensor(q.data), Tensor(k.data[[0, 2]]), Tensor(v.data[[0, 2]]))
        np.testing.assert_allclose(out.data, only.data, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            attention(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))),
                      Tensor(np.ones((5, 3))))


class TestMultiHead:
    def test_single_identity_head_reduces_to_attention(self):
        d = 6
        rng = np.random.default_rng(4)
        params = MultiHeadParams(d, 1, ParameterMaker(rng), "t")
        params.wq.data = np.eye(d)
        params.wk.data = np.eye(d)
        params.wv.data = np.eye(d)
        params.wo.data = np.eye(d)
        x = Tensor(rng.normal(size=(5, d)))
        got = multi_head(x, params)
        want = attention(x, x, x)
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_output_shape(self):
        rng = np.random.default_rng(5)
        params = MultiHeadParams(8, 4, ParameterMaker(rng), "t")
        x = Tensor(rng.normal(size=(3, 8)))
        assert multi_head(x, params).shape == (3, 8)

    def test_two_heads_match_straight_line_evaluation(self):
        d, h = 4, 2
        dh = d // h
        rng = np.random.default_rng(6)
        params = MultiHeadParams(d, h, ParameterMaker(rng), "t")
        x = rng.normal(size=(2, d))
        got = multi_head(Tensor(x), params).data
        heads = []
        for i in range(h):
            q = x @ params.wq.data[:, i * dh:(i + 1) * dh]
            k = x @ params.wk.data[:, i * dh:(i + 1) * dh]
            v = x @ params.wv.data[:, i * dh:(i + 1) * dh]
            heads.append(naive_attention(q, k, v))
        want = np.concatenate(heads, axis=-1) @ params.wo.data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_no_model_path_concatenates_weights(self, monkeypatch):
        """Each projection is one stored matrix: neither a training pass nor
        a beam search joins weights at call time."""
        def refuse(parts):
            raise AssertionError("concat_last called")

        monkeypatch.setattr("qgen.model.concat_last", refuse)
        model = TransformerModel(small_config(dropout=0.1), seed=3)
        src, tgt = np.array([[4, 5, 6, 7]]), np.array([[8, 9, 3]])
        dec_in = np.array([[2, 8, 9]])
        loss = cross_entropy_with_logits(
            model.forward(src, dec_in, rng=np.random.default_rng(0)), tgt, pad_id=0)
        backward(loss)
        assert all(np.isfinite(p.grad).all() for p in model.parameters())
        cfg = GenerationConfig(beam_width=4, max_length=6)
        assert beam_search(model, [4, 5, 6, 7], cfg)

    def test_cross_attention_uses_kv_sequence(self):
        d = 4
        rng = np.random.default_rng(7)
        params = MultiHeadParams(d, 2, ParameterMaker(rng), "t")
        x_q = Tensor(rng.normal(size=(3, d)))
        memory = Tensor(rng.normal(size=(5, d)))
        out = multi_head(x_q, params, memory=memory)
        assert out.shape == (3, d)

    def test_batched_equals_per_sequence(self):
        d = 6
        rng = np.random.default_rng(8)
        params = MultiHeadParams(d, 3, ParameterMaker(rng), "t")
        batch = rng.normal(size=(4, 5, d))
        together = multi_head(Tensor(batch), params).data
        for b in range(4):
            alone = multi_head(Tensor(batch[b]), params).data
            np.testing.assert_allclose(together[b], alone, atol=1e-12)


class TestForward:
    def test_logits_shape(self):
        model = TransformerModel(small_config(), seed=0)
        logits = model.forward(np.array([[4, 5, 6, 0]]), np.array([[2, 7, 8]]))
        assert logits.shape == (1, 3, 16)

    def test_single_sequence_input(self):
        model = TransformerModel(small_config(), seed=0)
        logits = model.forward(np.array([4, 5, 6]), np.array([2, 7]))
        assert logits.shape == (2, 16)

    def test_pad_tail_is_inert(self):
        """A [PAD]-only tail of any length must not influence the logits."""
        model = TransformerModel(small_config(), seed=1)
        dec = np.array([[2, 7, 8]])
        bare = model.forward(np.array([[4, 5, 6]]), dec).data
        for extra in (1, 2, 5):
            padded = np.array([[4, 5, 6] + [0] * extra])
            np.testing.assert_allclose(model.forward(padded, dec).data, bare,
                                       atol=1e-10)

    def test_causality(self):
        model = TransformerModel(small_config(), seed=2)
        rng = np.random.default_rng(0)
        src = rng.integers(4, 16, size=(1, 6))
        dec = rng.integers(4, 16, size=(1, 5))
        base = model.forward(src, dec).data
        for j in range(1, 5):
            perturbed = dec.copy()
            perturbed[0, j:] = (perturbed[0, j:] + 3) % 12 + 4
            got = model.forward(src, perturbed).data
            np.testing.assert_array_equal(base[0, :j], got[0, :j])

    def test_id_out_of_range(self):
        model = TransformerModel(small_config(), seed=0)
        with pytest.raises(ShapeError, match="range"):
            model.forward(np.array([[99]]), np.array([[2]]))

    def test_deterministic_given_seed(self):
        a = TransformerModel(small_config(), seed=9)
        b = TransformerModel(small_config(), seed=9)
        src = np.array([[4, 5, 6]])
        dec = np.array([[2, 7]])
        np.testing.assert_array_equal(a.forward(src, dec).data, b.forward(src, dec).data)

    def test_dropout_changes_training_pass_only(self):
        model = TransformerModel(small_config(dropout=0.2), seed=3)
        src, dec = np.array([[4, 5, 6]]), np.array([[2, 7]])
        eval_a = model.forward(src, dec).data
        eval_b = model.forward(src, dec).data
        np.testing.assert_array_equal(eval_a, eval_b)
        train_a = model.forward(src, dec, rng=np.random.default_rng(0)).data
        assert not np.array_equal(train_a, eval_a)


def check_steps(model, src, steps, selections=()):
    """Step model's decoder over src (1, m): the ids of steps[0] (rows,)
    first, then before each later steps[i] the rows selections[i - 1].
    Each step's logits must equal, within 1e-12, the last position's of a
    teacher-forced decode of that row's whole prefix. Returns the stepper."""
    with no_grad():
        enc_out, src_ids = model.encode(src)
        stepper = model.stepper(enc_out.data, src_ids)
        prefixes = np.empty((len(steps[0]), 0), dtype=np.int64)
        for i, ids in enumerate(steps):
            if i:
                stepper.select(selections[i - 1])
                prefixes = prefixes[selections[i - 1]]
            prefixes = np.concatenate([prefixes, np.asarray(ids)[:, None]], axis=1)
            got = stepper.step(ids)
            want = model.decode(enc_out, src_ids, prefixes).data[:, -1]
            assert got.shape == (len(ids), model.config.vocab_size)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    return stepper


class TestCachedDecode:
    # Rows kept after each step, as a beam keeps them: repeated, reordered
    # and dropped.
    SELECTIONS = ([0, 0, 0], [2, 0, 0, 1], [3, 1], [1, 1, 0], [2, 0, 1, 1])

    def test_last_row_logits_match_full_prefix_decode(self):
        """The stepper against the teacher-forced decode of each prefix, with
        a source that ends in [PAD] and a [PAD] decoded mid-sequence."""
        configs = (
            small_config(),
            small_config(share_embeddings=False, dec_layers=1),
            ModelConfig(vocab_size=398),  # the CLI-default shape
        )
        for cfg in configs:
            model = TransformerModel(cfg, seed=11)
            rng = np.random.default_rng(5)
            src = rng.integers(4, cfg.vocab_size, size=(1, 9))
            src[0, -2:] = cfg.pad_id
            steps = [np.array([cfg.bos_id]), np.array([5]), np.array([cfg.pad_id])]
            for step, rows in enumerate(self.SELECTIONS):
                new = rng.integers(4, cfg.vocab_size, size=len(rows))
                new[step % len(rows)] = cfg.pad_id
                steps.append(new)
            selections = ([0], [0], *self.SELECTIONS)
            stepper = check_steps(model, src, steps, selections)
            assert stepper.length == len(steps)

    def test_source_without_pad_and_rows_from_the_start(self):
        model = TransformerModel(small_config(), seed=14)
        bos = model.config.bos_id
        steps = [np.array([bos, bos]), np.array([7, 9]), np.array([4, 4, 11])]
        check_steps(model, np.array([[4, 5, 6, 7]]), steps, ([1, 0], [0, 1, 1]))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_steps_match_decode_on_random_searches(self, data):
        heads = data.draw(st.sampled_from([1, 2]))
        cfg = small_config(vocab_size=8, d_model=4, num_heads=heads, d_ff=8,
                           enc_layers=1, dec_layers=data.draw(st.integers(1, 2)),
                           max_positions=8,
                           share_embeddings=data.draw(st.booleans()))
        model = TransformerModel(cfg, seed=data.draw(st.integers(0, 3)))
        ids = st.integers(0, cfg.vocab_size - 1)
        src = data.draw(st.lists(ids, min_size=1, max_size=6))
        rows = data.draw(st.integers(1, 3))
        steps, selections = [np.full(rows, cfg.bos_id)], []
        for _ in range(data.draw(st.integers(0, 6))):
            kept = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=3))
            selections.append(kept)
            rows = len(kept)
            steps.append(np.array(data.draw(st.lists(ids, min_size=rows, max_size=rows))))
        check_steps(model, np.array([src]), steps, selections)

    def test_out_of_range_id_and_position_raise(self):
        model = TransformerModel(small_config(max_positions=3), seed=15)
        with no_grad():
            enc_out, src_ids = model.encode([4, 5, 6])
            stepper = model.stepper(enc_out.data, src_ids)
            with pytest.raises(ShapeError, match=re.escape(
                    "decoder input id out of range [0, 16)")):
                stepper.step(np.array([2, 16]))
            for _ in range(3):
                stepper.step(np.array([2, 4]))
            with pytest.raises(ShapeError,
                               match="decoder input length 4 exceeds max positions 3"):
                stepper.step(np.array([2, 4]))

    def test_batch_rows_match_their_single_record_decode(self):
        # Two records of different lengths, encoded and decoded as one
        # padded batch: row i reads source i.
        cfg = small_config()
        model = TransformerModel(cfg, seed=13)
        records = [[4, 5, 6, 7, 8], [9, 10, 11]]
        src = np.full((2, 5), cfg.pad_id)
        for i, record in enumerate(records):
            src[i, : len(record)] = record
        dec_in = np.random.default_rng(6).integers(4, cfg.vocab_size, size=(2, 3))
        dec_in[:, 0] = cfg.bos_id
        with no_grad():
            enc_out, src_ids = model.encode(src)
            got = model.decode(enc_out, src_ids, dec_in).data
            for i, record in enumerate(records):
                one_out, one_ids = model.encode(record)
                want = model.decode(one_out, one_ids, dec_in[i:i + 1]).data
                np.testing.assert_allclose(got[i], want[0], rtol=0, atol=1e-12)

    def test_stepper_takes_only_one_source(self):
        model = TransformerModel(small_config(), seed=12)
        src = np.array([[4, 5, 6], [7, 8, model.config.pad_id]])
        with no_grad():
            enc_out, src_ids = model.encode(src)
            with pytest.raises(ShapeError, match="one source"):
                model.stepper(enc_out.data, src_ids)


class TestModelGradients:
    def test_selected_parameter_blocks_pass_finite_differences(self):
        model = TransformerModel(small_config(enc_layers=1, dec_layers=1), seed=4)
        rng = np.random.default_rng(1)
        src = rng.integers(4, 16, size=(1, 4))
        tgt = rng.integers(4, 16, size=(1, 3))
        dec_in = np.concatenate([[[2]], tgt[:, :-1]], axis=1)

        def f():
            return cross_entropy_with_logits(model.forward(src, dec_in), tgt, pad_id=0)

        picked = ["embed", "enc0.attn.wq", "enc0.ffn.w1", "dec0.cross_attn.wo",
                  "dec_norm.gain"]
        by_name = {p.name: p for p in model.parameters()}
        for name in picked:
            assert check_gradients(f, by_name[name], step=1e-5) < 1e-4, name


class TestFusedAttentionInModel:
    def test_training_pass_matches_composed_attention(self, monkeypatch):
        """Loss and every parameter gradient of a full forward and backward
        pass (padding, causal masks, cross-attention, dropout) agree with
        the same pass through the composed attention graph."""
        cfg = small_config(dropout=0.1)
        rng = np.random.default_rng(3)
        src = rng.integers(4, 16, size=(3, 7))
        src[1, 5:] = cfg.pad_id
        tgt = rng.integers(4, 16, size=(3, 5))
        tgt[2, 3:] = cfg.pad_id
        dec_in = np.concatenate([np.full((3, 1), cfg.bos_id), tgt[:, :-1]], axis=1)
        runs = []
        for op in (attention, composed_attention):
            monkeypatch.setattr("qgen.model.attention", op)
            model = TransformerModel(cfg, seed=12)
            logits = model.forward(src, dec_in, rng=np.random.default_rng(4))
            loss = cross_entropy_with_logits(logits, tgt, pad_id=cfg.pad_id)
            backward(loss)
            runs.append((loss.item(), [p.grad for p in model.parameters()]))
        (loss_fused, grads_fused), (loss_composed, grads_composed) = runs
        assert abs(loss_fused - loss_composed) < 1e-12
        for got, want in zip(grads_fused, grads_composed):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestGradientBuffers:
    """A Parameter's gradient buffer is made by the first backward pass that
    reaches it, or by the first read of .grad: inference makes none."""

    def test_inference_makes_no_gradient_buffer(self, tmp_path):
        path = tmp_path / "m.bin"
        TransformerModel(small_config(), seed=21).save(path)
        model = TransformerModel.load(path)
        assert beam_search(model, [4, 5, 6], GenerationConfig(beam_width=3, max_length=5))
        assert all(p.node.grad is None for p in model.parameters())
        for p in model.parameters():
            assert p.grad.shape == p.data.shape and p.grad.dtype == p.data.dtype
            assert not p.grad.any()

    def test_passes_accumulate_as_into_zero_buffers(self):
        cfg = small_config(dropout=0.1)
        rng = np.random.default_rng(22)
        src = rng.integers(4, 16, size=(3, 6))
        tgt = rng.integers(4, 16, size=(3, 4))
        dec_in = np.concatenate([np.full((3, 1), cfg.bos_id), tgt[:, :-1]], axis=1)

        def two_passes(zero):
            model = TransformerModel(cfg, seed=23)
            model.parameters()[0].grad  # a read before the passes makes zeros
            zero(model)
            for seed in (24, 25):
                logits = model.forward(src, dec_in, rng=np.random.default_rng(seed))
                backward(cross_entropy_with_logits(logits, tgt, pad_id=cfg.pad_id))
            return [p.grad for p in model.parameters()]

        def explicit_zeros(model):
            for p in model.parameters():
                p.grad = np.zeros_like(p.data)

        def dropped(model):
            model.zero_grads()
            assert all(p.node.grad is None for p in model.parameters())

        for got, want in zip(two_passes(dropped), two_passes(explicit_zeros)):
            np.testing.assert_array_equal(got, want)


class TestConfigValidation:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError, match="divisible"):
            small_config(d_model=10, num_heads=4)

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="dropout"):
            small_config(dropout=1.0)

    def test_positive_dims(self):
        with pytest.raises(ValueError, match="positive"):
            small_config(d_ff=0)

    @pytest.mark.parametrize("field,value", [
        ("pad_id", -1), ("bos_id", 16), ("eos_id", 99999), ("eos_id", 3.0), ("pad_id", True),
    ])
    def test_special_ids_must_be_in_the_vocabulary(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer in \[0, "):
            small_config(**{field: value})

    def test_parameters_registered_once(self):
        model = TransformerModel(small_config(), seed=0)
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))


def documented_order(cfg):
    """(name, shape, fill) of every parameter in checkpoint order: the
    embedding, each encoder layer, enc_norm, each decoder layer, dec_norm,
    then out_proj when the output projection is not tied."""
    d = cfg.d_model
    order = [("embed", (cfg.vocab_size, d), "normal")]

    def norm(prefix):
        order.extend([(f"{prefix}.gain", (d,), "ones"), (f"{prefix}.bias", (d,), "zeros")])

    def attention_block(prefix):
        order.extend((f"{prefix}.{w}", (d, d), "heads") for w in ("wq", "wk", "wv"))
        order.append((f"{prefix}.wo", (d, d), "xavier"))

    def feed_forward(prefix):
        order.extend([(f"{prefix}.w1", (d, cfg.d_ff), "xavier"),
                      (f"{prefix}.b1", (cfg.d_ff,), "zeros"),
                      (f"{prefix}.w2", (cfg.d_ff, d), "xavier"),
                      (f"{prefix}.b2", (d,), "zeros")])

    for i in range(cfg.enc_layers):
        norm(f"enc{i}.ln1")
        attention_block(f"enc{i}.attn")
        norm(f"enc{i}.ln2")
        feed_forward(f"enc{i}.ffn")
    norm("enc_norm")
    for i in range(cfg.dec_layers):
        norm(f"dec{i}.ln1")
        attention_block(f"dec{i}.self_attn")
        norm(f"dec{i}.ln2")
        attention_block(f"dec{i}.cross_attn")
        norm(f"dec{i}.ln3")
        feed_forward(f"dec{i}.ffn")
    norm("dec_norm")
    if not cfg.share_embeddings:
        order.append(("out_proj", (d, cfg.vocab_size), "xavier"))
    return order


class TestParameterOrder:
    @pytest.mark.parametrize("shared", [True, False])
    def test_initial_values_redrawn_in_the_documented_order(self, shared):
        """Only the embedding (normal) and the weight matrices (Xavier
        uniform) draw, in checkpoint order; norms and biases draw nothing.
        Each query, key and value projection is num_heads Xavier blocks of
        (d_model, d_head), drawn one after another and set side by side."""
        cfg = small_config(share_embeddings=shared, num_heads=4)
        model = TransformerModel(cfg, seed=11)
        rng = np.random.default_rng(11)
        params = model.parameters()
        order = documented_order(cfg)
        assert [p.name for p in params] == [name for name, _, _ in order]
        for p, (name, shape, fill) in zip(params, order):
            if fill == "normal":
                want = rng.normal(0.0, 1.0 / math.sqrt(cfg.d_model), size=shape)
            elif fill == "xavier":
                limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                want = rng.uniform(-limit, limit, size=shape)
            elif fill == "heads":
                block = (cfg.d_model, cfg.d_model // cfg.num_heads)
                limit = math.sqrt(6.0 / (block[0] + block[1]))
                heads = [rng.uniform(-limit, limit, size=block) for _ in range(cfg.num_heads)]
                want = np.concatenate(heads, axis=1)
            else:
                want = np.ones(shape) if fill == "ones" else np.zeros(shape)
            assert p.data.tobytes() == want.tobytes(), name
            assert p.data.shape == shape, name

    def test_cli_default_model_makes_65_tensors(self):
        """Embedding, then per encoder layer 2 norms, 4 attention matrices
        and 4 feed-forward arrays (1 + 2 * 12), enc_norm, per decoder layer 3
        norms, 8 attention matrices and 4 feed-forward arrays (2 * 18), and
        dec_norm."""
        model = TransformerModel(ModelConfig(vocab_size=16), seed=0)
        assert len(model.parameters()) == 1 + 2 * 12 + 2 + 2 * 18 + 2 == 65

    def test_checkpoint_lists_the_parameters_in_order(self, tmp_path):
        cfg = small_config(share_embeddings=False)
        model = TransformerModel(cfg, seed=0)
        path = tmp_path / "m.bin"
        model.save(path)
        _, arrays = read_container(path)
        names = [p.name for p in model.parameters()]
        assert list(arrays) == names == [name for name, _, _ in documented_order(cfg)]
        assert names.index("enc_norm.bias") < names.index("dec0.ln1.gain")


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = TransformerModel(small_config(), seed=5)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        model.save(first)
        TransformerModel.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_reproduces_logits(self, tmp_path):
        model = TransformerModel(small_config(), seed=6)
        path = tmp_path / "m.bin"
        model.save(path)
        again = TransformerModel.load(path)
        src, dec = np.array([[4, 5]]), np.array([[2, 7]])
        np.testing.assert_array_equal(
            model.forward(src, dec).data, again.forward(src, dec).data
        )

    def test_load_draws_no_random_values(self, tmp_path, monkeypatch):
        model = TransformerModel(small_config(share_embeddings=False), seed=7)
        path = tmp_path / "m.bin"
        model.save(path)

        def no_draws(*args):
            raise AssertionError("load drew random values")

        monkeypatch.setattr("qgen.model._xavier", no_draws)
        again = TransformerModel.load(path)
        for p, q in zip(model.parameters(), again.parameters()):
            assert p.name == q.name
            np.testing.assert_array_equal(p.data, q.data)
            np.testing.assert_array_equal(q.grad, np.zeros_like(q.data))

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        TransformerModel(small_config(), seed=8).save(path)
        meta, arrays = read_container(path)
        tensors = list(arrays.items())
        cases = [
            (tensors[:-1], "parameter names do not match config"),
            (tensors + [("extra", np.zeros(2))], "parameter names do not match config"),
            (tensors[::-1], "parameter names do not match config"),
            ([("embed", np.zeros((3, 8)))] + tensors[1:],
             r"embed has shape \(3, 8\), expected \(16, 8\)"),
        ]
        for stored, message in cases:
            write_container(path, meta, stored)
            with pytest.raises(ValueError, match=message):
                TransformerModel.load(path)

    @pytest.mark.parametrize("fault", ["refused_rename", "failed_write"])
    def test_failed_write_leaves_the_old_file_and_no_temporary(self, tmp_path,
                                                             monkeypatch, fault):
        path = tmp_path / "m.bin"
        write_container(path, {"kind": "old"}, [("a", np.zeros(2))])
        before = path.read_bytes()
        tensors = [("a", np.ones(2))]
        if fault == "refused_rename":
            def refuse(src, dst):
                raise PermissionError(f"refused: {dst}")

            monkeypatch.setattr("qgen.model.os.replace", refuse)
        else:
            tensors.append(("b", np.array(["not a number"])))
        with pytest.raises((PermissionError, ValueError)):
            write_container(path, {"kind": "new"}, tensors)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin"]

    def test_container_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = [("a", rng.normal(size=(3, 2))), ("b", rng.normal(size=(4,)))]
        path = tmp_path / "c.bin"
        write_container(path, {"kind": "test"}, tensors)
        meta, arrays = read_container(path)
        assert meta == {"kind": "test"}
        np.testing.assert_array_equal(arrays["a"], tensors[0][1])
        np.testing.assert_array_equal(arrays["b"], tensors[1][1])

    def test_container_header_numbers_are_little_endian(self, tmp_path):
        """The version and header length are '<u4' whatever the host's byte
        order, as the tensors are '<f8'."""
        values = np.arange(6.0).reshape(2, 3)
        blob = json.dumps({"meta": {"kind": "test"},
                           "tensors": [{"name": "w", "shape": [2, 3]}]}).encode("utf-8")
        path = tmp_path / "c.bin"
        path.write_bytes(struct.pack("<4sII", b"QGTC", 1, len(blob)) + blob
                         + values.astype("<f8").tobytes())
        meta, arrays = read_container(path)
        assert meta == {"kind": "test"}
        np.testing.assert_array_equal(arrays["w"], values)
        write_container(path, meta, [("w", values)])
        data = path.read_bytes()
        magic, version, n = struct.unpack("<4sII", data[:12])
        assert (magic, version) == (b"QGTC", 1)
        assert json.loads(data[12:12 + n])["meta"] == meta
        assert data[12 + n:] == values.astype("<f8").tobytes()

    def test_container_bytes_are_the_tobytes_layout(self, tmp_path):
        """Each array is stored as np.ascontiguousarray(a, "<f8").tobytes(),
        whatever its order, dtype or strides."""
        base = np.random.default_rng(3).normal(size=(4, 6))
        tensors = [
            ("c_order", base),
            ("fortran", np.asfortranarray(base)),
            ("float32", base.astype(np.float32)),
            ("strided", base[:, ::2]),
            ("big_endian", base.astype(">f8")),
            ("scalar", np.float64(2.5)),
            ("empty", np.zeros((0, 3))),
        ]
        meta = {"kind": "test"}
        path = tmp_path / "c.bin"
        write_container(path, meta, tensors)
        header = {"meta": meta,
                  "tensors": [{"name": n, "shape": list(np.shape(a))} for n, a in tensors]}
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        expected = (b"QGTC" + np.uint32(1).tobytes() + np.uint32(len(blob)).tobytes()
                    + blob + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                                      for _, a in tensors))
        assert path.read_bytes() == expected

    def test_truncated_container_names_the_tensor(self, tmp_path):
        path = tmp_path / "m.bin"
        model = TransformerModel(small_config(), seed=9)
        model.save(path)
        path.write_bytes(path.read_bytes()[:-8])  # the last tensor loses one value
        last = model.parameters()[-1].name
        with pytest.raises(ValueError, match=f"truncated tensor '{last}'"):
            read_container(path)

    @pytest.mark.parametrize("extra", [1, 8, 4096])
    def test_bytes_after_the_last_tensor_name_the_file(self, tmp_path, extra):
        path = tmp_path / "m.bin"
        TransformerModel(small_config(), seed=9).save(path)
        path.write_bytes(path.read_bytes() + bytes(extra))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {extra} bytes after the last tensor")):
            read_container(path)

    def test_loaded_parameters_are_writable_arrays_of_their_own(self, tmp_path):
        path = tmp_path / "m.bin"
        TransformerModel(small_config(share_embeddings=False), seed=10).save(path)
        params = TransformerModel.load(path).parameters()
        for p in params:
            assert p.data.flags.writeable, p.name
        # check_gradients perturbs a parameter in place: no other may move.
        for a, b in zip(params, params[1:]):
            assert not np.shares_memory(a.data, b.data), (a.name, b.name)
        before = [p.data.copy() for p in params]
        params[0].data[...] += 1.0
        for p, was in zip(params[1:], before[1:]):
            np.testing.assert_array_equal(p.data, was)

    @pytest.mark.parametrize("entries,message", [
        (["embed"], "container tensor entry 'embed' has no name"),
        ([{"shape": [2]}], "container tensor entry {'shape': [2]} has no name"),
        ([{"name": "a", "shape": [2.0]}], "tensor 'a' has shape [2.0], not a list"),
        ([{"name": "a", "shape": 2}], "tensor 'a' has shape 2, not a list"),
        ([{"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}],
         "tensor 'a' is stored twice"),
        ([{"name": "a", "shape": [10 ** 12, 10 ** 12]}], "truncated tensor 'a'"),
    ], ids=["not_an_object", "no_name", "float_dimension", "shape_not_a_list",
            "repeated_name", "larger_than_the_file"])
    def test_tensor_entry_it_cannot_use_names_the_file(self, tmp_path, entries, message):
        path = tmp_path / "c.bin"
        write_container(path, {}, [("a", np.zeros(1)), ("b", np.zeros(1))])
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:12], "little")
        blob = json.dumps({"meta": {}, "tensors": entries}).encode("utf-8")
        path.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob
                         + data[12 + header_len:])
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_container(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="container"):
            read_container(path)

    @pytest.mark.parametrize("cut", [4, 6, 10, 20],
                             ids=["after_magic", "in_version", "in_length", "in_header"])
    def test_cut_header_names_the_file(self, tmp_path, cut):
        path = tmp_path / "m.bin"
        TransformerModel(small_config(), seed=0).save(path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated container header")):
            read_container(path)

    def test_header_not_json_names_the_file(self, tmp_path):
        path = tmp_path / "m.bin"
        TransformerModel(small_config(), seed=0).save(path)
        data = bytearray(path.read_bytes())
        data[12] = ord("[")  # the header's opening brace
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(f"{path}: container header is not JSON")):
            read_container(path)

    @pytest.mark.parametrize("damage", [
        lambda config: {**config, "extra": 1},
        lambda config: {k: v for k, v in config.items() if k != "vocab_size"},
        lambda config: list(config),
        lambda config: {**config, "d_model": "8"},
    ], ids=["extra_key", "no_vocab_size", "list", "width_as_text"])
    def test_config_the_model_rejects_names_the_file(self, tmp_path, damage):
        path = tmp_path / "m.bin"
        TransformerModel(small_config(), seed=0).save(path)
        meta, arrays = read_container(path)
        write_container(path, {"config": damage(meta["config"])}, list(arrays.items()))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: bad model config")):
            TransformerModel.load(path)

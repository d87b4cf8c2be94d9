import json
import math
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qgen.model import ModelConfig, TransformerModel, read_container, write_container
from qgen.squad import Bucket, InvertedExample
from qgen import tensor, training
from qgen.tensor import Tensor, backward, cross_entropy_with_logits
from qgen.training import (
    NumericalError,
    TrainConfig,
    TrainState,
    adam_step,
    clip_gradients,
    learning_rate,
    load_checkpoint,
    save_checkpoint,
    teacher_forced_accuracy,
    train,
    train_step,
)


def tiny_model(seed=0, **kw):
    cfg = dict(vocab_size=12, d_model=8, num_heads=2, enc_layers=1, dec_layers=1,
               d_ff=16, max_positions=12, dropout=0.0, pad_id=0, bos_id=2, eos_id=3)
    cfg.update(kw)
    return TransformerModel(ModelConfig(**cfg), seed=seed)


def tiny_bucket(n=4, in_len=6, tgt_len=5, seed=0):
    rng = np.random.default_rng(seed)
    examples = [
        InvertedExample(
            f"q{i}",
            rng.integers(4, 12, size=in_len).tolist(),
            [2] + rng.integers(4, 12, size=tgt_len - 2).tolist() + [3],
        )
        for i in range(n)
    ]
    return Bucket(in_len, tgt_len, examples)


def batch_from(bucket, pad_id=0):
    return bucket.batch(range(len(bucket)), pad_id)


def ragged_bucket(n=6, max_input=10, max_target=8, seed=0):
    """Rows of assorted lengths, every one shorter than the bucket bounds."""
    rng = np.random.default_rng(seed)
    examples = [
        InvertedExample(
            f"r{i}",
            rng.integers(4, 12, size=rng.integers(2, max_input - 1)).tolist(),
            [2] + rng.integers(4, 12, size=rng.integers(1, max_target - 3)).tolist()
            + [3],
        )
        for i in range(n)
    ]
    return Bucket(max_input, max_target, examples)


def reference_step(model, batch, state, config):
    """A step on the batch padded by hand to its bucket's bounds:
    model.forward, with dropout drawn from state.rng at the padded batch's
    full shape."""
    inputs, targets, bucket = batch
    inputs, targets = (np.pad(m, ((0, 0), (0, width - m.shape[1])),
                              constant_values=model.config.pad_id)
                       for m, width in ((inputs, bucket.max_input),
                                        (targets, bucket.max_target)))
    lr = learning_rate(state.step + 1, config)
    logits = model.forward(inputs, targets[:, :-1], rng=state.rng)
    loss = cross_entropy_with_logits(logits, targets[:, 1:], model.config.pad_id,
                                     config.label_smoothing)
    model.zero_grads()
    backward(loss)
    clip_gradients(model, config.clip_norm)
    adam_step(model, state, lr, config.weight_decay)
    state.step += 1
    return loss.item()


class TestLoss:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((1, 4, 9)))
        out = cross_entropy_with_logits(logits, np.array([[1, 2, 3, 4]]), pad_id=0)
        assert out.item() == pytest.approx(math.log(9), abs=1e-12)

    def test_margin_drives_loss_to_zero(self):
        targets = np.array([[1, 2]])
        values = []
        for margin in (2.0, 8.0, 32.0):
            logits = np.zeros((1, 2, 4))
            logits[0, 0, 1] = margin
            logits[0, 1, 2] = margin
            out = cross_entropy_with_logits(Tensor(logits), targets, pad_id=0)
            values.append(out.item())
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-10

    def test_two_position_hand_computation(self):
        logits = np.array([[[1.0, 2.0, 0.5], [0.0, -1.0, 1.5]]])
        targets = np.array([[0, 2]])

        def log_softmax(row, idx):
            return row[idx] - math.log(sum(math.exp(x) for x in row))

        expected = -(log_softmax(logits[0, 0], 0) + log_softmax(logits[0, 1], 2)) / 2
        got = cross_entropy_with_logits(Tensor(logits), targets, pad_id=None).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_all_pad_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            cross_entropy_with_logits(
                Tensor(np.zeros((1, 2, 4))), np.array([[0, 0]]), pad_id=0
            )


class TestLearningRate:
    def test_peaks_at_warmup(self):
        cfg = TrainConfig(total_steps=100, base_lr=2e-3, warmup_steps=10)
        values = [learning_rate(s, cfg) for s in range(1, 101)]
        assert max(values) == pytest.approx(2e-3)
        assert values.index(max(values)) == 9

    def test_linear_rise_then_sqrt_decay(self):
        cfg = TrainConfig(total_steps=400, base_lr=1e-3, warmup_steps=100)
        assert learning_rate(50, cfg) == pytest.approx(5e-4)
        assert learning_rate(400, cfg) == pytest.approx(1e-3 * math.sqrt(100 / 400))

    def test_step_zero_rejected(self):
        cfg = TrainConfig(total_steps=10, warmup_steps=5)
        with pytest.raises(ValueError):
            learning_rate(0, cfg)


class TestConfigValidation:
    def test_warmup_beyond_total_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            TrainConfig(total_steps=10, warmup_steps=20)

    def test_zero_total_allowed(self):
        TrainConfig(total_steps=0, warmup_steps=400)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(total_steps=-1)


class TestOptimizer:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        model = tiny_model()
        state = TrainState(model, seed=0)
        before = [p.data.copy() for p in model.parameters()]
        model.zero_grads()
        adam_step(model, state, lr=1e-3)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_zero_learning_rate_is_identity(self):
        model = tiny_model()
        state = TrainState(model, seed=0)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        before = [p.data.copy() for p in model.parameters()]
        adam_step(model, state, lr=0.0)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_weight_decay_adds_the_decayed_weights_to_the_update(self):
        model = tiny_model()
        state = TrainState(model, seed=0)
        rng = np.random.default_rng(3)
        before = []
        for p in model.parameters():
            p.grad = rng.normal(size=p.shape)
            before.append((p.data.copy(), p.grad.copy()))
        adam_step(model, state, lr=0.01, weight_decay=0.01)
        # first step: bias-corrected moments are g and g*g, so Adam moves by
        # g / (|g| + eps); weight decay adds 0.01 * w to that step
        for p, (w, g) in zip(model.parameters(), before):
            expected = w - 0.01 * (g / (np.abs(g) + 1e-9) + 0.01 * w)
            np.testing.assert_allclose(p.data, expected, rtol=1e-12, atol=1e-15)

    def test_step_equals_the_textbook_formula_bit_for_bit(self):
        """adam_step updates in place; every value is the one the out-of-place
        formula gives, in float64, with weight decay and moments from earlier
        steps."""
        model = tiny_model()
        state = TrainState(model, seed=0)
        state.step = 3
        rng = np.random.default_rng(21)
        want = {}
        t, lr, wd = 4, 3e-3, 0.01
        bc1, bc2 = 1.0 - training.ADAM_BETA1 ** t, 1.0 - training.ADAM_BETA2 ** t
        for p in model.parameters():
            p.grad = rng.normal(size=p.shape)
            state.m[p.name] = rng.normal(scale=0.1, size=p.shape)
            state.v[p.name] = rng.random(p.shape) * 0.01
            g = p.grad
            m = training.ADAM_BETA1 * state.m[p.name] + (1 - training.ADAM_BETA1) * g
            v = (training.ADAM_BETA2 * state.v[p.name]
                 + (1 - training.ADAM_BETA2) * g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + training.ADAM_EPS) + wd * p.data
            want[p.name] = (m, v, p.data - lr * update)
        adam_step(model, state, lr, weight_decay=wd)
        for p in model.parameters():
            m, v, data = want[p.name]
            for got, expected in ((state.m[p.name], m), (state.v[p.name], v),
                                  (p.data, data)):
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, expected, strict=True)

    def test_clip_bounds_global_norm(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.grad = rng.normal(scale=10.0, size=p.shape)
        clip_gradients(model, max_norm=1.0)
        total = sum(float((p.grad * p.grad).sum()) for p in model.parameters())
        assert math.sqrt(total) <= 1.0 + 1e-9

    def test_clip_leaves_small_gradients_alone(self):
        model = tiny_model()
        for p in model.parameters():
            p.grad = np.full_like(p.data, 1e-8)
        before = [p.grad.copy() for p in model.parameters()]
        clip_gradients(model, max_norm=1.0)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.grad, b)

    def test_clip_leaves_gradients_of_an_infinite_norm_alone(self):
        model = tiny_model()
        for p in model.parameters():
            p.grad = np.full_like(p.data, 2.0)
        model.embed.grad[1, 1] = np.inf
        before = [p.grad.copy() for p in model.parameters()]
        assert clip_gradients(model, max_norm=1.0) == math.inf
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.grad, b)


class TestTrainStep:
    def test_loss_decreases_over_windows_on_fixed_batch(self):
        model = tiny_model(seed=1)
        bucket = tiny_bucket()
        batch = batch_from(bucket)
        cfg = TrainConfig(total_steps=120, base_lr=3e-3, warmup_steps=10, batch_size=4)
        state = TrainState(model, seed=0)
        losses = [train_step(model, batch, state, cfg)[0] for _ in range(120)]
        for i in range(len(losses) - 50):
            assert losses[i + 50] < losses[i]

    def test_non_finite_loss_aborts_with_diagnostics(self):
        model = tiny_model(seed=2)
        model.embed.data[4] = np.nan
        cfg = TrainConfig(total_steps=10, warmup_steps=5)
        state = TrainState(model, seed=0)
        with pytest.raises(NumericalError, match=r"step 0 \(bucket 6x5, lr"):
            train_step(model, batch_from(tiny_bucket()), state, cfg)

    def test_non_finite_gradient_norm_aborts_before_any_update(self, monkeypatch):
        model = tiny_model(seed=2)
        cfg = TrainConfig(total_steps=10, warmup_steps=5)
        state = TrainState(model, seed=0)
        batch = batch_from(tiny_bucket())
        train_step(model, batch, state, cfg)  # so the moments are not all zero
        masters = {p.name: p.data.copy() for p in model.parameters()}
        moments = {k: (state.m[k].copy(), state.v[k].copy()) for k in state.m}
        run_backward = training.backward

        def poisoned(loss):
            run_backward(loss)
            model.embed.grad[5, 0] = np.inf

        monkeypatch.setattr(training, "backward", poisoned)
        with pytest.raises(NumericalError, match=r"non-finite gradient norm at step 1 "
                                                 r"\(bucket 6x5, lr 4\.000e-04\)"):
            train_step(model, batch, state, cfg)
        assert state.step == 1
        for p in model.parameters():
            assert np.array_equal(p.data, masters[p.name]), p.name
            assert np.array_equal(state.m[p.name], moments[p.name][0]), p.name
            assert np.array_equal(state.v[p.name], moments[p.name][1]), p.name

    def test_trimmed_step_matches_the_bucket_padded_step(self):
        cfg = TrainConfig(total_steps=10, base_lr=1e-2, warmup_steps=2,
                          label_smoothing=0.1)
        trimmed, padded = tiny_model(seed=3, dropout=0.1), tiny_model(seed=3, dropout=0.1)
        trimmed_state, padded_state = TrainState(trimmed, 5), TrainState(padded, 5)
        for seed in range(3):
            batch = batch_from(ragged_bucket(seed=seed))
            assert batch[0].shape[1] < batch[2].max_input
            assert batch[1].shape[1] < batch[2].max_target
            # At float64, as reference_step: the bucket's padding changes the
            # GEMMs' shapes, and so float32 rounding, but not what they compute.
            loss, _ = train_step(trimmed, batch, trimmed_state, cfg,
                                 compute_dtype=np.float64)
            assert abs(loss - reference_step(padded, batch, padded_state, cfg)) < 1e-12
            for p, q in zip(trimmed.parameters(), padded.parameters(), strict=True):
                assert np.abs(p.data - q.data).max() < 1e-12, p.name
            assert (trimmed_state.rng.bit_generator.state
                    == padded_state.rng.bit_generator.state)

    def test_batch_wider_than_its_bucket_is_a_shape_error(self):
        model = tiny_model(seed=2, dropout=0.1)
        inputs, targets, _ = batch_from(tiny_bucket())
        cfg = TrainConfig(total_steps=10, warmup_steps=5)
        with pytest.raises(tensor.ShapeError, match="6 and 5 is wider than bucket 4x5"):
            train_step(model, (inputs, targets, Bucket(4, 5)), TrainState(model, 0), cfg)

    def test_returns_the_norm_before_clipping(self):
        model = tiny_model(seed=3)
        cfg = TrainConfig(total_steps=10, warmup_steps=5, clip_norm=1e-6)
        _, norm = train_step(model, batch_from(tiny_bucket()), TrainState(model, 0), cfg)
        clipped = math.sqrt(sum(float((p.grad ** 2).sum()) for p in model.parameters()))
        assert norm > 1e-3 and clipped == pytest.approx(1e-6, rel=1e-9)

    def test_step_counter_advances(self):
        model = tiny_model(seed=3)
        cfg = TrainConfig(total_steps=10, warmup_steps=5)
        state = TrainState(model, seed=0)
        train_step(model, batch_from(tiny_bucket()), state, cfg)
        assert state.step == 1


class TestComputeDtype:
    def test_a_step_computes_at_float32_and_keeps_float64_masters(self, monkeypatch):
        model = tiny_model(seed=5, dropout=0.1)
        cfg = TrainConfig(total_steps=10, warmup_steps=5, label_smoothing=0.1)
        state = TrainState(model, seed=0)
        nodes, grads = [], []

        def result_spy(data, parents):
            nodes.append(data.dtype)
            return make_result(data, parents)

        def backward_spy(loss):
            run_backward(loss)
            grads.extend((p.name, p.grad.dtype) for p in model.parameters())

        make_result, run_backward = tensor._result, training.backward
        monkeypatch.setattr(tensor, "_result", result_spy)
        monkeypatch.setattr(training, "backward", backward_spy)
        train_step(model, batch_from(ragged_bucket()), state, cfg,
                   compute_dtype=np.float32)
        assert len(nodes) > 50 and set(nodes) == {np.dtype(np.float32)}
        assert len(grads) == len(model.parameters())
        assert all(dtype == np.float32 for _, dtype in grads), grads
        for p in model.parameters():
            assert p.data.dtype == p.grad.dtype == np.float64, p.name
            assert state.m[p.name].dtype == state.v[p.name].dtype == np.float64

    def test_a_failed_step_puts_the_masters_back(self):
        model = tiny_model(seed=2)
        model.embed.data[4] = np.nan
        masters = [p.data for p in model.parameters()]
        cfg = TrainConfig(total_steps=10, warmup_steps=5)
        with pytest.raises(NumericalError):
            train_step(model, batch_from(tiny_bucket()), TrainState(model, seed=0), cfg,
                       compute_dtype=np.float32)
        for p, master in zip(model.parameters(), masters, strict=True):
            assert p.data is master and p.data.dtype == np.float64, p.name

    def test_float32_step_agrees_with_the_float64_step(self):
        cfg = TrainConfig(total_steps=10, base_lr=1e-2, warmup_steps=2,
                          label_smoothing=0.1)
        low, high = tiny_model(seed=3, dropout=0.1), tiny_model(seed=3, dropout=0.1)
        low_state, high_state = TrainState(low, 5), TrainState(high, 5)
        for seed in range(3):
            batch = batch_from(ragged_bucket(seed=seed))
            loss, norm = train_step(low, batch, low_state, cfg, compute_dtype=np.float32)
            ref_loss, ref_norm = train_step(high, batch, high_state, cfg,
                                            compute_dtype=np.float64)
            assert loss == pytest.approx(ref_loss, rel=1e-5)
            assert norm == pytest.approx(ref_norm, rel=1e-5)
            for p, q in zip(low.parameters(), high.parameters(), strict=True):
                assert np.abs(p.data - q.data).max() < 1e-6, p.name


class TestTrainLoop:
    def test_two_runs_same_seed_identical_logs(self, tmp_path):
        logs = []
        for run in ("a", "b"):
            model = tiny_model(seed=4)
            cfg = TrainConfig(total_steps=12, base_lr=1e-3, warmup_steps=6,
                              batch_size=3, checkpoint_interval=6, seed=7)
            train(model, [tiny_bucket(6)], cfg, tmp_path / run)
            lines = (tmp_path / run / "metrics.jsonl").read_text().splitlines()
            records = [json.loads(l) for l in lines]
            for r in records:
                r.pop("tokens_per_sec")
            logs.append(records)
        assert logs[0] == logs[1]

    def test_zero_steps_emits_initial_checkpoint_only(self, tmp_path):
        model = tiny_model(seed=5)
        cfg = TrainConfig(total_steps=0, warmup_steps=400)
        state, ckpt = train(model, [tiny_bucket()], cfg, tmp_path / "run")
        assert state.step == 0
        assert (tmp_path / "run" / "checkpoint" / "model.bin").exists()
        assert (tmp_path / "run" / "metrics.jsonl").read_text() == ""

    @pytest.mark.parametrize("total,interval,saved", [
        (2, 1, [1, 2]), (4, 2, [2, 4]), (5, 2, [2, 4, 5]), (0, 1, [0]),
    ])
    def test_each_checkpoint_is_written_once(self, tmp_path, monkeypatch,
                                             total, interval, saved):
        steps = []
        real_save = training.save_checkpoint

        def counting_save(directory, model, state, config):
            steps.append(state.step)
            real_save(directory, model, state, config)

        monkeypatch.setattr(training, "save_checkpoint", counting_save)
        cfg = TrainConfig(total_steps=total, warmup_steps=1, batch_size=2,
                          checkpoint_interval=interval)
        model = tiny_model(seed=4)
        state, _ = train(model, [tiny_bucket()], cfg, tmp_path / "run")
        assert steps == saved
        del steps[:]
        train(model, [tiny_bucket()], cfg, tmp_path / "resumed", state=state)
        assert steps == [total]
        assert (tmp_path / "resumed" / "checkpoint" / "model.bin").exists()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        full_model = tiny_model(seed=6)
        cfg_full = TrainConfig(total_steps=20, base_lr=1e-3, warmup_steps=5,
                               batch_size=3, checkpoint_interval=10, seed=1)
        train(full_model, [tiny_bucket(6)], cfg_full, tmp_path / "full")

        half_model = tiny_model(seed=6)
        cfg_half = replace(cfg_full, total_steps=10)
        train(half_model, [tiny_bucket(6)], cfg_half, tmp_path / "half")
        resumed_model, resumed_state, _ = load_checkpoint(
            tmp_path / "half" / "checkpoint"
        )
        train(resumed_model, [tiny_bucket(6)], cfg_full, tmp_path / "resumed",
              state=resumed_state)

        for a, b in zip(full_model.parameters(), resumed_model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        full_log = [
            json.loads(l)["loss"]
            for l in (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()
        ]
        resumed_log = [
            json.loads(l)["loss"]
            for l in (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
        ]
        assert full_log[10:] == resumed_log

    def test_resume_into_same_directory_logs_each_step_once(self, tmp_path,
                                                            monkeypatch):
        """A run killed after its step-10 checkpoint, at step 14 and in the
        middle of a log line, then resumed from that checkpoint into the
        same directory, leaves the log of an uninterrupted run."""
        cfg = TrainConfig(total_steps=20, base_lr=1e-3, warmup_steps=5,
                          batch_size=3, checkpoint_interval=10, seed=1)
        train(tiny_model(seed=6), [tiny_bucket(6)], cfg, tmp_path / "full")

        class Killed(Exception):
            pass

        def killed_at_step_14(model, batch, state, config):
            if state.step == 14:
                raise Killed
            return train_step(model, batch, state, config)

        monkeypatch.setattr(training, "train_step", killed_at_step_14)
        with pytest.raises(Killed):
            train(tiny_model(seed=6), [tiny_bucket(6)], cfg, tmp_path / "run")
        monkeypatch.undo()
        log = tmp_path / "run" / "metrics.jsonl"
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('{"step": 15, "lo')
        model, state, _ = load_checkpoint(tmp_path / "run" / "checkpoint")
        assert state.step == 10
        train(model, [tiny_bucket(6)], cfg, tmp_path / "run", state=state)

        def records(path):
            out = [json.loads(line) for line in path.read_text().splitlines()]
            for r in out:
                r.pop("tokens_per_sec")
            return out

        resumed = records(log)
        assert [r["step"] for r in resumed] == list(range(1, 21))
        assert resumed == records(tmp_path / "full" / "metrics.jsonl")

    def test_tokens_per_sec_counts_non_pad_tokens(self, tmp_path, monkeypatch):
        # Every row has 6 input and 5 target tokens, padded to 8 and 7.
        bucket = Bucket(8, 7, tiny_bucket(6, in_len=6, tgt_len=5).examples)
        clock = iter(np.arange(0.0, 100.0, 0.25))
        monkeypatch.setattr(training, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(clock))))
        cfg = TrainConfig(total_steps=3, warmup_steps=2, batch_size=3)
        train(tiny_model(seed=9), [bucket], cfg, tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        rates = [json.loads(line)["tokens_per_sec"] for line in lines]
        assert rates == [3 * (6 + 5) / 0.25] * 3

    def test_records_hold_the_step_facts(self, tmp_path):
        # Every row has 6 input and 5 target tokens, padded to 8 and 7.
        bucket = Bucket(8, 7, tiny_bucket(6, in_len=6, tgt_len=5).examples)
        model = tiny_model(seed=9)
        cfg = TrainConfig(total_steps=3, warmup_steps=2, batch_size=3, clip_norm=1e9)
        train(model, [bucket], cfg, tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["bucket"] for r in records] == ["8x7"] * 3
        assert [r["real_tokens"] for r in records] == [3 * (6 + 5)] * 3
        # clip_norm is far above the norm, so the last step's gradients are
        # left as backward made them.
        norm = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in model.parameters()))
        assert records[-1]["grad_norm"] == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("clip_norm", [1e-6, 1e9])
    def test_records_hold_clipping_and_the_computed_pad_share(self, tmp_path, clip_norm):
        # The batch is the bucket's three rows. Inputs of 6, 4 and 2 ids cut
        # to 6 columns hold 6 [PAD]s of 18; targets of 5, 3 and 4 ids cut to
        # 5 columns hold 3 of 15.
        rows = [([4] * 6, [2, 5, 6, 7, 3]), ([5] * 4, [2, 5, 3]), ([6] * 2, [2, 5, 6, 3])]
        examples = [InvertedExample(f"p{i}", ids, tgt) for i, (ids, tgt) in enumerate(rows)]
        cfg = TrainConfig(total_steps=3, warmup_steps=2, batch_size=3, clip_norm=clip_norm)
        runs = []
        for run in ("a", "b"):
            train(tiny_model(seed=9, dropout=0.1), [Bucket(10, 8, examples)], cfg,
                  tmp_path / run)
            lines = (tmp_path / run / "metrics.jsonl").read_text().splitlines()
            records = [json.loads(line) for line in lines]
            for r in records:
                assert r["clipped"] is (clip_norm == 1e-6)
                assert r["pad_fraction"] == pytest.approx(9 / 33, abs=1e-15)
                r.pop("tokens_per_sec")
            runs.append(records)
        assert runs[0] == runs[1]

    def test_row_lengths_do_not_change_the_batch_sequence(self, tmp_path):
        """Two caches whose buckets hold as many rows, but rows of other
        lengths, draw the same buckets step after step with dropout on."""
        runs = []
        for seed in (1, 2):
            buckets = [ragged_bucket(5, 6, 5, seed=seed),
                       ragged_bucket(7, 10, 8, seed=seed + 10)]
            cfg = TrainConfig(total_steps=6, warmup_steps=2, batch_size=3, seed=3)
            state, _ = train(tiny_model(seed=4, dropout=0.1), buckets, cfg,
                             tmp_path / f"run{seed}")
            lines = (tmp_path / f"run{seed}" / "metrics.jsonl").read_text().splitlines()
            runs.append(([json.loads(line)["bucket"] for line in lines],
                         state.rng.bit_generator.state))
        assert len(set(runs[0][0])) == 2
        assert runs[0] == runs[1]

    def test_empty_buckets_rejected(self, tmp_path):
        model = tiny_model()
        cfg = TrainConfig(total_steps=5, warmup_steps=2)
        with pytest.raises(ValueError, match="empty"):
            train(model, [Bucket(8, 4, [])], cfg, tmp_path / "x")

    def test_a_refused_log_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        log = tmp_path / "metrics.jsonl"
        text = "".join(json.dumps({"step": step}) + "\n" for step in range(4))
        log.write_text(text, encoding="utf-8")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(training.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            training._truncate_log(str(log), 1)
        assert os.listdir(tmp_path) == ["metrics.jsonl"]
        assert log.read_text(encoding="utf-8") == text


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        model = tiny_model(seed=7)
        cfg = TrainConfig(total_steps=4, base_lr=1e-3, warmup_steps=2, batch_size=2)
        state = TrainState(model, seed=0)
        for _ in range(4):
            train_step(model, batch_from(tiny_bucket(2)), state, cfg)
        first = tmp_path / "one"
        second = tmp_path / "two"
        save_checkpoint(first, model, state, cfg)
        model2, state2, cfg2 = load_checkpoint(first)
        save_checkpoint(second, model2, state2, cfg2)
        for name in ("config.json", "model.bin", "state.bin"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_loaded_arrays_are_writable_and_apart(self, tmp_path):
        """Each container is read into one buffer. Every array loaded from it
        is writable, and an in-place update of one, as adam_step makes,
        leaves every other unchanged."""
        model = tiny_model(seed=8, share_embeddings=False)
        state = TrainState(model, seed=0)
        rng = np.random.default_rng(9)
        for moment in (*state.m.values(), *state.v.values()):
            moment[...] = np.abs(rng.normal(size=moment.shape))
        model.save(tmp_path / "model.bin")
        state.save(tmp_path / "state.bin")
        loaded = TransformerModel.load(tmp_path / "model.bin")
        loaded_state = TrainState.load(tmp_path / "state.bin", loaded)
        arrays = [p.data for p in loaded.parameters()]
        arrays += [*loaded_state.m.values(), *loaded_state.v.values()]
        assert all(a.flags.writeable for a in arrays)
        # One Adam step on each pair, with the same gradients: the loaded
        # arrays move exactly as the ones never saved.
        for p, q in zip(model.parameters(), loaded.parameters()):
            p.grad = rng.normal(size=p.shape)
            q.grad = p.grad.copy()
        adam_step(model, state, lr=1e-2)
        adam_step(loaded, loaded_state, lr=1e-2)
        for p, q in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(q.data, p.data)
            np.testing.assert_array_equal(loaded_state.m[q.name], state.m[p.name])
            np.testing.assert_array_equal(loaded_state.v[q.name], state.v[p.name])
        before = [a.copy() for a in arrays]
        for i, a in enumerate(arrays):
            a += 1.0
            for j, (b, was) in enumerate(zip(arrays, before)):
                np.testing.assert_array_equal(b, was + 1.0 if j <= i else was)

    def test_state_saved_with_a_best_loss_still_loads(self, tmp_path):
        model = tiny_model(seed=7)
        state = TrainState(model, seed=3)
        state.step = 5
        tensors = [(f"m:{k}", a) for k, a in state.m.items()]
        tensors += [(f"v:{k}", a) for k, a in state.v.items()]
        meta = {"step": 5, "best_loss": 2.5, "rng_state": state.rng.bit_generator.state}
        write_container(tmp_path / "state.bin", meta, tensors)
        loaded = TrainState.load(tmp_path / "state.bin", model)
        assert loaded.step == 5
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state

    @staticmethod
    def _state_file(path, model, step=5, rng_state=None, drop=(), reshape=()):
        """A state.bin for model, less the arrays named in drop, with those in
        reshape stored at shape (1,)."""
        state = TrainState(model, seed=3)
        tensors = [(f"m:{k}", a) for k, a in state.m.items()]
        tensors += [(f"v:{k}", a) for k, a in state.v.items()]
        tensors = [(n, np.zeros(1) if n in reshape else a)
                   for n, a in tensors if n not in drop]
        if rng_state is None:
            rng_state = state.rng.bit_generator.state
        write_container(path, {"step": step, "rng_state": rng_state}, tensors)
        return path

    def test_state_without_a_moment_names_the_file(self, tmp_path):
        model = tiny_model(seed=7)
        path = self._state_file(tmp_path / "state.bin", model, drop=("m:embed",))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*'m:embed'"):
            TrainState.load(path, model)

    def test_state_moment_of_the_wrong_shape_names_the_file(self, tmp_path):
        model = tiny_model(seed=7)
        path = self._state_file(tmp_path / "state.bin", model, reshape=("v:embed",))
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: v:embed has shape (1,), expected (12, 8)")):
            TrainState.load(path, model)

    @pytest.mark.parametrize("step", ["x", -1, 2.0, True, None])
    def test_state_step_not_a_count_names_the_file(self, tmp_path, step):
        model = tiny_model(seed=7)
        path = self._state_file(tmp_path / "state.bin", model, step=step)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: step must be a non-negative integer, got {step!r}")):
            TrainState.load(path, model)

    @pytest.mark.parametrize("rng_state", [
        "x", {"bit_generator": "MT19937"}, {"bit_generator": "PCG64"},
    ])
    def test_state_rng_the_generator_refuses_names_the_file(self, tmp_path, rng_state):
        model = tiny_model(seed=7)
        path = self._state_file(tmp_path / "state.bin", model, rng_state=rng_state)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: the generator refuses rng_state")):
            TrainState.load(path, model)

    def test_loaded_moments_are_the_arrays_read(self, tmp_path, monkeypatch):
        model = tiny_model(seed=7)
        path = self._state_file(tmp_path / "state.bin", model)
        read, real_read = [], training.read_container

        def recording_read(p):
            read.append(real_read(p))
            return read[-1]

        def no_fresh_state(*args):
            raise AssertionError("load built a zeroed state first")

        monkeypatch.setattr(training, "read_container", recording_read)
        monkeypatch.setattr(TrainState, "__init__", no_fresh_state)
        state = TrainState.load(path, model)
        (_, arrays), = read
        for p in model.parameters():
            assert state.m[p.name] is arrays[f"m:{p.name}"]
            assert state.v[p.name] is arrays[f"v:{p.name}"]

    @pytest.mark.parametrize("edit", [
        lambda ts: ts + [("m:enc9.attn.wq", np.zeros((8, 8))), ("junk", np.zeros(1))],
        lambda ts: ts[len(ts) // 2:] + ts[:len(ts) // 2],
    ], ids=["extra", "v_before_m"])
    def test_state_names_other_than_save_writes_name_the_file(self, tmp_path, edit):
        model = tiny_model(seed=7)
        cfg = TrainConfig(total_steps=4, warmup_steps=2, batch_size=2)
        save_checkpoint(tmp_path / "ckpt", model, TrainState(model, seed=0), cfg)
        path = tmp_path / "ckpt" / "state.bin"
        meta, arrays = read_container(path)
        write_container(path, meta, edit(list(arrays.items())))
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path} parameter names do not match config")):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("train_section,key", [
        (None, '"train"'),
        ({"total_steps": 4, "bogus": 1}, "bogus"),
        ([4, 1e-3], '"train"'),
        ({"total_steps": -1}, "total_steps"),
    ], ids=["missing", "unknown_key", "list", "negative_steps"])
    def test_bad_train_section_names_the_file_and_key(self, tmp_path, train_section,
                                                     key):
        model = tiny_model(seed=7)
        cfg = TrainConfig(total_steps=4, warmup_steps=2, batch_size=2)
        save_checkpoint(tmp_path / "ckpt", model, TrainState(model, seed=0), cfg)
        path = tmp_path / "ckpt" / "config.json"
        doc = json.loads(path.read_text())
        doc.pop("train")
        if train_section is not None:
            doc["train"] = train_section
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{key}"):
            load_checkpoint(tmp_path / "ckpt")

    def test_accuracy_helper_bounded(self):
        model = tiny_model(seed=8)
        acc = teacher_forced_accuracy(model, [tiny_bucket()])
        assert 0.0 <= acc <= 1.0


def checkpoint_siblings(parent):
    """The names under parent that a checkpoint save makes."""
    return sorted(e for e in os.listdir(parent) if e.startswith("checkpoint"))


class TestCheckpointSwap:
    """save_checkpoint publishes each checkpoint as one directory behind a
    symlink: readers of out/checkpoint see one whole save or the one before."""

    cfg = TrainConfig(total_steps=4, base_lr=1e-3, warmup_steps=2, batch_size=2)

    def stepped(self, model, state):
        train_step(model, batch_from(tiny_bucket(2)), state, self.cfg)

    @staticmethod
    def snapshot(model, state):
        return ([p.data.copy() for p in model.parameters()],
                {k: a.copy() for k, a in state.m.items()},
                {k: a.copy() for k, a in state.v.items()})

    @staticmethod
    def assert_holds(ckpt, snap, step):
        model, state, _ = load_checkpoint(ckpt)
        params, m, v = snap
        assert state.step == step
        for p, want in zip(model.parameters(), params, strict=True):
            np.testing.assert_array_equal(p.data, want)
        for k in m:
            np.testing.assert_array_equal(state.m[k], m[k])
            np.testing.assert_array_equal(state.v[k], v[k])

    def test_checkpoint_is_a_relative_link_to_a_directory_of_its_step(self, tmp_path):
        model = tiny_model(seed=7)
        state = TrainState(model, seed=0)
        self.stepped(model, state)
        ckpt = tmp_path / "out" / "checkpoint"
        save_checkpoint(ckpt, model, state, self.cfg)
        target = os.readlink(ckpt)
        assert re.fullmatch(r"checkpoint-1-[0-9a-f]{8}", target)
        assert sorted(os.listdir(ckpt)) == ["config.json", "model.bin", "state.bin"]
        assert checkpoint_siblings(tmp_path / "out") == ["checkpoint", target]

    @pytest.mark.parametrize("fault", ["link_replace", "state_save"])
    def test_a_failed_save_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch,
                                                          fault):
        model = tiny_model(seed=7)
        state = TrainState(model, seed=0)
        ckpt = tmp_path / "out" / "checkpoint"
        self.stepped(model, state)
        save_checkpoint(ckpt, model, state, self.cfg)
        first = self.snapshot(model, state)
        self.stepped(model, state)

        class Refused(OSError):
            pass

        if fault == "link_replace":
            real_replace = os.replace

            def refusing_replace(src, dst):
                if str(src).endswith("checkpoint.new"):
                    raise Refused
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", refusing_replace)
        else:
            def refusing_save(self, path):
                raise Refused

            monkeypatch.setattr(TrainState, "save", refusing_save)
        with pytest.raises(Refused):
            save_checkpoint(ckpt, model, state, self.cfg)
        monkeypatch.undo()
        self.assert_holds(ckpt, first, step=1)

        save_checkpoint(ckpt, model, state, self.cfg)
        self.assert_holds(ckpt, self.snapshot(model, state), step=2)
        assert checkpoint_siblings(tmp_path / "out") == ["checkpoint", os.readlink(ckpt)]

    def test_two_fresh_runs_into_one_out_dir(self, tmp_path):
        cfg = TrainConfig(total_steps=3, warmup_steps=1, batch_size=2,
                          checkpoint_interval=1, seed=2)
        for _ in range(2):
            model = tiny_model(seed=4)
            state, ckpt = train(model, [tiny_bucket()], cfg, tmp_path / "run")
            self.assert_holds(ckpt, self.snapshot(model, state), step=3)
            assert checkpoint_siblings(tmp_path / "run") == [
                "checkpoint", os.readlink(ckpt)]

    def test_a_real_checkpoint_directory_is_moved_aside_once(self, tmp_path):
        out = tmp_path / "run"
        (out / "checkpoint").mkdir(parents=True)
        (out / "checkpoint" / "model.bin").write_bytes(b"from an older run")
        keep = [out / "checkpoint-best", out / "checkpoint-1-keep", out / "notes.txt"]
        keep[0].mkdir()
        keep[1].mkdir()
        keep[2].write_text("mine")
        cfg = TrainConfig(total_steps=2, warmup_steps=1, batch_size=2,
                          checkpoint_interval=1)
        model = tiny_model(seed=4)
        state, ckpt = train(model, [tiny_bucket()], cfg, out)
        assert os.path.islink(ckpt)
        self.assert_holds(ckpt, self.snapshot(model, state), step=2)
        assert checkpoint_siblings(out) == sorted(
            ["checkpoint", os.readlink(ckpt), "checkpoint-best", "checkpoint-1-keep"])
        assert all(path.exists() for path in keep)

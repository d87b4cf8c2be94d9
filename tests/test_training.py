import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qgen.model import ModelConfig, TransformerModel
from qgen.squad import Bucket, InvertedExample
from qgen import training
from qgen.tensor import Tensor, cross_entropy_with_logits
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
    idx = range(len(bucket))
    return (bucket.input_matrix(idx, pad_id), bucket.target_matrix(idx, pad_id), "b")


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


class TestTrainStep:
    def test_loss_decreases_over_windows_on_fixed_batch(self):
        model = tiny_model(seed=1)
        bucket = tiny_bucket()
        batch = batch_from(bucket)
        cfg = TrainConfig(total_steps=120, base_lr=3e-3, warmup_steps=10, batch_size=4)
        state = TrainState(model, seed=0)
        losses = [train_step(model, batch, state, cfg) for _ in range(120)]
        for i in range(len(losses) - 50):
            assert losses[i + 50] < losses[i]

    def test_non_finite_loss_aborts_with_diagnostics(self):
        model = tiny_model(seed=2)
        model.embed.data[4] = np.nan
        cfg = TrainConfig(total_steps=10, warmup_steps=5)
        state = TrainState(model, seed=0)
        with pytest.raises(NumericalError, match=r"step 0 \(bucket b, lr"):
            train_step(model, batch_from(tiny_bucket()), state, cfg)

    def test_step_counter_advances(self):
        model = tiny_model(seed=3)
        cfg = TrainConfig(total_steps=10, warmup_steps=5)
        state = TrainState(model, seed=0)
        train_step(model, batch_from(tiny_bucket()), state, cfg)
        assert state.step == 1


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

    def test_empty_buckets_rejected(self, tmp_path):
        model = tiny_model()
        cfg = TrainConfig(total_steps=5, warmup_steps=2)
        with pytest.raises(ValueError, match="empty"):
            train(model, [Bucket(8, 4, [])], cfg, tmp_path / "x")


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

    def test_accuracy_helper_bounded(self):
        model = tiny_model(seed=8)
        acc = teacher_forced_accuracy(model, [tiny_bucket()])
        assert 0.0 <= acc <= 1.0

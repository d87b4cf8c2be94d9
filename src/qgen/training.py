"""Teacher-forced cross-entropy training: Adam with inverse-square-root warmup,
global-norm gradient clipping, JSON-lines metrics, resumable checkpoints."""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .model import TransformerModel, read_container, write_container
from .squad import Bucket
from .tensor import ShapeError, backward, cross_entropy_with_logits, no_grad

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


class NumericalError(RuntimeError):
    """Training produced a non-finite loss; message carries step/bucket/lr."""

    def __init__(self, step: int, bucket: str, lr: float):
        super().__init__(
            f"non-finite loss at step {step} (bucket {bucket}, lr {lr:.3e})"
        )
        self.step = step
        self.bucket = bucket
        self.lr = lr


@dataclass
class TrainConfig:
    total_steps: int
    base_lr: float = 1e-3
    warmup_steps: int = 400
    batch_size: int = 32
    checkpoint_interval: int = 500
    seed: int = 0
    clip_norm: float = 1.0
    label_smoothing: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        for name in ("base_lr", "warmup_steps", "batch_size", "checkpoint_interval",
                     "clip_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.total_steps > 0 and self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")


def learning_rate(step: int, config: TrainConfig) -> float:
    """Linear warmup to base_lr at warmup_steps, then inverse-sqrt decay."""
    if step < 1:
        raise ValueError("learning_rate is defined for steps >= 1")
    w = config.warmup_steps
    return config.base_lr * min(step / w, np.sqrt(w / step))


class TrainState:
    """Step counter, Adam moments, best loss, and the sampling/dropout RNG."""

    def __init__(self, model: TransformerModel, seed: int):
        self.step = 0
        self.best_loss = float("inf")
        self.rng = np.random.default_rng(seed)
        self.m = {p.name: np.zeros_like(p.data) for p in model.parameters()}
        self.v = {p.name: np.zeros_like(p.data) for p in model.parameters()}

    def save(self, path) -> None:
        tensors = [(f"m:{k}", a) for k, a in self.m.items()]
        tensors += [(f"v:{k}", a) for k, a in self.v.items()]
        meta = {
            "step": self.step,
            "best_loss": self.best_loss,
            "rng_state": self.rng.bit_generator.state,
        }
        write_container(path, meta, tensors)

    @classmethod
    def load(cls, path, model: TransformerModel) -> "TrainState":
        meta, arrays = read_container(path)
        state = cls(model, seed=0)
        state.step = int(meta["step"])
        state.best_loss = float(meta["best_loss"])
        state.rng.bit_generator.state = meta["rng_state"]
        for p in model.parameters():
            state.m[p.name] = arrays[f"m:{p.name}"]
            state.v[p.name] = arrays[f"v:{p.name}"]
        return state


def clip_gradients(model: TransformerModel, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in model.parameters():
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in model.parameters():
            p.grad = p.grad * scale
    return norm


def adam_step(model: TransformerModel, state: TrainState, lr: float,
              weight_decay: float = 0.0) -> None:
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for p in model.parameters():
        g = p.grad
        m = state.m[p.name] = ADAM_BETA1 * state.m[p.name] + (1 - ADAM_BETA1) * g
        v = state.v[p.name] = ADAM_BETA2 * state.v[p.name] + (1 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if weight_decay > 0.0:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update


def train_step(model: TransformerModel, batch, state: TrainState,
               config: TrainConfig) -> float:
    """One optimization step on a uniformly padded batch.

    batch is (input_ids, target_ids, bucket_label); targets include the
    leading [BOS] and trailing [EOS], so the decoder sees targets[:, :-1] and
    is scored against targets[:, 1:].
    """
    inputs, targets, bucket_label = batch
    lr = learning_rate(state.step + 1, config)
    pad_id = model.config.pad_id
    drop_rng = state.rng if model.config.dropout > 0 else None
    try:
        logits = model.forward(inputs, targets[:, :-1], rng=drop_rng)
        step_loss = cross_entropy_with_logits(
            logits, targets[:, 1:], pad_id, config.label_smoothing
        )
        value = step_loss.item()
    except ShapeError:
        raise
    except ValueError as exc:
        raise NumericalError(state.step, bucket_label, lr) from exc
    if not np.isfinite(value):
        raise NumericalError(state.step, bucket_label, lr)
    model.zero_grads()
    backward(step_loss)
    clip_gradients(model, config.clip_norm)
    adam_step(model, state, lr, config.weight_decay)
    state.step += 1
    state.best_loss = min(state.best_loss, value)
    return value


def save_checkpoint(directory, model: TransformerModel, state: TrainState,
                    config: TrainConfig) -> None:
    """config.json + model.bin + state.bin, each written atomically."""
    os.makedirs(directory, exist_ok=True)
    cfg_path = os.path.join(directory, "config.json")
    tmp = cfg_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(
            {"model": asdict(model.config), "train": asdict(config)},
            fh, sort_keys=True, indent=2,
        )
        fh.write("\n")
    os.replace(tmp, cfg_path)
    model.save(os.path.join(directory, "model.bin"))
    state.save(os.path.join(directory, "state.bin"))


def load_checkpoint(directory) -> tuple[TransformerModel, TrainState, TrainConfig]:
    model = TransformerModel.load(os.path.join(directory, "model.bin"))
    state = TrainState.load(os.path.join(directory, "state.bin"), model)
    with open(os.path.join(directory, "config.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    return model, state, TrainConfig(**cfg["train"])


def train(model: TransformerModel, buckets: list[Bucket], config: TrainConfig,
          out_dir, state: TrainState | None = None) -> tuple[TrainState, str]:
    """Run the training loop; returns the final state and checkpoint directory.

    Batches are drawn from non-empty buckets with probability proportional to
    bucket size. Metrics go to out_dir/metrics.jsonl, one record per step
    (tokens_per_sec counts the non-pad input and target tokens); checkpoints
    land in out_dir/checkpoint every checkpoint_interval steps and at the
    end. A resumed run (state.step > 0) first drops the log's records of
    later steps, which it is about to repeat.
    """
    occupied = [b for b in buckets if len(b) > 0]
    if not occupied and config.total_steps > 0:
        raise ValueError("train: all buckets are empty")
    os.makedirs(out_dir, exist_ok=True)
    ckpt_dir = os.path.join(out_dir, "checkpoint")
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    if state is None:
        state = TrainState(model, config.seed)
    pad_id = model.config.pad_id
    weights = np.array([len(b) for b in occupied], dtype=np.float64)
    weights /= weights.sum() if len(weights) else 1.0
    if state.step > 0:
        _truncate_log(metrics_path, state.step)
    mode = "a" if state.step > 0 else "w"
    with open(metrics_path, mode, encoding="utf-8") as metrics:
        while state.step < config.total_steps:
            bucket = occupied[int(state.rng.choice(len(occupied), p=weights))]
            n = len(bucket)
            replace = n < config.batch_size
            indices = state.rng.choice(n, size=config.batch_size, replace=replace)
            batch = (
                bucket.input_matrix(indices, pad_id),
                bucket.target_matrix(indices, pad_id),
                f"{bucket.max_input}x{bucket.max_target}",
            )
            started = time.perf_counter()
            value = train_step(model, batch, state, config)
            elapsed = max(time.perf_counter() - started, 1e-9)
            tokens = int((batch[0] != pad_id).sum() + (batch[1] != pad_id).sum())
            record = {
                "step": state.step,
                "loss": value,
                "lr": learning_rate(state.step, config),
                "tokens_per_sec": tokens / elapsed,
            }
            metrics.write(json.dumps(record) + "\n")
            metrics.flush()
            if state.step % config.checkpoint_interval == 0:
                save_checkpoint(ckpt_dir, model, state, config)
    save_checkpoint(ckpt_dir, model, state, config)
    return state, ckpt_dir


def _truncate_log(path, step: int) -> None:
    """Cut a metrics log down to its records of steps up to step.

    A run resumed from the checkpoint of that step logs the later steps
    again. Records are in step order, and a line cut short by a kill can
    only come after the checkpoint's record.
    """
    if not os.path.exists(path):
        return
    kept = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                if json.loads(line)["step"] > step:
                    break
            except ValueError:
                break
            kept.append(line)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    os.replace(tmp, path)


def teacher_forced_accuracy(model: TransformerModel, buckets: list[Bucket]) -> float:
    """Fraction of non-padding target tokens the model predicts by argmax."""
    pad_id = model.config.pad_id
    hits = 0
    total = 0
    with no_grad():
        for bucket in buckets:
            if not bucket.examples:
                continue
            indices = range(len(bucket))
            inputs = bucket.input_matrix(indices, pad_id)
            targets = bucket.target_matrix(indices, pad_id)
            logits = model.forward(inputs, targets[:, :-1])
            pred = logits.data.argmax(axis=-1)
            gold = targets[:, 1:]
            mask = gold != pad_id
            hits += int((pred[mask] == gold[mask]).sum())
            total += int(mask.sum())
    return hits / total if total else 0.0

"""Teacher-forced cross-entropy training: Adam with inverse-square-root warmup,
global-norm gradient clipping, JSON-lines metrics, resumable checkpoints."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import time
from dataclasses import asdict, dataclass

import numpy as np

from .model import ModelConfig, TransformerModel, read_container, stored_array, write_container
from .squad import Bucket, read_json, replacing, write_json
from .tensor import (COMPUTE_DTYPE, ShapeError, backward, compute_copies,
                     cross_entropy_with_logits, no_grad)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


class NumericalError(RuntimeError):
    """Training produced a non-finite loss or gradient norm; the message
    carries what, step, bucket and lr."""

    def __init__(self, step: int, bucket: str, lr: float, what: str = "loss"):
        super().__init__(
            f"non-finite {what} at step {step} (bucket {bucket}, lr {lr:.3e})"
        )


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
        """Each message starts with the field's name."""
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        for name in ("warmup_steps", "batch_size", "checkpoint_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # NaN fails every comparison, so it fails each range.
        ranges = {
            "base_lr": (0.0 < self.base_lr < math.inf, "a finite number > 0"),
            "clip_norm": (0.0 < self.clip_norm < math.inf, "a finite number > 0"),
            "label_smoothing": (0.0 <= self.label_smoothing < 1.0, "in [0, 1)"),
            "weight_decay": (0.0 <= self.weight_decay < math.inf,
                             "a finite number >= 0"),
        }
        for name, (ok, rule) in ranges.items():
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.total_steps > 0 and self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")


def learning_rate(step: int, config: TrainConfig) -> float:
    """Linear warmup to base_lr at warmup_steps, then inverse-sqrt decay."""
    if step < 1:
        raise ValueError("learning_rate is defined for steps >= 1")
    w = config.warmup_steps
    return config.base_lr * min(step / w, np.sqrt(w / step))


class TrainState:
    """Step counter, Adam moments, and the sampling/dropout RNG."""

    def __init__(self, model: TransformerModel, seed: int):
        self.step = 0
        self.rng = np.random.default_rng(seed)
        self.m = {p.name: np.zeros_like(p.data) for p in model.parameters()}
        self.v = {p.name: np.zeros_like(p.data) for p in model.parameters()}

    def save(self, path) -> None:
        tensors = [(f"m:{k}", a) for k, a in self.m.items()]
        tensors += [(f"v:{k}", a) for k, a in self.v.items()]
        meta = {"step": self.step, "rng_state": self.rng.bit_generator.state}
        write_container(path, meta, tensors)

    @classmethod
    def load(cls, path, model: TransformerModel) -> "TrainState":
        """The state stored at path; its moments are the very arrays read."""
        meta, arrays = read_container(path)
        state = cls.__new__(cls)
        state.step = meta.get("step")
        if type(state.step) is not int or state.step < 0:
            raise ValueError(f"{path}: step must be a non-negative integer, "
                             f"got {state.step!r}")
        state.rng = np.random.default_rng(0)
        try:
            state.rng.bit_generator.state = meta.get("rng_state")
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ValueError(f"{path}: the generator refuses rng_state: {exc!r}") from None
        state.m, state.v = ({p.name: stored_array(arrays, f"{kind}:{p.name}", p.shape, path)
                             for p in model.parameters()} for kind in "mv")
        model.check_names(arrays, path, prefixes=("m:", "v:"))
        return state


def clip_gradients(model: TransformerModel, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm; returns
    the norm before. A non-finite norm leaves the gradients as they are."""
    total = 0.0
    for p in model.parameters():
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if max_norm < norm < math.inf:
        scale = max_norm / norm
        for p in model.parameters():
            p.grad = p.grad * scale
    return norm


def adam_step(model: TransformerModel, state: TrainState, lr: float,
              weight_decay: float = 0.0) -> None:
    """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, then p -= lr ((m / bc1) /
    (sqrt(v / bc2) + eps) + weight_decay p): in place, in this order."""
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for p in model.parameters():
        g, m, v = p.grad, state.m[p.name], state.v[p.name]
        scratch = np.multiply(g, 1 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += scratch
        np.multiply(g, 1 - ADAM_BETA2, out=scratch)
        scratch *= g
        v *= ADAM_BETA2
        v += scratch
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        update = m / bc1
        update /= scratch
        if weight_decay > 0.0:
            np.multiply(p.data, weight_decay, out=scratch)
            update += scratch
        update *= lr
        p.data -= update


def train_step(model: TransformerModel, batch, state: TrainState,
               config: TrainConfig, *, compute_dtype=COMPUTE_DTYPE
               ) -> tuple[float, float]:
    """One optimization step; returns the loss and the gradients' global L2
    norm before clipping.

    The forward and backward passes run at compute_dtype: each parameter's
    float64 master array is swapped for a copy at that dtype
    (tensor.compute_copies) and put back when they end, whether or not they
    raised. The gradients are then cast to float64, so clipping, Adam and
    the masters see only float64 arrays (mixed-precision training,
    Micikevicius et al. 2018). A non-finite loss or pre-clip gradient norm
    raises NumericalError before the masters, the moments or state.step
    change.

    batch is (input_ids, target_ids, bucket) as Bucket.batch makes it, each
    matrix padded to its longest row; targets include the leading [BOS] and
    trailing [EOS], so the decoder sees targets[:, :-1] and is scored
    against targets[:, 1:]. Dropout draws its numbers at the bucket's widths
    (_BucketDraws): every position gets the mask a batch padded to the
    bucket's bounds would have drawn, and state.rng, which also samples the
    batches, advances the same whatever the rows' lengths.
    """
    inputs, targets, bucket = batch
    if inputs.shape[1] > bucket.max_input or targets.shape[1] > bucket.max_target:
        raise ShapeError(f"batch of widths {inputs.shape[1]} and {targets.shape[1]} "
                         f"is wider than bucket {bucket.label}")
    lr = learning_rate(state.step + 1, config)
    pad_id = model.config.pad_id
    enc_rng = _BucketDraws(state.rng, bucket.max_input)
    dec_rng = _BucketDraws(state.rng, bucket.max_target - 1)
    params = model.parameters()
    with compute_copies(params, compute_dtype):
        try:
            enc_out, src_ids = model.encode(inputs, enc_rng)
            logits = model.decode(enc_out, src_ids, targets[:, :-1], dec_rng)
            step_loss = cross_entropy_with_logits(
                logits, targets[:, 1:], pad_id, config.label_smoothing
            )
            value = step_loss.item()
        except ShapeError:
            raise
        except ValueError as exc:
            raise NumericalError(state.step, bucket.label, lr) from exc
        if not np.isfinite(value):
            raise NumericalError(state.step, bucket.label, lr)
        model.zero_grads()
        backward(step_loss)
    for p in params:
        p.grad = p.grad.astype(np.float64, copy=False)
    grad_norm = clip_gradients(model, config.clip_norm)
    if not math.isfinite(grad_norm):
        raise NumericalError(state.step, bucket.label, lr, "gradient norm")
    adam_step(model, state, lr, config.weight_decay)
    state.step += 1
    return value, grad_norm


class _BucketDraws:
    """state.rng as dropout sees it on a batch narrower than its bucket.

    random(shape) draws (rows, width, ...) numbers, width being the bucket's
    sequence length, and returns the first shape[1] positions of each row.
    """

    def __init__(self, rng: np.random.Generator, width: int):
        self.rng = rng
        self.width = width

    def random(self, shape) -> np.ndarray:
        return self.rng.random((shape[0], self.width, *shape[2:]))[:, : shape[1]]


def save_checkpoint(directory, model: TransformerModel, state: TrainState,
                    config: TrainConfig) -> None:
    """Publish config.json, model.bin and state.bin at directory as one unit.

    The three are written into a fresh sibling <name>-<step>-<8 hex digits>,
    and a relative symlink <name>.new to it is renamed over <name>, so <name>
    holds the files of one save, old or new, wherever a kill lands. Then
    every other <name>-<step>-<hex> sibling is removed (the one linked before,
    and any a killed save left). A real <name> directory from an older run is
    moved aside once, the only step that is not atomic. Nothing is fsynced.
    """
    parent, name = os.path.split(os.path.abspath(directory))
    tag = f"{name}-{state.step}-"
    os.makedirs(parent, exist_ok=True)
    target = tag + os.urandom(4).hex()
    fresh = os.path.join(parent, target)
    os.mkdir(fresh)
    write_json(os.path.join(fresh, "config.json"),
               {"model": asdict(model.config), "train": asdict(config)})
    model.save(os.path.join(fresh, "model.bin"))
    state.save(os.path.join(fresh, "state.bin"))
    link = os.path.join(parent, name)
    if os.path.isdir(link) and not os.path.islink(link):
        os.rename(link, os.path.join(parent, tag + os.urandom(4).hex()))
    if os.path.lexists(link + ".new"):
        os.remove(link + ".new")
    os.symlink(target, link + ".new")
    os.replace(link + ".new", link)
    stale = re.compile(re.escape(name) + r"-\d+-[0-9a-f]{8}")
    for entry in os.listdir(parent):
        if stale.fullmatch(entry) and entry != target:
            shutil.rmtree(os.path.join(parent, entry))


def load_checkpoint(directory) -> tuple[TransformerModel, TrainState, TrainConfig]:
    """The model, state and config a checkpoint holds. A config.json whose
    "train" section is missing or bad raises ValueError naming the file."""
    model = TransformerModel.load(os.path.join(directory, "model.bin"))
    state = TrainState.load(os.path.join(directory, "state.bin"), model)
    path = os.path.join(directory, "config.json")
    doc = read_json(path)
    fields = doc.get("train") if isinstance(doc, dict) else None
    if not isinstance(fields, dict):
        raise ValueError(f'checkpoint {path}: "train" must be an object of train settings')
    try:
        return model, state, TrainConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: bad train config: {exc}") from None


def train(model: TransformerModel, buckets: list[Bucket], config: TrainConfig,
          out_dir, state: TrainState | None = None) -> tuple[TrainState, str]:
    """Run the training loop; returns the final state and checkpoint directory.

    Batches are drawn from non-empty buckets with probability proportional to
    bucket size. Metrics go to out_dir/metrics.jsonl, one record per step:
    step, bucket (its label), loss, lr, grad_norm (before clipping),
    clipped (whether grad_norm exceeded clip_norm), real_tokens (the non-pad
    input and target tokens), pad_fraction (the [PAD] share of the input and
    target positions the step computed) and tokens_per_sec,
    the one field that is not the same on every run; checkpoints
    land in out_dir/checkpoint every checkpoint_interval steps and at the
    end, once. A resumed run (state.step > 0) first drops the log's records of
    later steps, which it is about to repeat.
    """
    occupied = [b for b in buckets if len(b) > 0]
    if not occupied and config.total_steps > 0:
        raise ValueError("train: all buckets are empty")
    for bucket in occupied:
        _check_fits(bucket, model.config)
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
    saved_step = None
    with open(metrics_path, mode, encoding="utf-8") as metrics:
        while state.step < config.total_steps:
            bucket = occupied[int(state.rng.choice(len(occupied), p=weights))]
            n = len(bucket)
            replace = n < config.batch_size
            indices = state.rng.choice(n, size=config.batch_size, replace=replace)
            batch = bucket.batch(indices, pad_id)
            started = time.perf_counter()
            value, grad_norm = train_step(model, batch, state, config)
            elapsed = max(time.perf_counter() - started, 1e-9)
            tokens = int((batch[0] != pad_id).sum() + (batch[1] != pad_id).sum())
            computed = batch[0].size + batch[1].size
            record = {
                "step": state.step,
                "bucket": bucket.label,
                "loss": value,
                "lr": learning_rate(state.step, config),
                "grad_norm": grad_norm,
                "clipped": grad_norm > config.clip_norm,
                "real_tokens": tokens,
                "pad_fraction": 1.0 - tokens / computed,
                "tokens_per_sec": tokens / elapsed,
            }
            metrics.write(json.dumps(record) + "\n")
            metrics.flush()
            if state.step % config.checkpoint_interval == 0:
                save_checkpoint(ckpt_dir, model, state, config)
                saved_step = state.step
    if saved_step != state.step:
        save_checkpoint(ckpt_dir, model, state, config)
    return state, ckpt_dir


def _check_fits(bucket: Bucket, config: ModelConfig) -> None:
    """Refuse a bucket wider than the model's positions or holding an id
    outside its vocabulary (the decoder reads targets less their last id)."""
    need = max(bucket.max_input, bucket.max_target - 1)
    if need > config.max_positions:
        raise ValueError(f"bucket {bucket.label} needs {need} positions, more than "
                         f"max_positions {config.max_positions}")
    for ex in bucket.examples:
        ids = ex.input_ids + ex.target_ids
        if min(ids, default=0) < 0 or max(ids, default=0) >= config.vocab_size:
            bad = min(ids) if min(ids) < 0 else max(ids)
            raise ValueError(f"example {ex.question_id}: token id {bad} is outside "
                             f"the vocabulary [0, {config.vocab_size})")


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
    with replacing(path) as fh:
        fh.writelines(kept)


def teacher_forced_accuracy(model: TransformerModel, buckets: list[Bucket]) -> float:
    """Fraction of non-padding target tokens the model predicts by argmax."""
    pad_id = model.config.pad_id
    hits = 0
    total = 0
    with no_grad():
        for bucket in buckets:
            if not bucket.examples:
                continue
            inputs, targets, _ = bucket.batch(range(len(bucket)), pad_id)
            logits = model.forward(inputs, targets[:, :-1])
            pred = logits.data.argmax(axis=-1)
            gold = targets[:, 1:]
            mask = gold != pad_id
            hits += int((pred[mask] == gold[mask]).sum())
            total += int(mask.sum())
    return hits / total if total else 0.0

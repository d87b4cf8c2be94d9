"""Encoder-decoder transformer built on the autodiff tensor module.

Every pass takes (B, t) ids and each row's real length, its first positions,
and runs on those positions only, packed in row order into (n_real, d_model)
rows; forward is the pass whose every position is real. Only attention sees
the (B, t) layout: scaled dot-product over the last two axes, with the heads
stacked on a leading axis, as a single autodiff node (tensor.attention) that
keeps only its probabilities. Blocks use pre-layer-norm residuals.
Checkpoints are a small versioned binary container holding the config and
every named parameter as little-endian float64.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from .squad import replacing

# concat_last and softmax_rows are not called here. They stay imported because
# the benchmark's traced runs wrap tensor ops where this module looks them up
# (perfbench/layers.py: qgen.model:<op>).
from .tensor import (  # noqa: F401
    Parameter,
    ShapeError,
    Tensor,
    add,
    attention,
    attention_forward,
    concat_last,
    dropout,
    embedding,
    gather_rows,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    scatter_rows,
    softmax_rows,
    swap_axes,
    transpose,
)

MASK_VALUE = -1e9


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    num_heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    d_ff: int = 512
    max_positions: int = 512
    dropout: float = 0.1
    pad_id: int = 0
    bos_id: int = 2
    eos_id: int = 3
    share_embeddings: bool = True

    def __post_init__(self):
        """Each message starts with the field's name."""
        for name in ("vocab_size", "d_model", "num_heads", "enc_layers",
                     "dec_layers", "d_ff", "max_positions"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even, got {self.d_model}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by num_heads={self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        for name in ("pad_id", "bos_id", "eos_id"):
            value = getattr(self, name)
            if type(value) is not int or not 0 <= value < self.vocab_size:
                raise ValueError(f"{name} must be an integer in [0, vocab_size "
                                 f"{self.vocab_size}), got {value!r}")


@lru_cache
def positional_encoding(max_len: int, d_model: int) -> Tensor:
    """Fixed sinusoidal position table: sin on even columns, cos on odd.
    Made once per shape and read-only, so every model of a shape shares it."""
    if max_len <= 0 or d_model <= 0:
        raise ValueError("positional_encoding dims must be positive")
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, i / d_model)
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.flags.writeable = False
    return Tensor(table)


def real_rows(lengths, width: int) -> np.ndarray:
    """(B, width) mask of each row's first lengths[i] positions, its real ones."""
    return np.arange(width) < np.asarray(lengths)[:, None]


class MultiHeadParams:
    """Query, key, value and output projections, each one (d_model, d_model)
    Parameter; head i reads columns i*d_head ... (i+1)*d_head of wq, wk, wv."""

    def __init__(self, d_model: int, num_heads: int, make: ParameterMaker, prefix: str):
        self.num_heads = num_heads
        self.d_model = d_model
        per_head = partial(_xavier, heads=num_heads)
        self.wq = make(f"{prefix}.wq", (d_model, d_model), per_head)
        self.wk = make(f"{prefix}.wk", (d_model, d_model), per_head)
        self.wv = make(f"{prefix}.wv", (d_model, d_model), per_head)
        self.wo = make(f"{prefix}.wo", (d_model, d_model), _xavier)


def _heads(x, weight, num_heads: int, rows: np.ndarray) -> Tensor:
    """x (n_real, d_model) times a projection, placed at the true positions
    of rows (B, m), with the heads moved to their own axis: (B, h, m, d_head);
    the positions rows leaves out are zeros."""
    projected = scatter_rows(matmul(x, weight), rows)  # (B, m, d_model)
    split = reshape(projected, (*projected.shape[:-1], num_heads, -1))
    return swap_axes(split, -3, -2)


def multi_head(x_q, params: MultiHeadParams, mask, rows: np.ndarray, memory,
               memory_rows: np.ndarray) -> Tensor:
    """Multi-head attention: project, split into heads, attend, merge, project out.

    x_q holds the rows of the real positions of rows (a (B, m) mask, as
    real_rows makes it), (n_real, d_model), and so does the output. The
    keys and values are projected from memory, the real positions of
    memory_rows: x_q and rows again for self-attention, the encoder output
    for cross-attention. Only attention sees the (B, m) layout, so a real
    query must see no position outside memory_rows: mask hides it. Heads are
    evaluated together by stacking them on a leading axis, which is
    numerically identical to looping per head.
    """
    if x_q.shape[-1] != params.d_model:
        raise ShapeError(f"multi_head: input width {x_q.shape} != {params.d_model}")
    n = params.num_heads
    q = _heads(x_q, params.wq, n, rows)
    k, v = _heads(memory, params.wk, n, memory_rows), _heads(memory, params.wv, n, memory_rows)
    heads = gather_rows(swap_axes(attention(q, k, v, mask), -3, -2), rows)  # (n_real, h, d_head)
    merged = reshape(heads, (*heads.shape[:-2], params.d_model))
    return matmul(merged, params.wo)


def _xavier(rng: np.random.Generator, shape: tuple[int, int], heads: int = 1) -> np.ndarray:
    """heads Xavier-uniform column blocks, each at its width's limit, side by side."""
    limit = np.sqrt(6.0 / (shape[0] + shape[1] // heads))
    blocks = rng.uniform(-limit, limit, size=(heads, shape[0], shape[1] // heads))
    return blocks.transpose(1, 0, 2).reshape(shape)


def _ones(rng, shape) -> np.ndarray:
    return np.ones(shape)


def _zeros(rng, shape) -> np.ndarray:
    return np.zeros(shape)


class ParameterMaker:
    """Makes a model's parameters, each once, and lists them in the order
    made: the order of a checkpoint, of the Adam moments and of gradient
    clipping.

    Values are drawn by fill(rng, shape) from the generator rng, or, when
    stored is given, taken by name from a checkpoint's arrays (read from
    path), drawing nothing.
    """

    def __init__(self, rng: np.random.Generator | None = None, *,
                 stored: dict[str, np.ndarray] | None = None, path=None):
        self.rng = rng
        self.stored = stored
        self.path = path
        self.made: list[Parameter] = []
        self._names: set[str] = set()

    def __call__(self, name: str, shape: tuple[int, ...], fill) -> Parameter:
        if name in self._names:
            raise RuntimeError(f"parameter {name} made more than once")
        self._names.add(name)
        values = (fill(self.rng, shape) if self.stored is None
                  else stored_array(self.stored, name, shape, self.path))
        param = Parameter(values, name)
        self.made.append(param)
        return param


class _LayerNormParams:
    def __init__(self, d: int, make: ParameterMaker, prefix: str):
        self.gain = make(f"{prefix}.gain", (d,), _ones)
        self.bias = make(f"{prefix}.bias", (d,), _zeros)

    def __call__(self, x) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


class _FeedForward:
    def __init__(self, d_model: int, d_ff: int, make: ParameterMaker, prefix: str):
        self.w1 = make(f"{prefix}.w1", (d_model, d_ff), _xavier)
        self.b1 = make(f"{prefix}.b1", (d_ff,), _zeros)
        self.w2 = make(f"{prefix}.w2", (d_ff, d_model), _xavier)
        self.b2 = make(f"{prefix}.b2", (d_model,), _zeros)

    def __call__(self, x) -> Tensor:
        return add(matmul(relu(add(matmul(x, self.w1), self.b1)), self.w2), self.b2)


class _EncoderLayer:
    def __init__(self, cfg: ModelConfig, make: ParameterMaker, prefix: str):
        self.ln1 = _LayerNormParams(cfg.d_model, make, f"{prefix}.ln1")
        self.attn = MultiHeadParams(cfg.d_model, cfg.num_heads, make, f"{prefix}.attn")
        self.ln2 = _LayerNormParams(cfg.d_model, make, f"{prefix}.ln2")
        self.ffn = _FeedForward(cfg.d_model, cfg.d_ff, make, f"{prefix}.ffn")
        self.rate = cfg.dropout

    def __call__(self, x, rows, mask, rng) -> Tensor:
        h = self.ln1(x)
        x = add(x, dropout(multi_head(h, self.attn, mask, rows, h, rows), self.rate, rng))
        return add(x, dropout(self.ffn(self.ln2(x)), self.rate, rng))


class _DecoderLayer:
    def __init__(self, cfg: ModelConfig, make: ParameterMaker, prefix: str):
        self.ln1 = _LayerNormParams(cfg.d_model, make, f"{prefix}.ln1")
        self.self_attn = MultiHeadParams(cfg.d_model, cfg.num_heads, make,
                                         f"{prefix}.self_attn")
        self.ln2 = _LayerNormParams(cfg.d_model, make, f"{prefix}.ln2")
        self.cross_attn = MultiHeadParams(cfg.d_model, cfg.num_heads, make,
                                          f"{prefix}.cross_attn")
        self.ln3 = _LayerNormParams(cfg.d_model, make, f"{prefix}.ln3")
        self.ffn = _FeedForward(cfg.d_model, cfg.d_ff, make, f"{prefix}.ffn")
        self.rate = cfg.dropout

    def __call__(self, x, rows, enc_out, src_rows, self_mask, cross_mask, rng) -> Tensor:
        h = self.ln1(x)
        x = add(x, dropout(multi_head(h, self.self_attn, self_mask, rows, h, rows),
                           self.rate, rng))
        x = add(x, dropout(multi_head(self.ln2(x), self.cross_attn, cross_mask, rows, enc_out,
                                      src_rows),
                           self.rate, rng))
        return add(x, dropout(self.ffn(self.ln3(x)), self.rate, rng))


def _normalized(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Layer norm without gain and bias, into a new array; mean is a
    (d_model, 1) column of 1 / d_model at x's dtype."""
    xc = x - x @ mean
    var = (xc * xc) @ mean
    var += 1e-5  # layer_norm's eps
    xc /= np.sqrt(var, out=var)
    return xc


class DecoderStepper:
    """The decoder run one position at a time over the rows (beams) of one
    source, on plain arrays at the encoder output's dtype, off the graph.

    Per search it builds from the float64 masters every array a step reads.
    Each layer norm's gain is folded into the rows of the product after it,
    and its bias into that product's bias: ln1 into one [wq|wk|wv], ln2 into
    the cross-attention wq, ln3 into w1 and dec_norm into the output
    projection. Per source it holds each layer's cross-attention keys and
    values and the [PAD] mask (none if the source has no [PAD]). Per row it
    writes each layer's self-attention keys and values in place into one
    buffer of max_length positions, and, once some row has decoded [PAD],
    keeps the mask hiding those positions.
    """

    def __init__(self, model: "TransformerModel", enc_out: np.ndarray, src_ids: np.ndarray,
                 max_length: int):
        """enc_out (m, d_model) is the encoder output of src_ids (1, m), every
        position real; max_length bounds the steps."""
        if len(src_ids) != 1:
            raise ShapeError(f"the decoder steps over one source, got {len(src_ids)}")
        cfg, dtype = model.config, enc_out.dtype
        self.model, self.length, self.max_length = model, 0, max_length
        self.kv = self.self_mask = None  # (rows, *kv_shape), (rows, 1, 1, max_length)
        heads, d_head = cfg.num_heads, cfg.d_model // cfg.num_heads
        self.kv_shape = (len(model.dec_layers), 2, heads, self.max_length, d_head)

        def folded(norm, weights, bias=0.0):  # (w, b): norm(x) @ [*weights] + bias = xhat @ w + b
            folded = np.concatenate(weights, axis=1, dtype=dtype)
            folded *= norm.gain.data.astype(dtype)[:, None]
            return folded, (np.concatenate([norm.bias.data @ w for w in weights]) + bias
                            ).astype(dtype)

        self.layers = []
        for layer in model.dec_layers:
            attn, cross, ffn = layer.self_attn, layer.cross_attn, layer.ffn
            cross_kv = enc_out @ np.concatenate([cross.wk.data, cross.wv.data], axis=1,
                                                dtype=dtype)
            cross_kv = cross_kv.reshape(-1, 2, heads, d_head)  # (m, [k|v], h, d_head)
            self.layers.append((
                *folded(layer.ln1, [attn.wq.data, attn.wk.data, attn.wv.data]),
                attn.wo.data.astype(dtype),
                *folded(layer.ln2, [cross.wq.data]),
                cross.wo.data.astype(dtype),
                np.ascontiguousarray(cross_kv[:, 0].transpose(1, 2, 0)),  # (h, d_head, m)
                np.ascontiguousarray(cross_kv[:, 1].transpose(1, 0, 2)),  # (h, m, d_head)
                *folded(layer.ln3, [ffn.w1.data], ffn.b1.data),
                ffn.w2.data.astype(dtype), ffn.b2.data.astype(dtype)))
        out_proj = model.embed.data.T if model.out_proj is None else model.out_proj.data
        self.out_proj, self.out_bias = folded(model.dec_norm, [out_proj])  # (d_model, V)
        self.embed = model.embed.data.astype(dtype)
        self.embed *= dtype.type(np.sqrt(cfg.d_model))  # as _embed_sequence scales
        self.positions = model.positions.data[: self.max_length].astype(dtype)
        self.mean = np.full((cfg.d_model, 1), 1.0 / cfg.d_model, dtype)
        has_pad = (src_ids == cfg.pad_id).any()
        self.cross_mask = model._pad_mask(src_ids)[0, 0].astype(dtype) if has_pad else None

    def step(self, last_ids) -> np.ndarray:
        """Decode each row's next position from its last token; returns the
        next-token logits, (rows, V)."""
        model, t = self.model, self.length
        ids = np.asarray(last_ids, dtype=np.int64)
        model._check_ids(ids, "decoder input", t + 1)
        if t == self.max_length:
            raise ShapeError(f"the stepper holds {self.max_length} positions")
        rows, heads, mean = len(ids), self.kv_shape[2], self.mean
        if self.kv is None:
            self.kv = np.empty((rows, *self.kv_shape), mean.dtype)
        pad = ids == model.config.pad_id
        if self.self_mask is None and pad.any():
            self.self_mask = np.zeros((rows, 1, 1, self.max_length), mean.dtype)
        if self.self_mask is not None:
            self.self_mask[pad, 0, 0, t] = MASK_VALUE
        mask = None if self.self_mask is None else self.self_mask[..., : t + 1]
        self.length = t + 1
        x = self.embed[ids] + self.positions[t]
        for (wqkv, bqkv, wo, wq, bq, cross_wo, cross_k, cross_v, w1, b1, w2, b2), kv in zip(
                self.layers, self.kv.swapaxes(0, 1)):
            qkv = _normalized(x, mean) @ wqkv
            qkv += bqkv
            qkv = qkv.reshape(rows, 3, heads, -1)  # (rows, [q|k|v], h, d_head)
            kv[:, :, :, t] = qkv[:, 1:]
            keys, values = kv[:, 0, :, : t + 1], kv[:, 1, :, : t + 1]
            out = attention_forward(qkv[:, 0, :, None], keys.swapaxes(-1, -2), values, mask)[0]
            x += out.reshape(rows, -1) @ wo
            q = _normalized(x, mean) @ wq
            q += bq
            q = q.reshape(rows, heads, -1).swapaxes(0, 1)  # (h, rows, d_head)
            out = attention_forward(q, cross_k, cross_v, self.cross_mask)[0]
            x += out.swapaxes(0, 1).reshape(rows, -1) @ cross_wo
            hidden = _normalized(x, mean) @ w1
            hidden += b1
            x += np.maximum(hidden, 0.0, out=hidden) @ w2
            x += b2
        logits = _normalized(x, mean) @ self.out_proj
        logits += self.out_bias
        return logits

    def select(self, rows) -> None:
        """Keep these rows, in this order; a row may repeat or be dropped.
        Only the positions written so far move, into a fresh buffer."""
        if list(rows) == list(range(len(self.kv))):  # kept as they are
            return
        kv, t = self.kv, self.length
        self.kv = np.empty((len(rows), *self.kv_shape), kv.dtype)
        for new, old in zip(self.kv, rows):  # a row at a time beats one strided gather
            new[..., :t, :] = kv[old, ..., :t, :]
        if self.self_mask is not None:
            self.self_mask = self.self_mask[rows]


class TransformerModel:
    """Token embedding + sinusoidal positions + encoder/decoder stacks."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._build(config, ParameterMaker(np.random.default_rng(seed)))

    def _build(self, config: ModelConfig, make: ParameterMaker) -> None:
        """Make every parameter, in checkpoint order. Layer norms and biases
        draw nothing, so only the embedding, the weight matrices and
        out_proj take values from a generator, in the order made."""
        self.config = config
        d = config.d_model

        def normal(rng, shape):
            return rng.normal(0.0, 1.0 / np.sqrt(d), size=shape)

        self.embed = make("embed", (config.vocab_size, d), normal)
        self.positions = positional_encoding(config.max_positions, d)
        self.enc_layers = [
            _EncoderLayer(config, make, f"enc{i}") for i in range(config.enc_layers)
        ]
        self.enc_norm = _LayerNormParams(d, make, "enc_norm")
        self.dec_layers = [
            _DecoderLayer(config, make, f"dec{i}") for i in range(config.dec_layers)
        ]
        self.dec_norm = _LayerNormParams(d, make, "dec_norm")
        if config.share_embeddings:
            self.out_proj = None
        else:
            self.out_proj = make("out_proj", (d, config.vocab_size), _xavier)
        self._parameters = make.made

    def parameters(self) -> list[Parameter]:
        return list(self._parameters)

    def zero_grads(self) -> None:
        for p in self._parameters:
            p.zero_grad()

    @property
    def dtype(self) -> np.dtype:
        """The dtype the model computes in: its parameters' (float64, but
        for the compute copies a training step swaps in)."""
        return self.embed.data.dtype

    # -- masks ----------------------------------------------------------

    def _pad_mask(self, ids: np.ndarray) -> np.ndarray:
        """(B, 1, 1, m) additive mask hiding [PAD] key positions."""
        hide, see = self.dtype.type(MASK_VALUE), self.dtype.type(0.0)
        return np.where(ids == self.config.pad_id, hide, see)[:, None, None, :]

    def _causal_mask(self, t: int) -> np.ndarray:
        """(t, t) mask: the query at position i sees keys 0 .. i."""
        return np.triu(np.full((t, t), MASK_VALUE, self.dtype), k=1)

    def _check_ids(self, ids: np.ndarray, what: str, length: int | None = None) -> None:
        """ids are in the vocabulary, and a sequence length (ids.shape[-1])
        long fits the position table."""
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ShapeError(
                f"{what} id out of range [0, {self.config.vocab_size})"
            )
        length = ids.shape[-1] if length is None else length
        if length > self.config.max_positions:
            raise ShapeError(
                f"{what} length {length} exceeds max positions "
                f"{self.config.max_positions}"
            )

    @staticmethod
    def _real_rows(ids: np.ndarray, lengths) -> np.ndarray:
        """real_rows of ids (B, t) whose rows are lengths long. A real position
        must see no later one: those are [PAD] keys or, in the decoder,
        causally hidden."""
        lengths = np.asarray(lengths)
        if ids.ndim != 2 or lengths.shape != ids.shape[:1] or (lengths > ids.shape[1]).any():
            raise ShapeError(f"lengths {lengths} do not fit ids of shape {ids.shape}")
        return real_rows(lengths, ids.shape[1])

    def _embed_sequence(self, ids: np.ndarray, rows: np.ndarray, rng) -> Tensor:
        """The scaled embeddings plus positions of ids' real positions, rows."""
        # A float64 scalar or table would promote a float32 sum (NEP 50).
        dtype = self.dtype
        pos = self.positions.data[np.nonzero(rows)[1]]
        x = mul(embedding(self.embed, ids[rows]), dtype.type(np.sqrt(self.config.d_model)))
        pos = Tensor(pos.astype(dtype, copy=False))
        return dropout(add(x, pos), self.config.dropout, rng)

    # -- forward passes --------------------------------------------------

    def encode(self, input_ids, lengths, rng=None) -> Tensor:
        """The encoder output of input_ids (B, m) whose rows are lengths long:
        (n_real, d_model); only attention sees the padding."""
        ids = np.asarray(input_ids, dtype=np.int64)
        self._check_ids(ids, "input")
        rows = self._real_rows(ids, lengths)
        # Without a [PAD] the mask would add zeros.
        mask = self._pad_mask(ids) if (ids == self.config.pad_id).any() else None
        x = self._embed_sequence(ids, rows, rng)
        for layer in self.enc_layers:
            x = layer(x, rows, mask, rng)
        return self.enc_norm(x)

    def decode(self, enc_out: Tensor, src_ids, dec_input_ids, src_lengths, lengths,
               rng=None) -> Tensor:
        """Teacher-forced decoder pass from position 0: next-token logits,
        (n_real, V), for the real positions of dec_input_ids (k, t) whose
        rows are lengths long. enc_out is encode's output for src_ids and
        src_lengths.

        Decoder self-attention is causally masked; [PAD] positions of both
        streams are hidden as attention keys. Search steps the decoder one
        position at a time through stepper instead.
        """
        dec_ids, src_ids = (np.asarray(a, dtype=np.int64) for a in (dec_input_ids, src_ids))
        self._check_ids(dec_ids, "decoder input")
        rows, src_rows = self._real_rows(dec_ids, lengths), self._real_rows(src_ids, src_lengths)
        self_mask = self._causal_mask(dec_ids.shape[-1]) + self._pad_mask(dec_ids)
        cross_mask = self._pad_mask(src_ids)
        x = self._embed_sequence(dec_ids, rows, rng)
        for layer in self.dec_layers:
            x = layer(x, rows, enc_out, src_rows, self_mask, cross_mask, rng)
        x = self.dec_norm(x)
        return matmul(x, transpose(self.embed) if self.out_proj is None else self.out_proj)

    def stepper(self, enc_out: np.ndarray, src_ids: np.ndarray,
                max_length: int) -> DecoderStepper:
        return DecoderStepper(self, enc_out, src_ids, max_length)

    def forward(self, input_ids, dec_input_ids, rng=None) -> Tensor:
        """Full pass with every position real: logits over the vocabulary,
        (..., t, V), for each position of dec_input_ids (..., t), 1-d or 2-d."""
        dec_ids = np.asarray(dec_input_ids, dtype=np.int64)
        src, dec = np.atleast_2d(input_ids), np.atleast_2d(dec_ids)
        src_lengths = [src.shape[1]] * len(src)
        enc_out = self.encode(src, src_lengths, rng)
        logits = self.decode(enc_out, src, dec, src_lengths, [dec.shape[1]] * len(dec), rng)
        return reshape(logits, (*dec_ids.shape, -1))

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        tensors = [(p.name, p.data) for p in self._parameters]
        write_container(path, {"config": asdict(self.config)}, tensors)

    @classmethod
    def load(cls, path) -> "TransformerModel":
        """The model a checkpoint holds, its parameters made from the stored
        arrays (no random initialisation)."""
        meta, arrays = read_container(path)
        if meta.get("config") is None:
            raise ValueError(f"checkpoint {path} carries no model config")
        try:
            config = ModelConfig(**meta["config"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint {path}: bad model config: {exc}") from None
        model = cls.__new__(cls)
        model._build(config, ParameterMaker(stored=arrays, path=path))
        model.check_names(arrays, path)
        return model

    def check_names(self, arrays: dict[str, np.ndarray], path, prefixes=("",)) -> None:
        """Refuse arrays, read from the container at path, unless their names are
        each parameter's name under each prefix in turn, in order: what save writes."""
        if list(arrays) != [pre + p.name for pre in prefixes for p in self._parameters]:
            raise ValueError(f"checkpoint {path} parameter names do not match config")


# ---------------------------------------------------------------------------
# little-endian container: magic, version, JSON header, raw float64 blobs

_MAGIC = b"QGTC"
_CONTAINER_VERSION = 1


def write_container(path, meta: dict, tensors: list[tuple[str, np.ndarray]]) -> None:
    """Atomically write named float64 arrays plus a JSON header."""
    header = {
        "meta": meta,
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _MAGIC, _CONTAINER_VERSION, len(blob)))
        fh.write(blob)
        for _, arr in tensors:  # from the array's own buffer when it is one
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta dict and the named arrays of a container. A malformed one
    raises ValueError naming path."""
    with open(path, "rb") as fh:
        prelude = fh.read(12)  # magic, version, header length
        if prelude[:4] != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint container")
        if len(prelude) != 12:
            raise ValueError(f"{path}: truncated container header")
        version, header_len = struct.unpack("<II", prelude[4:])
        if version != _CONTAINER_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise ValueError(f"{path}: truncated container header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: container header is not JSON: {exc}") from None
        if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
                and isinstance(header.get("tensors"), list)):
            raise ValueError(f"{path}: container header is not an object with a "
                             f"'meta' object and a 'tensors' list")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        shapes: dict[str, tuple[int, ...]] = {}
        for entry in header["tensors"]:
            name, shape = _tensor_entry(path, entry)
            if name in shapes:
                raise ValueError(f"{path}: tensor {name!r} is stored twice")
            left -= 8 * math.prod(shape)
            if left < 0:
                raise ValueError(f"{path}: truncated tensor {name!r}")
            shapes[name] = shape
        if left:
            raise ValueError(f"{path}: {left} bytes after the last tensor")
        # One buffer, filled by one read; each tensor is a writable view of it.
        sizes = [math.prod(shape) for shape in shapes.values()]
        flat = np.empty(sum(sizes), dtype="<f8")
        if fh.readinto(flat) != flat.nbytes:
            raise ValueError(f"{path}: truncated container")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return header["meta"], {name: part.reshape(shape)
                            for (name, shape), part in zip(shapes.items(), parts)}


def stored_array(arrays: dict[str, np.ndarray], name: str, shape, path) -> np.ndarray:
    """arrays[name] of the container at path, which must hold it at shape."""
    if name not in arrays:
        raise ValueError(f"checkpoint {path} parameter names do not match config: "
                         f"no {name!r}")
    if arrays[name].shape != shape:
        raise ValueError(f"checkpoint {path}: {name} has shape {arrays[name].shape}, "
                         f"expected {shape}")
    return arrays[name]


def _tensor_entry(path, entry) -> tuple[str, tuple[int, ...]]:
    """The name and shape of one entry of a container's tensor list."""
    name = entry.get("name") if isinstance(entry, dict) else None
    if not isinstance(name, str):
        raise ValueError(f"{path}: container tensor entry {entry!r} has no name")
    shape = entry.get("shape")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{path}: tensor {name!r} has shape {shape!r}, not a list "
                         f"of non-negative integers")
    return name, tuple(shape)

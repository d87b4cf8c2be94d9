"""Encoder-decoder transformer built on the autodiff tensor module.

Attention is scaled dot-product over the last two axes, so one code path
serves single sequences, batches, and per-head batches; it is a single
autodiff node (tensor.attention) that keeps only its probabilities. Blocks use
pre-layer-norm residuals. Checkpoints are a small versioned binary container
holding the config and every named parameter as little-endian float64.
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
    layer_norm,
    layer_norm_forward,
    matmul,
    mul,
    relu,
    reshape,
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


def _heads(x, weight, num_heads: int) -> Tensor:
    """x times a projection, with the heads moved to their own axis:
    (..., m, d_model) -> (..., h, m, d_head)."""
    packed = matmul(x, weight)  # (..., m, d_model)
    split = reshape(packed, (*x.shape[:-1], num_heads, packed.shape[-1] // num_heads))
    return swap_axes(split, -3, -2)


def multi_head(x_q, params: MultiHeadParams, mask=None, memory=None) -> Tensor:
    """Multi-head attention: project, split into heads, attend, merge, project out.

    The keys and values are projected from memory, which defaults to x_q
    (self-attention); cross-attention passes the encoder output. Heads are
    evaluated together by stacking them on a leading axis, which is
    numerically identical to looping per head.
    """
    if x_q.shape[-1] != params.d_model:
        raise ShapeError(f"multi_head: input width {x_q.shape} != {params.d_model}")
    n, memory = params.num_heads, x_q if memory is None else memory
    q = _heads(x_q, params.wq, n)
    k, v = _heads(memory, params.wk, n), _heads(memory, params.wv, n)
    heads = attention(q, k, v, mask)  # (..., h, m, d_head)
    merged = reshape(swap_axes(heads, -3, -2), (*x_q.shape[:-1], params.d_model))
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

    def on_array(self, x: np.ndarray) -> np.ndarray:
        return layer_norm_forward(x, self.gain.data, self.bias.data)[0]


class _FeedForward:
    def __init__(self, d_model: int, d_ff: int, make: ParameterMaker, prefix: str):
        self.w1 = make(f"{prefix}.w1", (d_model, d_ff), _xavier)
        self.b1 = make(f"{prefix}.b1", (d_ff,), _zeros)
        self.w2 = make(f"{prefix}.w2", (d_ff, d_model), _xavier)
        self.b2 = make(f"{prefix}.b2", (d_model,), _zeros)

    def __call__(self, x) -> Tensor:
        return add(matmul(relu(add(matmul(x, self.w1), self.b1)), self.w2), self.b2)

    def on_array(self, x: np.ndarray) -> np.ndarray:
        hidden = np.maximum(x @ self.w1.data + self.b1.data, 0.0)
        return hidden @ self.w2.data + self.b2.data


class _EncoderLayer:
    def __init__(self, cfg: ModelConfig, make: ParameterMaker, prefix: str):
        self.ln1 = _LayerNormParams(cfg.d_model, make, f"{prefix}.ln1")
        self.attn = MultiHeadParams(cfg.d_model, cfg.num_heads, make, f"{prefix}.attn")
        self.ln2 = _LayerNormParams(cfg.d_model, make, f"{prefix}.ln2")
        self.ffn = _FeedForward(cfg.d_model, cfg.d_ff, make, f"{prefix}.ffn")
        self.rate = cfg.dropout

    def __call__(self, x, mask, rng) -> Tensor:
        x = add(x, dropout(multi_head(self.ln1(x), self.attn, mask), self.rate, rng))
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

    def __call__(self, x, enc_out, self_mask, cross_mask, rng) -> Tensor:
        x = add(x, dropout(multi_head(self.ln1(x), self.self_attn, self_mask),
                           self.rate, rng))
        x = add(x, dropout(multi_head(self.ln2(x), self.cross_attn, cross_mask, enc_out),
                           self.rate, rng))
        return add(x, dropout(self.ffn(self.ln3(x)), self.rate, rng))

    def step(self, x: np.ndarray, kv: list, cross_kv, self_mask, cross_mask) -> np.ndarray:
        """__call__ on arrays, without dropout, for the next position of each
        row, x (rows, d_model). kv holds the rows' self-attention keys and
        values, (rows, h, t, d_head) or None, and gains this position's;
        cross_kv the source's keys (h, d_head, m) and values (h, m, d_head)."""
        (rows, d), heads = x.shape, self.self_attn.num_heads

        def split(x, weight):  # (rows, d) -> (rows, h, 1, d_head)
            return (x @ weight.data).reshape(rows, heads, 1, d // heads)

        h = self.ln1.on_array(x)
        kv[0] = _grow(kv[0], split(h, self.self_attn.wk), -2)
        kv[1] = _grow(kv[1], split(h, self.self_attn.wv), -2)
        out = attention_forward(split(h, self.self_attn.wq), np.swapaxes(kv[0], -1, -2),
                                kv[1], self_mask)[0]
        x = x + out.reshape(rows, d) @ self.self_attn.wo.data
        q = split(self.ln2.on_array(x), self.cross_attn.wq)[:, :, 0].swapaxes(0, 1)
        out = attention_forward(q, *cross_kv, cross_mask)[0]  # (h, rows, d_head)
        x = x + out.swapaxes(0, 1).reshape(rows, d) @ self.cross_attn.wo.data
        return x + self.ffn.on_array(self.ln3.on_array(x))


def _grow(old: np.ndarray | None, new: np.ndarray, axis: int) -> np.ndarray:
    return new if old is None else np.concatenate([old, new], axis=axis)


class DecoderStepper:
    """The decoder run one position at a time over the rows (beams) of one
    source, on the parameters' arrays at their dtype, off the autodiff graph.

    Per row it keeps each layer's self-attention keys and values and, once
    some row has decoded [PAD], the mask hiding those positions. Per source:
    each layer's cross-attention keys and values, the [PAD] mask (none if the
    source has no [PAD]) and a contiguous output projection.
    """

    def __init__(self, model: "TransformerModel", enc_out: np.ndarray, src_ids: np.ndarray):
        """enc_out (1, m, d_model) is the encoder output of src_ids (1, m)."""
        if len(src_ids) != 1:
            raise ShapeError(f"the decoder steps over one source, got {len(src_ids)}")
        self.model, self.length = model, 0
        self.self_kv = [[None, None] for _ in model.dec_layers]
        self.self_mask: np.ndarray | None = None  # (rows, 1, 1, length)
        enc, m, heads = enc_out[0], src_ids.shape[-1], model.config.num_heads

        def split(weight):  # (h, m, d_head)
            return (enc @ weight.data).reshape(m, heads, -1).transpose(1, 0, 2)

        self.cross_kv = [(np.ascontiguousarray(split(layer.cross_attn.wk).swapaxes(1, 2)),
                          np.ascontiguousarray(split(layer.cross_attn.wv)))
                         for layer in model.dec_layers]
        has_pad = (src_ids == model.config.pad_id).any()
        self.cross_mask = model._pad_mask(src_ids)[0, 0] if has_pad else None  # (1, m)
        out_proj = model.embed.data.T if model.out_proj is None else model.out_proj.data
        self.out_proj = np.ascontiguousarray(out_proj)  # (d_model, V)

    def step(self, last_ids) -> np.ndarray:
        """Decode each row's next position from its last token; returns the
        next-token logits, (rows, V)."""
        model = self.model
        ids = np.asarray(last_ids, dtype=np.int64)
        model._check_ids(ids, "decoder input", self.length + 1)
        pad = model._pad_mask(ids[:, None])
        if self.self_mask is None and pad.any():
            self.self_mask = np.zeros((len(ids), 1, 1, self.length), pad.dtype)
        if self.self_mask is not None:
            self.self_mask = np.concatenate([self.self_mask, pad], axis=-1)
        scale = model.dtype.type(np.sqrt(model.config.d_model))  # as _embed_sequence
        x = model.embed.data[ids] * scale + model.positions.data[self.length].astype(scale.dtype)
        self.length += 1
        for layer, kv, cross_kv in zip(model.dec_layers, self.self_kv, self.cross_kv):
            x = layer.step(x, kv, cross_kv, self.self_mask, self.cross_mask)
        return model.dec_norm.on_array(x) @ self.out_proj

    def select(self, rows) -> None:
        """Keep these rows, in this order; a row may repeat or be dropped."""
        rows = np.asarray(rows, dtype=np.int64)
        for kv in self.self_kv:
            kv[:] = kv[0][rows], kv[1][rows]
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

    def decoder_parameters(self) -> list[Parameter]:
        """The parameters decode reads: all but the encoder's."""
        return [p for p in self._parameters if not p.name.startswith("enc")]

    def zero_grads(self) -> None:
        for p in self._parameters:
            p.zero_grad()

    @property
    def dtype(self) -> np.dtype:
        """The dtype the model computes in: its parameters' (float64, but
        for the compute copies a training step or a beam search swaps in)."""
        return self.embed.data.dtype

    # -- masks ----------------------------------------------------------

    def _pad_mask(self, ids: np.ndarray) -> np.ndarray:
        """(B, 1, 1, m) additive mask hiding [PAD] key positions."""
        hide, see = self.dtype.type(MASK_VALUE), self.dtype.type(0.0)
        return np.where(ids == self.config.pad_id, hide, see)[:, None, None, :]

    def _causal_mask(self, t: int) -> np.ndarray:
        """(t, t) mask: the query at position i sees keys 0 .. i."""
        return np.triu(np.full((t, t), MASK_VALUE, self.dtype), k=1)

    @staticmethod
    def _as_batch(ids) -> tuple[np.ndarray, bool]:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 1:
            return ids[None, :], True
        if ids.ndim == 2:
            return ids, False
        raise ShapeError(f"token ids must be 1-d or 2-d, got shape {ids.shape}")

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

    def _embed_sequence(self, ids: np.ndarray, rng) -> Tensor:
        # A float64 scalar or table would promote a float32 sum (NEP 50).
        dtype = self.dtype
        x = mul(embedding(self.embed, ids), dtype.type(np.sqrt(self.config.d_model)))
        pos = self.positions.data[: ids.shape[-1]]
        pos = Tensor(pos.astype(dtype, copy=False))
        return dropout(add(x, pos), self.config.dropout, rng)

    # -- forward passes --------------------------------------------------

    def encode(self, input_ids, rng=None) -> tuple[Tensor, np.ndarray]:
        """Returns (encoder output, batched input ids)."""
        ids, _ = self._as_batch(input_ids)
        self._check_ids(ids, "input")
        mask = self._pad_mask(ids)
        x = self._embed_sequence(ids, rng)
        for layer in self.enc_layers:
            x = layer(x, mask, rng)
        return self.enc_norm(x), ids

    def decode(self, enc_out: Tensor, src_ids: np.ndarray, dec_input_ids, rng=None
               ) -> Tensor:
        """Teacher-forced decoder pass from position 0: next-token logits,
        (k, t, V), for every position of dec_input_ids (k, t).

        Decoder self-attention is causally masked; [PAD] positions of both
        streams are hidden as attention keys. Search steps the decoder one
        position at a time through stepper instead.
        """
        dec_ids, squeeze = self._as_batch(dec_input_ids)
        self._check_ids(dec_ids, "decoder input")
        self_mask = self._causal_mask(dec_ids.shape[-1]) + self._pad_mask(dec_ids)
        cross_mask = self._pad_mask(src_ids)
        x = self._embed_sequence(dec_ids, rng)
        for layer in self.dec_layers:
            x = layer(x, enc_out, self_mask, cross_mask, rng)
        x = self.dec_norm(x)
        logits = matmul(x, transpose(self.embed) if self.out_proj is None else self.out_proj)
        if squeeze:
            logits = reshape(logits, logits.shape[1:])
        return logits

    def stepper(self, enc_out: np.ndarray, src_ids: np.ndarray) -> DecoderStepper:
        return DecoderStepper(self, enc_out, src_ids)

    def forward(self, input_ids, dec_input_ids, rng=None) -> Tensor:
        """Full pass: logits over the vocabulary for every decoder position."""
        enc_out, src_ids = self.encode(input_ids, rng)
        return self.decode(enc_out, src_ids, dec_input_ids, rng)

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
        arrays: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            name, shape = _tensor_entry(path, entry)
            if name in arrays:
                raise ValueError(f"{path}: tensor {name!r} is stored twice")
            size = 8 * math.prod(shape)
            if size > left:
                raise ValueError(f"{path}: truncated tensor {name!r}")
            left -= size
            # A buffer of its own per tensor, so the array is writable
            # without a copy.
            raw = bytearray(size)
            if fh.readinto(raw) != len(raw):
                raise ValueError(f"{path}: truncated tensor {name!r}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if left:
            raise ValueError(f"{path}: {left} bytes after the last tensor")
    return header["meta"], arrays


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

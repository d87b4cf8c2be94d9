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
from functools import partial

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
    concat_last,
    dropout,
    embedding,
    layer_norm,
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


def positional_encoding(max_len: int, d_model: int) -> Tensor:
    """Fixed sinusoidal position table: sin on even columns, cos on odd."""
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

    def keys_values(self, x) -> tuple[Tensor, Tensor]:
        """x projected to per-head keys and values, each (..., h, m, d_head)."""
        return _heads(x, self.wk, self.num_heads), _heads(x, self.wv, self.num_heads)


def _heads(x, weight, num_heads: int) -> Tensor:
    """x times a projection, with the heads moved to their own axis:
    (..., m, d_model) -> (..., h, m, d_head)."""
    packed = matmul(x, weight)  # (..., m, d_model)
    split = reshape(packed, (*x.shape[:-1], num_heads, packed.shape[-1] // num_heads))
    return swap_axes(split, -3, -2)


def multi_head(x_q, params: MultiHeadParams, mask=None, kv=None) -> Tensor:
    """Multi-head attention: project, split into heads, attend, merge, project out.

    kv is the keys and values attended to, as params.keys_values projects
    them; it defaults to those of x_q (self-attention). Cross-attention
    passes params.keys_values(encoder output). Heads are evaluated together
    by stacking them on a leading axis, which is numerically identical to
    looping per head.
    """
    if x_q.shape[-1] != params.d_model:
        raise ShapeError(f"multi_head: input width {x_q.shape} != {params.d_model}")
    q = _heads(x_q, params.wq, params.num_heads)
    k, v = params.keys_values(x_q) if kv is None else kv
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

    def __call__(self, x, enc_out, self_mask, cross_mask, rng, cache, index) -> Tensor:
        """cache holds this layer's keys and values under index; the new
        rows' self-attention keys and values are appended to it."""
        h = self.ln1(x)
        self_kv = cache.extend(index, *self.self_attn.keys_values(h))
        cross_kv = cache.cross(index, self.cross_attn, enc_out)
        x = add(x, dropout(multi_head(h, self.self_attn, self_mask, self_kv),
                           self.rate, rng))
        x = add(x, dropout(multi_head(self.ln2(x), self.cross_attn, cross_mask, cross_kv),
                           self.rate, rng))
        return add(x, dropout(self.ffn(self.ln3(x)), self.rate, rng))


def _grow(old: np.ndarray | None, new: np.ndarray, axis: int) -> np.ndarray:
    return new if old is None else np.concatenate([old, new], axis=axis)


class DecodeCache:
    """What a decoder pass carries from one decode call to the next.

    Per decoded row (beam): each decoder layer's self-attention keys and
    values so far, and the additive mask hiding the [PAD] ones among them.
    Per source: each decoder layer's cross-attention keys and values,
    projected once from the encoder output of the first call; one source is
    broadcast over every row, and otherwise row i reads source i. length
    counts the decoded positions. A cache made for one call keeps that
    call's graph; what later calls read from it is constant.
    """

    def __init__(self):
        self.length = 0
        self.pad_mask: np.ndarray | None = None  # (rows, 1, 1, length)
        self.self_kv: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.cross_kv: dict[int, tuple[Tensor, Tensor]] = {}

    def select(self, rows) -> None:
        """Keep these rows, in this order; a row may repeat or be dropped.
        The rows must share one source."""
        if any(k.shape[0] != 1 for k, _ in self.cross_kv.values()):
            raise ShapeError("DecodeCache.select needs the rows of one source")
        rows = np.asarray(rows, dtype=np.int64)
        if self.pad_mask is not None:
            self.pad_mask = self.pad_mask[rows]
        self.self_kv = {i: (k[rows], v[rows]) for i, (k, v) in self.self_kv.items()}

    def extend(self, layer: int, keys: Tensor, values: Tensor) -> tuple[Tensor, Tensor]:
        """Append the new rows' keys and values (rows, h, t_new, d_head) of
        one layer; return that layer's keys and values for every position:
        on the layer's first call the Tensors given, later a constant."""
        old_k, old_v = self.self_kv.get(layer, (None, None))
        k, v = _grow(old_k, keys.data, -2), _grow(old_v, values.data, -2)
        self.self_kv[layer] = k, v
        return (keys, values) if old_k is None else (Tensor(k), Tensor(v))

    def cross(self, layer: int, params: MultiHeadParams, enc_out) -> tuple[Tensor, Tensor]:
        """One layer's cross-attention keys and values, projected from
        enc_out (sources, m, d_model) on first use."""
        if layer not in self.cross_kv:
            self.cross_kv[layer] = params.keys_values(enc_out)
        return self.cross_kv[layer]


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

    def _causal_mask(self, t: int, start: int = 0) -> np.ndarray:
        """(t, start + t) mask: the query at position start + i sees keys
        0 .. start + i."""
        return np.triu(np.full((t, start + t), MASK_VALUE, self.dtype), k=start + 1)

    @staticmethod
    def _as_batch(ids) -> tuple[np.ndarray, bool]:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 1:
            return ids[None, :], True
        if ids.ndim == 2:
            return ids, False
        raise ShapeError(f"token ids must be 1-d or 2-d, got shape {ids.shape}")

    def _check_ids(self, ids: np.ndarray, what: str, start: int = 0) -> None:
        """ids continue a sequence that already has start positions."""
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ShapeError(
                f"{what} id out of range [0, {self.config.vocab_size})"
            )
        if start + ids.shape[-1] > self.config.max_positions:
            raise ShapeError(
                f"{what} length {start + ids.shape[-1]} exceeds max positions "
                f"{self.config.max_positions}"
            )

    def _embed_sequence(self, ids: np.ndarray, rng, start: int = 0) -> Tensor:
        # A float64 scalar or table would promote a float32 sum (NEP 50).
        dtype = self.dtype
        x = mul(embedding(self.embed, ids), dtype.type(np.sqrt(self.config.d_model)))
        pos = self.positions.data[start: start + ids.shape[-1]]
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

    def decode(self, enc_out: Tensor, src_ids: np.ndarray, dec_input_ids, rng=None,
               cache: DecodeCache | None = None) -> Tensor:
        """Decoder pass producing next-token logits, through a DecodeCache.

        dec_input_ids holds the new tokens of each row, (k, t_new): they take
        the positions after the cache's length, attend to every earlier
        position of their row through the cache, and are appended to it; the
        logits are theirs, (k, t_new, V). Without a cache, the pass runs on a
        fresh one, so it is teacher-forced from position 0 and keeps its
        graph. Decoder self-attention is causally masked; [PAD] positions of
        both streams are hidden as attention keys.
        """
        dec_ids, squeeze = self._as_batch(dec_input_ids)
        cache = DecodeCache() if cache is None else cache
        start = cache.length
        self._check_ids(dec_ids, "decoder input", start)
        t = dec_ids.shape[-1]
        cache.pad_mask = pad_mask = _grow(cache.pad_mask, self._pad_mask(dec_ids), -1)
        cache.length += t
        # A single new position sees every earlier one: its causal mask is 0.
        self_mask = pad_mask if t == 1 else self._causal_mask(t, start) + pad_mask
        cross_mask = self._pad_mask(src_ids)
        x = self._embed_sequence(dec_ids, rng, start)
        for i, layer in enumerate(self.dec_layers):
            x = layer(x, enc_out, self_mask, cross_mask, rng, cache, i)
        x = self.dec_norm(x)
        if self.out_proj is not None:
            logits = matmul(x, self.out_proj)
        else:
            logits = matmul(x, transpose(self.embed))
        if squeeze:
            logits = reshape(logits, logits.shape[1:])
        return logits

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

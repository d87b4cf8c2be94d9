"""Encoder-decoder transformer built on the autodiff tensor module.

Attention is scaled dot-product over the last two axes, so one code path
serves single sequences, batches, and per-head batches; it is a single
autodiff node (tensor.attention) that keeps only its probabilities. Blocks use
pre-layer-norm residuals. Checkpoints are a small versioned binary container
holding the config and every named parameter as little-endian float64.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

# softmax_rows is not called here. It stays imported because the benchmark's
# traced runs wrap tensor ops where this module looks them up
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
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by num_heads={self.num_heads}"
            )
        for name in ("vocab_size", "d_model", "num_heads", "enc_layers",
                     "dec_layers", "d_ff", "max_positions"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def d_head(self) -> int:
        return self.d_model // self.num_heads


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
    """Per-head query/key/value projections plus the shared output projection.

    init is a numpy Generator that draws fresh values, or the stored
    arrays of a checkpoint (see _param).
    """

    def __init__(self, d_model: int, num_heads: int, init, prefix: str):
        shape = (d_model, d_model // num_heads)
        self.num_heads = num_heads
        self.d_model = d_model
        self.wq = [_param(init, f"{prefix}.wq{i}", shape, _xavier) for i in range(num_heads)]
        self.wk = [_param(init, f"{prefix}.wk{i}", shape, _xavier) for i in range(num_heads)]
        self.wv = [_param(init, f"{prefix}.wv{i}", shape, _xavier) for i in range(num_heads)]
        self.wo = _param(init, f"{prefix}.wo", (d_model, d_model), _xavier)

    def keys_values(self, x) -> tuple[Tensor, Tensor]:
        """x projected to per-head keys and values, each (..., h, m, d_head)."""
        return _heads(x, self.wk, self.num_heads), _heads(x, self.wv, self.num_heads)

    def parameters(self) -> list[Parameter]:
        return [*self.wq, *self.wk, *self.wv, self.wo]


def _heads(x, weights, num_heads: int) -> Tensor:
    """x times the per-head weights, side by side, with the heads moved to
    their own axis: (..., m, d_model) -> (..., h, m, d_head)."""
    packed = matmul(x, concat_last(weights))  # (..., m, d_model)
    split = reshape(packed, (*x.shape[:-1], num_heads, packed.shape[-1] // num_heads))
    return swap_axes(split, -3, -2)


def multi_head(x_q, params: MultiHeadParams, mask=None, x_kv=None, kv=None) -> Tensor:
    """Multi-head attention: project per head, attend, concatenate, project out.

    x_kv defaults to x_q (self-attention); pass the encoder output for
    cross-attention. kv, if given, is the keys and values already projected
    (params.keys_values) and x_kv is not used. Heads are evaluated together
    by stacking them on a leading axis, which is numerically identical to
    looping per head.
    """
    if x_kv is None:
        x_kv = x_q
    if x_q.shape[-1] != params.d_model:
        raise ShapeError(f"multi_head: input width {x_q.shape} != {params.d_model}")
    q = _heads(x_q, params.wq, params.num_heads)
    k, v = params.keys_values(x_kv) if kv is None else kv
    heads = attention(q, k, v, mask)  # (..., h, m, d_head)
    merged = reshape(swap_axes(heads, -3, -2), (*x_q.shape[:-1], params.d_model))
    return matmul(merged, params.wo)


def _xavier(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _ones(rng, shape) -> np.ndarray:
    return np.ones(shape)


def _zeros(rng, shape) -> np.ndarray:
    return np.zeros(shape)


class _Stored:
    """Parameter values read from a checkpoint, handed out by name."""

    def __init__(self, path, arrays: dict[str, np.ndarray]):
        self.path = path
        self.arrays = arrays

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        stored = self.arrays.get(name)
        if stored is None:
            raise ValueError(f"checkpoint {self.path} parameter names do not match config")
        if stored.shape != shape:
            raise ValueError(
                f"checkpoint {self.path}: {name} has shape {stored.shape}, "
                f"expected {shape}"
            )
        return stored


def _param(init, name: str, shape: tuple[int, ...], fill) -> Parameter:
    """A new parameter: the array stored under name when init is _Stored,
    else fill(init, shape), drawn from the generator init."""
    if isinstance(init, _Stored):
        return Parameter(init.take(name, shape), name)
    return Parameter(fill(init, shape), name)


class _LayerNormParams:
    def __init__(self, d: int, init, prefix: str):
        self.gain = _param(init, f"{prefix}.gain", (d,), _ones)
        self.bias = _param(init, f"{prefix}.bias", (d,), _zeros)

    def __call__(self, x) -> Tensor:
        return layer_norm(x, self.gain, self.bias)

    def parameters(self) -> list[Parameter]:
        return [self.gain, self.bias]


class _FeedForward:
    def __init__(self, d_model: int, d_ff: int, init, prefix: str):
        self.w1 = _param(init, f"{prefix}.w1", (d_model, d_ff), _xavier)
        self.b1 = _param(init, f"{prefix}.b1", (d_ff,), _zeros)
        self.w2 = _param(init, f"{prefix}.w2", (d_ff, d_model), _xavier)
        self.b2 = _param(init, f"{prefix}.b2", (d_model,), _zeros)

    def __call__(self, x) -> Tensor:
        return add(matmul(relu(add(matmul(x, self.w1), self.b1)), self.w2), self.b2)

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]


class _EncoderLayer:
    def __init__(self, cfg: ModelConfig, init, prefix: str):
        self.ln1 = _LayerNormParams(cfg.d_model, init, f"{prefix}.ln1")
        self.attn = MultiHeadParams(cfg.d_model, cfg.num_heads, init, f"{prefix}.attn")
        self.ln2 = _LayerNormParams(cfg.d_model, init, f"{prefix}.ln2")
        self.ffn = _FeedForward(cfg.d_model, cfg.d_ff, init, f"{prefix}.ffn")
        self.rate = cfg.dropout

    def __call__(self, x, mask, rng) -> Tensor:
        x = add(x, dropout(multi_head(self.ln1(x), self.attn, mask), self.rate, rng))
        return add(x, dropout(self.ffn(self.ln2(x)), self.rate, rng))

    def parameters(self) -> list[Parameter]:
        return [
            *self.ln1.parameters(), *self.attn.parameters(),
            *self.ln2.parameters(), *self.ffn.parameters(),
        ]


class _DecoderLayer:
    def __init__(self, cfg: ModelConfig, init, prefix: str):
        self.ln1 = _LayerNormParams(cfg.d_model, init, f"{prefix}.ln1")
        self.self_attn = MultiHeadParams(cfg.d_model, cfg.num_heads, init,
                                         f"{prefix}.self_attn")
        self.ln2 = _LayerNormParams(cfg.d_model, init, f"{prefix}.ln2")
        self.cross_attn = MultiHeadParams(cfg.d_model, cfg.num_heads, init,
                                          f"{prefix}.cross_attn")
        self.ln3 = _LayerNormParams(cfg.d_model, init, f"{prefix}.ln3")
        self.ffn = _FeedForward(cfg.d_model, cfg.d_ff, init, f"{prefix}.ffn")
        self.rate = cfg.dropout

    def __call__(self, x, enc_out, self_mask, cross_mask, rng, cache, index) -> Tensor:
        """cache, if given, holds this layer's keys and values under index;
        the new rows' self-attention keys and values are appended to it."""
        h = self.ln1(x)
        self_kv = cross_kv = None
        if cache is not None:
            self_kv = cache.extend(index, *self.self_attn.keys_values(h))
            cross_kv = cache.cross(index, self.cross_attn, enc_out)
        x = add(x, dropout(multi_head(h, self.self_attn, self_mask, kv=self_kv),
                           self.rate, rng))
        x = add(
            x,
            dropout(
                multi_head(self.ln2(x), self.cross_attn, cross_mask, x_kv=enc_out,
                           kv=cross_kv),
                self.rate,
                rng,
            ),
        )
        return add(x, dropout(self.ffn(self.ln3(x)), self.rate, rng))

    def parameters(self) -> list[Parameter]:
        return [
            *self.ln1.parameters(), *self.self_attn.parameters(),
            *self.ln2.parameters(), *self.cross_attn.parameters(),
            *self.ln3.parameters(), *self.ffn.parameters(),
        ]


def _grow(old: np.ndarray | None, new: np.ndarray, axis: int) -> np.ndarray:
    return new if old is None else np.concatenate([old, new], axis=axis)


class DecodeCache:
    """What incremental decoding carries from one decode call to the next.

    Per decoded row (beam): each decoder layer's self-attention keys and
    values so far, and the additive mask hiding the [PAD] ones among them.
    Shared by every row: each decoder layer's cross-attention keys and
    values, projected once from the encoder output of the first call (one
    source, broadcast over the rows). length counts the decoded positions.
    The cache serves inference; gradients do not flow through it.
    """

    def __init__(self):
        self.length = 0
        self.pad_mask: np.ndarray | None = None  # (rows, 1, 1, length)
        self.self_kv: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.cross_kv: dict[int, tuple[Tensor, Tensor]] = {}

    def select(self, rows) -> None:
        """Keep these rows, in this order; a row may repeat or be dropped."""
        rows = np.asarray(rows, dtype=np.int64)
        if self.pad_mask is not None:
            self.pad_mask = self.pad_mask[rows]
        self.self_kv = {i: (k[rows], v[rows]) for i, (k, v) in self.self_kv.items()}

    def extend(self, layer: int, keys: Tensor, values: Tensor) -> tuple[Tensor, Tensor]:
        """Append the new rows' keys and values (rows, h, t_new, d_head) of
        one layer; return that layer's keys and values for every position."""
        old_k, old_v = self.self_kv.get(layer, (None, None))
        k, v = _grow(old_k, keys.data, -2), _grow(old_v, values.data, -2)
        self.self_kv[layer] = k, v
        return Tensor(k), Tensor(v)

    def cross(self, layer: int, params: MultiHeadParams, enc_out) -> tuple[Tensor, Tensor]:
        """One layer's cross-attention keys and values, projected from
        enc_out on first use."""
        if layer not in self.cross_kv:
            self.cross_kv[layer] = params.keys_values(enc_out)
        return self.cross_kv[layer]


class TransformerModel:
    """Token embedding + sinusoidal positions + encoder/decoder stacks."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._build(config, np.random.default_rng(seed))

    def _build(self, config: ModelConfig, init) -> None:
        """Create every parameter from init: a generator drawing fresh
        values, or the _Stored arrays of a checkpoint (see _param)."""
        self.config = config
        d = config.d_model

        def normal(rng, shape):
            return rng.normal(0.0, 1.0 / np.sqrt(d), size=shape)

        self.embed = _param(init, "embed", (config.vocab_size, d), normal)
        self.positions = positional_encoding(config.max_positions, d)
        self.enc_layers = [
            _EncoderLayer(config, init, f"enc{i}") for i in range(config.enc_layers)
        ]
        self.dec_layers = [
            _DecoderLayer(config, init, f"dec{i}") for i in range(config.dec_layers)
        ]
        self.enc_norm = _LayerNormParams(d, init, "enc_norm")
        self.dec_norm = _LayerNormParams(d, init, "dec_norm")
        if config.share_embeddings:
            self.out_proj = None
        else:
            self.out_proj = _param(init, "out_proj", (d, config.vocab_size), _xavier)
        self._parameters = self._collect_parameters()

    def _collect_parameters(self) -> list[Parameter]:
        params: list[Parameter] = [self.embed]
        for layer in self.enc_layers:
            params.extend(layer.parameters())
        params.extend(self.enc_norm.parameters())
        for layer in self.dec_layers:
            params.extend(layer.parameters())
        params.extend(self.dec_norm.parameters())
        if self.out_proj is not None:
            params.append(self.out_proj)
        names = [p.name for p in params]
        if len(set(names)) != len(names) or len(set(map(id, params))) != len(params):
            raise RuntimeError("parameter registered more than once")
        return params

    def parameters(self) -> list[Parameter]:
        return list(self._parameters)

    def zero_grads(self) -> None:
        for p in self._parameters:
            p.zero_grad()

    # -- masks ----------------------------------------------------------

    def _pad_mask(self, ids: np.ndarray) -> np.ndarray:
        """(B, 1, 1, m) additive mask hiding [PAD] key positions."""
        return np.where(ids == self.config.pad_id, MASK_VALUE, 0.0)[:, None, None, :]

    @staticmethod
    def _causal_mask(t: int, start: int = 0) -> np.ndarray:
        """(t, start + t) mask: the query at position start + i sees keys
        0 .. start + i."""
        return np.triu(np.full((t, start + t), MASK_VALUE), k=start + 1)

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
        x = mul(embedding(self.embed, ids), np.sqrt(self.config.d_model))
        pos = Tensor(self.positions.data[start: start + ids.shape[-1]])
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
        """Teacher-forced decoder pass producing next-token logits.

        Decoder self-attention is causally masked; [PAD] positions of both
        streams are hidden as attention keys. With a cache, dec_input_ids
        holds only the new tokens of each row, (k, t_new): they take the
        positions after the cache's length, attend to every earlier position
        of their row through the cache, and are appended to it. The logits
        are the new tokens' only, (k, t_new, V).
        """
        dec_ids, squeeze = self._as_batch(dec_input_ids)
        start = 0 if cache is None else cache.length
        self._check_ids(dec_ids, "decoder input", start)
        t = dec_ids.shape[-1]
        pad_mask = self._pad_mask(dec_ids)
        if cache is not None:
            cache.pad_mask = pad_mask = _grow(cache.pad_mask, pad_mask, -1)
            cache.length += t
        self_mask = self._causal_mask(t, start) + pad_mask
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
        """The model a checkpoint holds, its parameters built from the stored
        arrays (no random initialisation)."""
        meta, arrays = read_container(path)
        if meta.get("config") is None:
            raise ValueError(f"checkpoint {path} carries no model config")
        model = cls.__new__(cls)
        model._build(ModelConfig(**meta["config"]), _Stored(path, arrays))
        if [p.name for p in model._parameters] != list(arrays):
            raise ValueError(f"checkpoint {path} parameter names do not match config")
        return model


# ---------------------------------------------------------------------------
# versioned binary container: magic, version, JSON header, raw float64 blobs

_MAGIC = b"QGTC"
_CONTAINER_VERSION = 1


def write_container(path, meta: dict, tensors: list[tuple[str, np.ndarray]]) -> None:
    """Atomically write named float64 arrays plus a JSON header."""
    header = {
        "meta": meta,
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.uint32(_CONTAINER_VERSION).tobytes())
        fh.write(np.uint32(len(blob)).tobytes())
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    os.replace(tmp, path)


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint container")
        version = int(np.frombuffer(fh.read(4), dtype=np.uint32)[0])
        if version != _CONTAINER_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        header_len = int(np.frombuffer(fh.read(4), dtype=np.uint32)[0])
        header = json.loads(fh.read(header_len).decode("utf-8"))
        arrays: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise ValueError(f"{path}: truncated tensor {entry['name']!r}")
            arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return header["meta"], arrays

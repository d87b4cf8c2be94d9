"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is recorded eagerly: every differentiable op returns a Tensor that
remembers its parents and a closure producing their adjoints. backward() on a
scalar walks the recorded graph once in reverse topological order; after the
pass only the leaves (Parameters and other parentless nodes) and the loss keep
a .grad. Attention is one fused node. Everything is stored as row-major
float64; shapes are checked up front and mismatches fail loudly.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_GRAD_STACK = [True]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    _GRAD_STACK.append(False)
    try:
        yield
    finally:
        _GRAD_STACK.pop()


def _recording() -> bool:
    return _GRAD_STACK[-1]


class Tensor:
    """A dense array node. Treated as immutable once created."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        backward(self)

    # operator sugar; scalars are promoted to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named, trainable tensor. Its gradient always mirrors its shape."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _result(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    if _recording() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape`, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) through the recorded graph.

    Gradients accumulate into .grad of every reachable leaf (a node without
    parents, such as a Parameter); Parameters keep whatever was already in
    .grad (zero them first when starting a fresh pass), and each leaf gets an
    array of its own. An intermediate node holds its gradient only while the
    pass needs it: after the pass, the loss and the leaves keep .grad and
    every other node's is None.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        if node is not loss:
            node.grad = None
        for parent, pgrad in zip(node._parents, grads):
            if not parent.requires_grad:
                continue
            if parent.grad is None:
                # Gradients are never updated in place, so an intermediate
                # node may share its first one; a leaf outlives the pass.
                parent.grad = pgrad if parent._parents else pgrad.copy()
            else:
                parent.grad = parent.grad + pgrad


# ---------------------------------------------------------------------------
# primitive operations


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = _result(data, (a, b))
    if out.requires_grad:
        out._backward = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = _result(data, (a, b))
    if out.requires_grad:
        out._backward = lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        )
    return out


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} x {b.shape}")
    out = _result(a.data @ b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            if b.data.ndim == 2:
                # One GEMM over all leading axes instead of a batched product
                # summed afterwards.
                k, n = b.shape
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            return ga, gb
        out._backward = _bw
    return out


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose needs >=2-d input, got {a.shape}")
    out = _result(np.swapaxes(a.data, -1, -2), (a,))
    if out.requires_grad:
        out._backward = lambda g: (np.swapaxes(g, -1, -2),)
    return out


def swap_axes(a, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)
    out = _result(np.swapaxes(a.data, ax1, ax2), (a,))
    if out.requires_grad:
        out._backward = lambda g: (np.swapaxes(g, ax1, ax2),)
    return out


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    out = _result(a.data.reshape(shape), (a,))
    if out.requires_grad:
        out._backward = lambda g: (g.reshape(a.shape),)
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = _result(np.maximum(a.data, 0.0), (a,))
    if out.requires_grad:
        out._backward = lambda g: (g * (a.data > 0.0),)
    return out


def tsum(a) -> Tensor:
    """Sum all entries to a scalar."""
    a = _as_tensor(a)
    out = _result(np.asarray(a.data.sum()), (a,))
    if out.requires_grad:
        out._backward = lambda g: (np.broadcast_to(g, a.shape).copy(),)
    return out


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction.

    Rejects non-finite input outright instead of emitting NaN downstream.
    """
    a = _as_tensor(a)
    y = _softmax(a.data, "softmax_rows: input")
    out = _result(y, (a,))
    if out.requires_grad:
        out._backward = lambda g: (_softmax_grad(y, g),)
    return out


def _softmax(x: np.ndarray, what: str) -> np.ndarray:
    """Softmax over the last axis of a finite array, into a new array."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contains NaN or infinity")
    y = x - x.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching a softmax's input, given its output y and the
    gradient g reaching y."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def attention(q, k, v, mask=None) -> Tensor:
    """softmax(q k^T / sqrt(d) + mask) v over the last two axes, as one node.

    The scale is the square root of q's column count; leading axes broadcast.
    mask, if given, is a constant added to the raw scores (large negative
    entries forbid positions); no gradient flows into it. The node keeps only
    the attention probabilities for its backward pass.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: k rows {k.shape} != v rows {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention: q cols {q.shape} != k cols {k.shape}")
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = q.data @ np.swapaxes(k.data, -1, -2)
    scores *= scale
    if mask is not None:
        mask = _as_tensor(mask).data
        try:
            scores = scores + mask
        except ValueError:
            raise ShapeError(
                f"attention: mask {mask.shape} does not broadcast to scores "
                f"{scores.shape}"
            ) from None
    probs = _softmax(scores, "attention: score matrix")
    del scores
    out = _result(probs @ v.data, (q, k, v))
    if out.requires_grad:
        def _bw(g):
            gv = _unbroadcast(np.swapaxes(probs, -1, -2) @ g, v.shape)
            gs = _softmax_grad(probs, g @ np.swapaxes(v.data, -1, -2))
            gs *= scale
            gq = _unbroadcast(gs @ k.data, q.shape)
            gk = _unbroadcast(np.swapaxes(gs, -1, -2) @ q.data, k.shape)
            return gq, gk, gv
        out._backward = _bw
    return out


def layer_norm(x, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x = _as_tensor(x)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _result(xhat * gain.data + bias.data, (x, gain, bias))
    if out.requires_grad:
        def _bw(g):
            lead = tuple(range(g.ndim - 1))
            dgain = (g * xhat).sum(axis=lead)
            dbias = g.sum(axis=lead)
            dxhat = g * gain.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            return dx, dgain, dbias
        out._backward = _bw
    return out


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape pick rows from a (vocab, dim) table."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding id out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out = _result(table.data[ids], (table,))
    if out.requires_grad:
        def _bw(g):
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
            return (gt,)
        out._backward = _bw
    return out


def cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    pad_id: int | None = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Mean cross-entropy between logits (..., V) and integer targets (...).

    Positions equal to pad_id are excluded from the mean. Raises if every
    position is padding.
    """
    targets = np.asarray(targets)
    if logits.shape[:-1] != tuple(targets.shape):
        raise ShapeError(
            f"cross entropy: logits {logits.shape} do not match targets {targets.shape}"
        )
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError("label_smoothing must be in [0, 1)")
    v = logits.shape[-1]
    flat = logits.data.reshape(-1, v)
    tgt = targets.reshape(-1)
    valid = np.ones(tgt.shape, dtype=bool) if pad_id is None else tgt != pad_id
    count = int(valid.sum())
    if count == 0:
        raise ValueError("cross entropy: all target positions are padding")
    shifted = flat - flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    logp = shifted - lse[:, None]
    idx = np.where(valid, tgt, 0)
    picked = logp[np.arange(len(tgt)), idx]
    if label_smoothing > 0.0:
        per_pos = (1.0 - label_smoothing) * picked + label_smoothing * logp.mean(axis=-1)
    else:
        per_pos = picked
    loss_val = -(per_pos * valid).sum() / count
    out = _result(np.asarray(loss_val), (logits,))
    if out.requires_grad:
        def _bw(g):
            p = np.exp(logp)
            target_dist = np.zeros_like(p)
            target_dist[np.arange(len(tgt)), idx] = 1.0 - label_smoothing
            if label_smoothing > 0.0:
                target_dist += label_smoothing / v
            gl = (p - target_dist) * (valid[:, None] * (float(g) / count))
            return (gl.reshape(logits.shape),)
        out._backward = _bw
    return out


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors along the last axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_last needs at least one tensor")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last: leading shapes differ, {parts[0].shape} vs {p.shape}"
            )
    sizes = [p.shape[-1] for p in parts]
    out = _result(np.concatenate([p.data for p in parts], axis=-1), tuple(parts))
    if out.requires_grad:
        splits = np.cumsum(sizes)[:-1]
        out._backward = lambda g: tuple(np.split(g, splits, axis=-1))
    return out


def dropout(a, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout. rng=None or rate=0 is the identity (eval mode)."""
    a = _as_tensor(a)
    if rng is None or rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = _result(a.data * keep, (a,))
    if out.requires_grad:
        out._backward = lambda g: (g * keep,)
    return out


# ---------------------------------------------------------------------------
# numerical gradient checking


def check_gradients(f: Callable[[], Tensor], p: Parameter, step: float = 1e-5) -> float:
    """Compare backward() against central finite differences for one Parameter.

    f must be a deterministic closure over p returning a scalar Tensor.
    Returns the maximum relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12) over all entries.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    probe1, probe2 = f(), f()
    if probe1.shape != probe2.shape or not np.array_equal(probe1.data, probe2.data):
        raise ValueError("check_gradients: f is not deterministic across evaluations")
    if probe1.data.size != 1:
        raise ShapeError(f"check_gradients: f must return a scalar, got {probe1.shape}")
    p.zero_grad()
    backward(f())
    analytic = p.grad.copy()
    numeric = np.zeros_like(analytic)
    flat_value = p.data.ravel()
    flat_numeric = numeric.ravel()
    with no_grad():
        for i in range(flat_value.size):
            saved = flat_value[i]
            flat_value[i] = saved + step
            f_plus = f().item()
            flat_value[i] = saved - step
            f_minus = f().item()
            flat_value[i] = saved
            flat_numeric[i] = (f_plus - f_minus) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))

"""Dense tensors with reverse-mode automatic differentiation.

The graph is recorded eagerly, as nodes apart from the data: a Tensor that
needs a gradient has a node holding its parents' nodes and a closure that
keeps only the arrays its backward rule reads, so an intermediate's array
is freed once the forward code drops its Tensor. backward() on a scalar
walks the nodes once in reverse topological order; after the pass only the
leaves (Parameters and other parentless nodes) and the loss keep a .grad.
A Parameter has no gradient buffer until a pass reaches it or its .grad is
read, so inference holds none. Attention is one fused node, in place on the
score arrays it makes. A tensor keeps its data's floating dtype (anything
else becomes float64), and an op on operands of one dtype computes in it,
gradients too; shapes are checked up front and mismatches fail loudly.
"""

from __future__ import annotations

import contextlib
import math
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


# Training steps compute at this dtype, on compute_copies of the float64
# master parameters; beam search's decoder steps on a stepper built at it.
COMPUTE_DTYPE = np.float32


@contextlib.contextmanager
def compute_copies(params: Sequence[Tensor], dtype):
    """Swap each parameter's master array for a copy at dtype (none when it
    is at dtype already) and put the masters back when the block ends,
    whether or not it raised."""
    masters = [p.data for p in params]
    try:
        for p in params:
            p.data = p.data.astype(dtype, copy=False)
        yield
    finally:
        for p, master in zip(params, masters):
            p.data = master


def _recording() -> bool:
    return _GRAD_STACK[-1]


class _Node:
    """A tensor's gradient, its parents' nodes (None for one that needs no
    gradient) and the closure mapping its gradient to theirs (None for a leaf)."""

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents: tuple[_Node | None, ...] = ()):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None


class Tensor:
    """A dense array, and its graph node if it needs a gradient. Immutable."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.node = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.node.grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named, trainable tensor. Its gradient always mirrors its shape: the
    first backward pass that reaches it copies one in, and a read before
    that makes zeros of the data's shape and dtype."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        if self.node.grad is None:
            self.node.grad = np.zeros(self.data.shape, self.data.dtype)
        return self.node.grad

    grad = grad.setter(Tensor.grad.fset)

    def zero_grad(self) -> None:
        self.node.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _result(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    if _recording() and any(p.node is not None for p in parents):
        out.node = _Node(tuple(p.node for p in parents))
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
    parents, such as a Parameter's); Parameters keep whatever was already in
    .grad (zero_grad drops it before a fresh pass), and each leaf gets an
    array of its own. An intermediate node holds its gradient only while the
    pass needs it: after the pass, the loss and the leaves keep .grad and
    every other node's is None. Each closure is dropped once run, so a graph
    takes one pass; a loss with no recorded graph (built under no_grad, or
    from no tensor that needs a gradient), or a consumed one, raises ValueError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss.node
    if root is None:
        raise ValueError("backward: the loss has no recorded graph")
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        if node.parents and node.backward is None:
            raise ValueError("backward: the graph was consumed by an earlier pass")
        stack.append((node, True))
        for p in node.parents:
            if p is not None and p not in seen:
                stack.append((p, False))
    seed = np.ones_like(loss.data)
    root.grad = seed if root.grad is None else root.grad + seed
    for node in reversed(topo):
        if node.grad is None or node.backward is None:
            continue
        grads, node.backward = node.backward(node.grad), None  # frees its arrays
        if node is not root:
            node.grad = None
        for parent, pgrad in zip(node.parents, grads):
            if parent is None:
                continue
            if parent.grad is None:
                # Gradients are never updated in place, so an intermediate
                # node may share its first one; a leaf outlives the pass.
                parent.grad = pgrad if parent.parents else pgrad.copy()
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
    if out.node is not None:
        # Nothing is kept or computed for an operand with no node.
        shapes = [None if t.node is None else t.shape for t in (a, b)]
        out.node.backward = lambda g: tuple(
            None if s is None else _unbroadcast(g, s) for s in shapes)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = _result(data, (a, b))
    if out.node is not None:
        # Each operand's array is kept only for the other's gradient.
        sa, sb = a.shape, b.shape
        ad = a.data if b.node is not None else None
        bd = b.data if a.node is not None else None
        out.node.backward = lambda g: (
            None if bd is None else _unbroadcast(g * bd, sa),
            None if ad is None else _unbroadcast(g * ad, sb),
        )
    return out


def matmul(a, b) -> Tensor:
    """Product of a's last axis with a 2-d right operand (a weight).

    All leading rows of a meet the weight in one GEMM instead of one product
    per leading index; so do the gradients of a and of the weight.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim != 2:
        raise ShapeError(f"matmul needs a >=2-d left and a 2-d right operand, "
                         f"got {a.shape} and {b.shape}")
    k, n = bd.shape
    if a.shape[-1] != k:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} x {b.shape}")
    out = _result((ad.reshape(-1, k) @ bd).reshape(*ad.shape[:-1], n), (a, b))
    if out.node is not None:
        out.node.backward = lambda g: (
            (g.reshape(-1, n) @ bd.T).reshape(ad.shape),
            ad.reshape(-1, k).T @ g.reshape(-1, n),
        )
    return out


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose needs >=2-d input, got {a.shape}")
    return swap_axes(a, -1, -2)


def swap_axes(a, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)
    out = _result(np.swapaxes(a.data, ax1, ax2), (a,))
    if out.node is not None:
        out.node.backward = lambda g: (np.swapaxes(g, ax1, ax2),)
    return out


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    out = _result(a.data.reshape(shape), (a,))
    if out.node is not None:
        sa = a.shape
        out.node.backward = lambda g: (g.reshape(sa),)
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    y = np.maximum(a.data, 0.0)
    out = _result(y, (a,))
    if out.node is not None:
        out.node.backward = lambda g: (g * (y > 0.0),)  # y > 0 just where a > 0
    return out


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction.

    Rejects non-finite input outright instead of emitting NaN downstream.
    """
    a = _as_tensor(a)
    y = _softmax(a.data.copy(), "softmax_rows: input")
    out = _result(y, (a,))
    if out.node is not None:
        out.node.backward = lambda g: (_softmax_grad(y, g.copy()),)
    return out


def _softmax(x: np.ndarray, what: str) -> np.ndarray:
    """Softmax over the last axis of a finite array, in place; returns x.
    The ufuncs' own reductions skip the array methods' Python wrappers."""
    top = np.maximum.reduce(x, axis=-1, keepdims=True)
    # NaN reaches both reductions; +inf shows in the row maxima, -inf in the
    # minimum.
    if x.size and not (math.isfinite(np.maximum.reduce(top, axis=None))
                       and math.isfinite(np.minimum.reduce(x, axis=None))):
        raise ValueError(f"{what} contains NaN or infinity")
    x -= top
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def log_softmax(rows: np.ndarray, what: str) -> np.ndarray:
    """Log-softmax over the last axis, into a new array. A row whose maximum
    is not finite raises ValueError naming what ("decoder logits")."""
    top = rows.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError(f"{what} contain NaN or infinity")
    shifted = rows - top
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching a softmax's input, given its output y and the
    gradient g reaching y, written over g; returns g."""
    g -= (g * y).sum(axis=-1, keepdims=True)
    g *= y
    return g


def attention(q, k, v, mask=None) -> Tensor:
    """softmax(q k^T / sqrt(d) + mask) v over the last two axes, as one node
    with attention_forward's forward. No array passed in is written. The node
    keeps the probabilities and the operands' arrays for its backward, which
    forms the score gradient in place on g v^T."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    qd, kd, vd = q.data, k.data, v.data
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: k rows {k.shape} != v rows {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention: q cols {q.shape} != k cols {k.shape}")
    mask = None if mask is None else _as_tensor(mask).data
    data, probs, scale = attention_forward(qd, np.swapaxes(kd, -1, -2), vd, mask)
    out = _result(data, (q, k, v))
    if out.node is not None:
        def _bw(g):
            gv = _unbroadcast(np.swapaxes(probs, -1, -2) @ g, vd.shape)
            gs = _softmax_grad(probs, g @ np.swapaxes(vd, -1, -2))
            gs *= scale
            gq = _unbroadcast(gs @ kd, qd.shape)
            gk = _unbroadcast(np.swapaxes(gs, -1, -2) @ qd, kd.shape)
            return gq, gk, gv
        out.node.backward = _bw
    return out


def attention_forward(q: np.ndarray, k_t: np.ndarray, v: np.ndarray, mask=None
                      ) -> tuple[np.ndarray, np.ndarray, float]:
    """softmax(q k_t / sqrt(d) + mask) v on arrays, k_t being the keys with
    their last two axes swapped; returns it, the probabilities and the scale.

    The scale is the square root of q's column count; leading axes broadcast.
    mask, if given, is added to the raw scores in place (large negative
    entries forbid positions): it must broadcast to their shape, and the sums
    keep their dtype. The scores become the probabilities in place.
    """
    scale = 1.0 / math.sqrt(q.shape[-1])  # a Python float keeps q's dtype
    scores = q @ k_t
    scores *= scale
    if mask is not None:
        try:
            scores += mask
        except ValueError:
            raise ShapeError(
                f"attention: mask {mask.shape} does not broadcast to scores "
                f"{scores.shape}"
            ) from None
    probs = _softmax(scores, "attention: score matrix")
    return probs @ v, probs, scale


def layer_norm(x, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x = _as_tensor(x)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be shape ({d},)")
    gd = gain.data
    data, xhat, inv = layer_norm_forward(x.data, gd, bias.data, eps)
    out = _result(data, (x, gain, bias))
    if out.node is not None:
        def _bw(g):
            lead = tuple(range(g.ndim - 1))
            dgain = (g * xhat).sum(axis=lead)
            dbias = g.sum(axis=lead)
            dxhat = g * gd
            dx = inv * (
                dxhat
                - dxhat.sum(axis=-1, keepdims=True) / d
                - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
            )
            return dx, dgain, dbias
        out.node.backward = _bw
    return out


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm on arrays over the last axis: returns the output, the
    normalized input and the inverse standard deviations."""
    d = x.shape[-1]
    # sum / d is what mean computes, without its per-call overhead.
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape pick rows from a (vocab, dim) table."""
    ids = np.asarray(ids)
    shape, dtype = table.shape, table.data.dtype
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    if len(shape) != 2:
        raise ShapeError(f"embedding table must be 2-d, got {shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= shape[0]):
        raise ShapeError(
            f"embedding id out of range [0, {shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out = _result(table.data[ids], (table,))
    if out.node is not None:
        def _bw(g):
            gt = np.zeros(shape, dtype)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, shape[1]))
            return (gt,)
        out.node.backward = _bw
    return out


def cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    pad_id: int | None = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Mean cross-entropy between logits (..., V) and integer targets (...).

    Positions equal to pad_id are excluded from the mean. Raises ValueError
    if every position is padding or a row's maximum is not finite.
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
    logp = log_softmax(flat, "cross entropy: logits")
    idx = np.where(valid, tgt, 0)
    picked = logp[np.arange(len(tgt)), idx]
    if label_smoothing > 0.0:
        per_pos = (1.0 - label_smoothing) * picked + label_smoothing * logp.mean(axis=-1)
    else:
        per_pos = picked
    loss_val = -(per_pos * valid).sum() / count
    out = _result(np.asarray(loss_val), (logits,))
    if out.node is not None:
        def _bw(g):
            p = np.exp(logp)
            target_dist = np.zeros_like(p)
            target_dist[np.arange(len(tgt)), idx] = 1.0 - label_smoothing
            if label_smoothing > 0.0:
                target_dist += label_smoothing / v
            weight = (valid[:, None] * (float(g) / count)).astype(p.dtype, copy=False)
            gl = (p - target_dist) * weight
            return (gl.reshape(*targets.shape, v),)
        out.node.backward = _bw
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
    out = _result(np.concatenate([p.data for p in parts], axis=-1), tuple(parts))
    if out.node is not None:
        splits = np.cumsum([p.shape[-1] for p in parts])[:-1]
        out.node.backward = lambda g: tuple(np.split(g, splits, axis=-1))
    return out


def dropout(a, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout. rng=None or rate=0 is the identity (eval mode)."""
    a = _as_tensor(a)
    if rng is None or rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    kept, scale = rng.random(a.shape) >= rate, a.data.dtype.type(1.0 - rate)
    out = _result(a.data * (kept / scale), (a,))
    if out.node is not None:  # keeps the boolean mask, not the scaled one
        out.node.backward = lambda g: (g * (kept / scale),)
    return out

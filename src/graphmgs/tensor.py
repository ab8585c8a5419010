"""Dense float64 tensors with a reverse-mode gradient tape and the Adam optimizer.

Define-by-run: every op executed while gradients are enabled appends its output
node to a module-level tape, whose recording order is a valid topological
order.  ``backward`` walks the tape once in reverse and then clears it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

_TAPE: list["Tensor"] = []
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation-only passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """Row-major float64 array, optionally tracked by the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._backward = None
        self._parents: tuple = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return multiply(self, other)

    def __rmul__(self, other):
        return multiply(other, self)

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __neg__(self):
        return multiply(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        _TAPE.append(out)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _binary(name: str, a, b, fwd, da, db) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = Tensor(fwd(a.data, b.data))
    except ValueError as exc:
        raise DataError(f"{name}: incompatible shapes {a.shape} vs {b.shape}") from exc

    def backward(g):
        _accumulate(a, _unbroadcast(da(g, a.data, b.data), a.data.shape))
        _accumulate(b, _unbroadcast(db(g, a.data, b.data), b.data.shape))

    return _record(out, (a, b), backward)


def add(a, b) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def multiply(a, b) -> Tensor:
    return _binary("multiply", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def divide(a, b) -> Tensor:
    return _binary("divide", a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise DataError(f"matmul: only 1-D/2-D operands, got {a.shape} @ {b.shape}")
    try:
        out = Tensor(a.data @ b.data)
    except ValueError as exc:
        raise DataError(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from exc

    def backward(g):
        A = a.data if a.data.ndim == 2 else a.data[None, :]
        B = b.data if b.data.ndim == 2 else b.data[:, None]
        if a.data.ndim == 1 and b.data.ndim == 1:
            G = np.asarray(g).reshape(1, 1)
        elif a.data.ndim == 1:
            G = np.asarray(g).reshape(1, -1)
        elif b.data.ndim == 1:
            G = np.asarray(g).reshape(-1, 1)
        else:
            G = g
        _accumulate(a, (G @ B.T).reshape(a.data.shape))
        _accumulate(b, (A.T @ G).reshape(b.data.shape))

    return _record(out, (a, b), backward)


def _unary(a, fwd, dgrad) -> Tensor:
    a = as_tensor(a)
    out = Tensor(fwd(a.data))

    def backward(g):
        _accumulate(a, dgrad(g, a.data, out.data))

    return _record(out, (a,), backward)


def relu(a) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, 0.0),
                  lambda g, x, y: g * (x > 0.0))


def tanh(a) -> Tensor:
    return _unary(a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    return _unary(a, _sigmoid_stable, lambda g, x, y: g * y * (1.0 - y))


def sqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda g, x, y: g / (2.0 * y))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _record(out, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy() / count)

    return _record(out, (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(sl)])

    return _record(out, tuple(parts), backward)


def index_select(a, index) -> Tensor:
    """Gather rows: out[i] = a[index[i]]."""
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise DataError(f"index_select: index out of range for {a.shape}")
    out = Tensor(a.data[idx])

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accumulate(a, ga)

    return _record(out, (a,), backward)


def scatter_add(values, index, out_rows: int) -> Tensor:
    """Sum rows of ``values`` into slots given by ``index``: out[index[i]] += values[i]."""
    v = as_tensor(values)
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape[0] != v.data.shape[0]:
        raise DataError(f"scatter_add: {idx.shape[0]} indices for {v.data.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= out_rows):
        raise DataError(f"scatter_add: index out of range for {out_rows} rows")
    out_data = np.zeros((out_rows,) + v.data.shape[1:], dtype=np.float64)
    np.add.at(out_data, idx, v.data)
    out = Tensor(out_data)

    def backward(g):
        _accumulate(v, g[idx])

    return _record(out, (v,), backward)


def l2_norm(a) -> Tensor:
    a = as_tensor(a)
    norm = float(np.sqrt(np.sum(a.data * a.data)))
    out = Tensor(norm)

    def backward(g):
        if norm > 0.0:
            _accumulate(a, np.asarray(g) * a.data / norm)

    return _record(out, (a,), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DataError(f"transpose: expected 2-D, got {a.shape}")
    out = Tensor(a.data.T.copy())

    def backward(g):
        _accumulate(a, g.T)

    return _record(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        _accumulate(a, np.asarray(g).reshape(a.data.shape))

    return _record(out, (a,), backward)


def gather2d(a, rows, cols) -> Tensor:
    """out[k] = a[rows[k], cols[k]] for a 2-D tensor."""
    a = as_tensor(a)
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    out = Tensor(a.data[r, c])

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (r, c), g)
        _accumulate(a, ga)

    return _record(out, (a,), backward)


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller decides training mode and supplies the rng."""
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise DataError(f"dropout: rate {rate} outside [0,1)")
    if rate == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * mask)

    def backward(g):
        _accumulate(a, g * mask)

    return _record(out, (a,), backward)


def soft_rank(a, tau: float) -> Tensor:
    """Differentiable ranks r_i = sum_j sigmoid((x_i - x_j) / tau) over a 1-D tensor."""
    a = as_tensor(a)
    if a.data.ndim != 1:
        raise DataError(f"soft_rank: expected 1-D, got {a.shape}")
    if tau <= 0.0:
        raise DataError(f"soft_rank: tau must be > 0, got {tau}")
    z = (a.data[:, None] - a.data[None, :]) / tau
    s = _sigmoid_stable(z)
    out = Tensor(s.sum(axis=1))
    sprime = s * (1.0 - s)  # symmetric: sigma'(z) is even and z_ij = -z_ji

    def backward(g):
        g = np.asarray(g)
        _accumulate(a, (g * sprime.sum(axis=1) - sprime @ g) / tau)

    return _record(out, (a,), backward)


def bce_with_logits(logits, targets, mask=None) -> Tensor:
    """Mean binary cross-entropy over unmasked entries, computed stably from logits.

    ``targets`` and optional boolean ``mask`` are constants (no gradient).
    """
    x = as_tensor(logits)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != x.data.shape:
        raise DataError(f"bce_with_logits: targets {y.shape} vs logits {x.shape}")
    m = np.ones_like(y) if mask is None else np.asarray(mask, dtype=np.float64)
    count = float(m.sum())
    if count == 0.0:
        raise DataError("bce_with_logits: no unmasked labels")
    # max(x,0) - x*y + log(1+exp(-|x|))
    per = np.maximum(x.data, 0.0) - x.data * y + np.log1p(np.exp(-np.abs(x.data)))
    out = Tensor(float((per * m).sum() / count))

    def backward(g):
        _accumulate(x, np.asarray(g) * m * (_sigmoid_stable(x.data) - y) / count)

    return _record(out, (x,), backward)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; fills ``grad`` on every
    requires_grad leaf reachable from it, then clears the tape."""
    if loss.data.size != 1:
        raise DataError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._backward is None and not loss.requires_grad:
        raise DataError("backward: loss is not connected to the gradient tape")
    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(_TAPE):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
                node.grad = None  # intermediate; leaves keep grads
    finally:
        for node in _TAPE:
            node._backward = None
            node._parents = ()
        _TAPE.clear()


def tape_size() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    """Drop all recorded nodes (e.g. after a skipped batch)."""
    for node in _TAPE:
        node._backward = None
        node._parents = ()
    _TAPE.clear()


@dataclass
class AdamState:
    """Adam moment buffers for an ordered parameter list."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params: Sequence[Tensor], lr: float = 1e-3,
                   beta1: float = 0.9, beta2: float = 0.999,
                   epsilon: float = 1e-8) -> "AdamState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
        return state


def adam_step(params: Sequence[Tensor], state: AdamState,
              grads: Optional[Sequence[np.ndarray]] = None) -> Sequence[Tensor]:
    """One Adam update with bias correction; mutates params in place."""
    if grads is None:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    if len(grads) != len(params) or len(state.m) != len(params):
        raise DataError("adam_step: params/grads/state length mismatch")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise DataError(f"adam_step: grad shape {g.shape} vs param {p.data.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return params


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None

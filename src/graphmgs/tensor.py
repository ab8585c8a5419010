"""Dense float64 tensors with a reverse-mode gradient tape and the Adam optimizer.

Define-by-run and scoped: inside a ``with tape():`` block, every op with a
parent that requires grad appends its output node to the block's tape, whose
recording order is a valid topological order.  Outside every block nothing is
recorded, so a forward-only pass needs no switch.  ``backward`` walks the
innermost open tape once in reverse and then clears it; leaving the block,
normally or by a raise, drops whatever it still holds.  Each thread (each
``contextvars`` context) has its own open tapes.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

# the innermost open tape's nodes, or None outside every ``tape()`` block
_open_tape: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "graphmgs_tape", default=None)

SOFT_RANK_BLOCK_ROWS = 128  # rows of the pairwise sigmoid matrix held at once

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@contextlib.contextmanager
def tape():
    """Record differentiable ops inside the block; its nodes are dropped on exit."""
    nodes: list[Tensor] = []
    token = _open_tape.set(nodes)
    try:
        yield
    finally:
        _open_tape.reset(token)
        _drop(nodes)


class Tensor:
    """Row-major float64 array, optionally tracked by the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

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
    nodes = _open_tape.get()
    if nodes is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._backward = backward
        nodes.append(out)
    return out


def _drop(nodes: list) -> None:
    """Cut recorded nodes off the tape: they no longer require grad or keep closures."""
    for node in nodes:
        node._backward = None
        node.requires_grad = False
    nodes.clear()


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
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DataError(f"matmul: only 2-D operands, got {a.shape} @ {b.shape}")
    try:
        out = Tensor(a.data @ b.data)
    except ValueError as exc:
        raise DataError(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from exc

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

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


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) otherwise, with e = exp(-|x|) <= 1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def _block_spans(name: str, blocks: Sequence[np.ndarray], offsets, rows: int) -> list:
    """(block, lo, hi) for each square block, checked to tile rows 0:rows in order."""
    spans = list(zip(blocks, offsets[:-1], offsets[1:]))
    if len(blocks) != len(offsets) - 1 or offsets[0] != 0 or offsets[-1] != rows or any(
            b.shape != (hi - lo, hi - lo) for b, lo, hi in spans):
        raise DataError(f"{name}: blocks do not tile the {rows} rows")
    return spans


def block_diag_matmul(blocks: Sequence[np.ndarray], offsets, a) -> Tensor:
    """diag(blocks) @ a without forming it: out[lo:hi] = blocks[k] @ a[lo:hi] for
    lo, hi = offsets[k], offsets[k + 1], the blocks being constant and square."""
    a = as_tensor(a)
    spans = _block_spans("block_diag_matmul", blocks, offsets, len(a.data))
    out = np.empty_like(a.data)
    for b, lo, hi in spans:
        out[lo:hi] = b @ a.data[lo:hi]

    def backward(g):
        ga = np.empty_like(a.data)
        for b, lo, hi in spans:
            ga[lo:hi] = b.T @ g[lo:hi]
        _accumulate(a, ga)

    return _record(Tensor(out), (a,), backward)


def block_diag_attention(blocks: Sequence[np.ndarray], offsets, scores, a) -> Tensor:
    """``block_diag_matmul`` with attention tanh(scores[i, 0] + scores[j, 1]) on each
    entry (i, j) of a block, i receiving and j sending: out[lo:hi] = (blocks[k] * w) @
    a[lo:hi].  The blocks are constant; gradients flow to ``scores`` and ``a``."""
    s, a = as_tensor(scores), as_tensor(a)
    spans = _block_spans("block_diag_attention", blocks, offsets, len(a.data))
    if s.data.shape != (len(a.data), 2):
        raise DataError(f"block_diag_attention: scores {s.shape} for {len(a.data)} rows")
    w = [np.tanh(s.data[lo:hi, 0, None] + s.data[None, lo:hi, 1]) for _, lo, hi in spans]
    out = np.empty_like(a.data)
    for (b, lo, hi), wk in zip(spans, w):
        out[lo:hi] = (b * wk) @ a.data[lo:hi]

    def backward(g):
        gs, ga = np.empty_like(s.data), np.empty_like(a.data)
        for (b, lo, hi), wk in zip(spans, w):
            m = b * wk
            ga[lo:hi] = m.T @ g[lo:hi]
            gz = (g[lo:hi] @ a.data[lo:hi].T) * b * (1.0 - wk * wk)
            gs[lo:hi, 0] = gz.sum(axis=1)
            gs[lo:hi, 1] = gz.sum(axis=0)
        _accumulate(s, gs)
        _accumulate(a, ga)

    return _record(Tensor(out), (s, a), backward)


def segment_mean(a, offsets) -> Tensor:
    """out[k] = mean of rows offsets[k]:offsets[k + 1] of a 2-D tensor."""
    a = as_tensor(a)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    # reduceat gives a zero-length segment the next row, not a mean, so reject it
    if len(counts) == 0 or counts.min() < 1 or offsets[0] != 0 or offsets[-1] != len(a.data):
        raise DataError(f"segment_mean: offsets {offsets.tolist()} do not split "
                        f"{len(a.data)} rows into non-empty segments")
    out = Tensor(np.add.reduceat(a.data, offsets[:-1], axis=0) / counts[:, None])

    def backward(g):
        _accumulate(a, np.repeat(g / counts[:, None], counts, axis=0))

    return _record(out, (a,), backward)


def _soft_rank_blocks(x: np.ndarray, tau: float):
    """Yield ``(lo, hi, s)`` with s = sigmoid((x[lo:hi, None] - x[None, :]) / tau),
    one block of at most ``SOFT_RANK_BLOCK_ROWS`` whole rows at a time."""
    for lo in range(0, len(x), SOFT_RANK_BLOCK_ROWS):
        hi = min(lo + SOFT_RANK_BLOCK_ROWS, len(x))
        yield lo, hi, _sigmoid_stable((x[lo:hi, None] - x[None, :]) / tau)


def soft_rank(a, tau: float) -> Tensor:
    """Differentiable ranks r_i = sum_j sigmoid((x_i - x_j) / tau) over a 1-D tensor.

    The P x P sigmoid matrix is never held whole: forward and backward each
    build it in blocks of ``SOFT_RANK_BLOCK_ROWS`` rows, so memory is
    O(P * block) and time O(P^2). The backward pass recomputes the blocks
    instead of keeping them. Every row is summed whole inside its block, so
    the result is bit-identical to the dense computation.
    """
    a = as_tensor(a)
    if a.data.ndim != 1:
        raise DataError(f"soft_rank: expected 1-D, got {a.shape}")
    if not (np.isfinite(tau) and tau > 0.0):
        raise DataError(f"soft_rank: tau must be finite and > 0, got {tau}")
    x = a.data
    ranks = np.empty_like(x)
    for lo, hi, s in _soft_rank_blocks(x, tau):
        ranks[lo:hi] = s.sum(axis=1)
    out = Tensor(ranks)

    def backward(g):
        g = np.asarray(g)
        ga = np.empty_like(x)
        for lo, hi, s in _soft_rank_blocks(x, tau):
            sprime = s * (1.0 - s)  # symmetric: sigma'(z) is even and z_ij = -z_ji
            ga[lo:hi] = (g[lo:hi] * sprime.sum(axis=1) - sprime @ g) / tau
        _accumulate(a, ga)

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
    """Reverse-mode sweep from a scalar loss recorded on the innermost open tape;
    fills ``grad`` on every requires_grad leaf reachable from it, then clears
    that tape."""
    if loss.data.size != 1:
        raise DataError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = _open_tape.get()
    if nodes is None or not loss.requires_grad:
        raise DataError("backward: loss is not connected to an open gradient tape")
    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
                node.grad = None  # intermediate; leaves keep grads
    finally:
        _drop(nodes)


def tape_size() -> int:
    """Nodes on the innermost open tape; 0 outside every ``tape()`` block."""
    nodes = _open_tape.get()
    return 0 if nodes is None else len(nodes)


@dataclass
class AdamState:
    """Adam moment buffers for an ordered parameter list."""

    lr: float = 1e-3
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params: Sequence[Tensor], lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
        return state


def adam_step(params: Sequence[Tensor], state: AdamState) -> Sequence[Tensor]:
    """One Adam update with bias correction from each param's ``grad`` (zero when
    None); mutates params in place."""
    if len(state.m) != len(params):
        raise DataError("adam_step: params/state length mismatch")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise DataError(f"adam_step: grad shape {g.shape} vs param {p.data.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    return params


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None

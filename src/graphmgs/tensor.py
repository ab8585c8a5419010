"""Dense float64 tensors with a reverse-mode gradient tape and the Adam optimizer.

Define-by-run and scoped: inside a ``with tape():`` block, every op with a
parent that requires grad appends its output's gradient slot to the block's
tape, whose recording order is a valid topological order.  Outside every
block nothing is recorded, so a forward-only pass needs no switch.

A ``Tensor`` is its ``data`` and a small gradient slot (``requires_grad``,
``grad`` and a recorded op's ``backward`` closure).  The tape holds slots,
not tensors.  Every op records through one path, ``_node``: the op states
one gradient function per parent, and ``_node`` keeps only those of parents
that require grad.  So what a node keeps follows from the edges it drops,
and an array no kept gradient reads is freed as soon as the forward pass
drops its tensor: ``relu`` and ``sqrt`` keep their output, ``linear`` and
``multiply`` an operand only when the other side requires grad, ``linear``
over ``blocks`` its input only for the weight's or the self weight's
gradient (never its aggregate, which the backward rebuilds) and its weight
only for the input's or the self weight's, ``block_diag_attention`` its
input only for the scores' gradient, and ``add``, ``sub``, ``transpose``,
``tsum``, ``segment_mean``, ``index_select``, ``gather2d`` and
``block_diag_matmul`` only shapes, indices and constant blocks.
``backward`` pops the innermost open tape's slots in reverse, cutting each
slot's closure as it runs it, so a kept array is freed once the sweep has run
every node that reads it; leaving the block, normally or by a raise, drops
whatever the tape still holds.
Each thread (each ``contextvars`` context) has its own open tapes.

``linear`` is the one dense product: ``a @ w`` is ``linear(a, w)``.  It fuses
what would otherwise be up to three nodes: it adds an optional bias into the
product's own array, and with ``blocks`` it first aggregates a as
``block_diag_matmul`` does, adding a self term c * a, without keeping the
aggregate.  It is one node and one output array, with the sums,
and the gradients in the order, of the ops it fuses.  ``block_diag_matmul``,
``linear`` and ``block_diag_attention`` (over its weighted blocks b * w, which
its backward rebuilds) share one per-block product loop, ``_block_rows``.

``soft_rank`` and ``models.embed_rows`` split their work across the CPUs the
process may run on with ``_split``, which runs each span in a fresh context,
so no span records on the caller's tape.  Its threads are made for the call
and joined before it returns.  ``soft_rank`` chooses by P between keeping and
rebuilding (Chen et al., arXiv:1604.06174): below ``SOFT_RANK_SPLIT_VALUES``
values it runs inline and keeps its sigmoid derivative for the backward, at
most 17.6 MB; from there on it splits and its backward rebuilds the blocks.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DataError

# the innermost open tape's nodes, or None outside every ``tape()`` block
_open_tape: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "graphmgs_tape", default=None)

# True inside a ``_split`` span, where a nested ``_split`` runs inline
_in_span: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "graphmgs_in_span", default=False)

# entries of the pairwise sigmoid matrix in one soft-rank block, so that each of
# the two float64 block buffers a worker reuses fits its own core's L2 cache:
# 128 KB up to P = 2,048, beyond which the 8-row floor of ``_soft_rank_rows``
# sets the size.  There is no third buffer: the branch-free sigmoid takes its
# input z as its ``work``.
SOFT_RANK_BLOCK_ENTRIES = 1 << 14

# values from which a soft-rank pass splits its blocks across workers.  Forward
# plus backward, median of 80 calls at 1 and 2 workers on a 2-vCPU AMD EPYC with
# 1 BLAS thread: P = 1,035 and 1,128 ran slower split (5.6 -> 5.9 ms, 6.4 -> 6.5
# ms), P = 1,225 to 1,431 within the noise either way, P = 1,485 faster in 3 of 4
# such runs (10.8-11.5 -> 8.9-10.9 ms) and P = 1,653 and 2,016 faster in every
# run (13.3 -> 11.8 ms, 18.4 -> 13.8 ms).  So B = 32 (P = 496) stays inline and
# B = 64 (2,016) and B = 128 (8,128) split.  These times were taken with a
# backward that rebuilt every block.  Below this count the forward pass also
# keeps its sigmoid derivative for the backward, which bounds what it keeps
# at 1,484^2 x 8 B = 17.6 MB.
SOFT_RANK_SPLIT_VALUES = 1_485

# entries of c * x that GIN's aggregate forms at a time: whole rows, as many as
# fit.  A temporary of the rows' full size is fresh memory at every call.  One
# aggregate of 1,645 x 300 rows (a wide-batch-pretrain step; 1 BLAS thread, 2-vCPU
# host) took 3.9 ms with c * x formed whole and 1.2 ms in such chunks; at 404 x 64
# (desk-repro) one chunk holds every row.
SELF_TERM_CHUNK_ENTRIES = 1 << 14

ADAM_LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _worker_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_span(fn, lo: int, hi: int):
    """fn(lo, hi) in a fresh context that holds nothing but the in-span mark."""
    ctx = contextvars.Context()
    ctx.run(_in_span.set, True)
    return ctx.run(fn, lo, hi)


def _split(n: int, unit: int, fn) -> list:
    """``[fn(lo, hi) for each span]``: one contiguous span of ``range(n)`` per
    worker, in order, every span but the last ending at a multiple of ``unit``.

    The calling thread runs the first span and threads made for this call
    the others; numpy releases the GIL in the ufuncs and BLAS calls the spans
    make, so they overlap.  Every thread is joined before the call returns or
    raises, so none outlives it.  There is one span, run inline and on no new
    thread, with one worker, with one unit, or inside a span, so a call makes
    at most W - 1 threads for W workers however deeply it nests.  Every span
    runs in a fresh ``contextvars.Context``, so nothing it does records on
    the caller's tape, whatever the worker count.  If spans raise, the first
    span's exception is raised, as the serial loop would raise it."""
    units = max(1, -(-n // unit))
    workers = 1 if _in_span.get() else min(_worker_count(), units)
    cuts = [min(n, unit * (units * k // workers)) for k in range(workers + 1)]
    spans = list(zip(cuts[:-1], cuts[1:]))
    if len(spans) == 1:
        return [_run_span(fn, 0, n)]
    with ThreadPoolExecutor(max_workers=len(spans) - 1,
                            thread_name_prefix="graphmgs") as pool:
        futures = [pool.submit(_run_span, fn, lo, hi) for lo, hi in spans[1:]]
        first = _run_span(fn, *spans[0])
    return [first] + [f.result() for f in futures]


@contextlib.contextmanager
def tape():
    """Record differentiable ops inside the block; its nodes are dropped on exit."""
    nodes: list[_Slot] = []
    token = _open_tape.set(nodes)
    try:
        yield
    finally:
        _open_tape.reset(token)
        _drop(nodes)


class _Slot:
    """What the tape and the backward closures hold of a tensor: whether it
    requires grad, its gradient, and for a recorded op's output the closure
    that passes a gradient on to its parents' slots."""

    __slots__ = ("requires_grad", "grad", "backward")

    def __init__(self, requires_grad: bool):
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.backward = None


class Tensor:
    """Row-major float64 array, optionally tracked by the gradient tape."""

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._slot = _Slot(requires_grad)

    @property
    def requires_grad(self) -> bool:
        return self._slot.requires_grad

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._slot.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._slot.grad = value

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
        return linear(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(out, *edges, inner=None) -> Tensor:
    """The array out as a tensor, recorded on the innermost open tape when the
    parent of an edge requires grad; outside every tape block, only the tensor.

    Each edge is ``(parent, grad)``, grad(g) giving the parent's gradient from
    the output's g.  Only the edges whose parent requires grad are kept, so
    what only a dropped edge's grad captured is freed now.  A grad must
    capture arrays, never a tensor.  The node's backward runs the kept edges
    in the order given and adds each result into its parent's gradient in a
    new array, never in place: ``add`` hands the same g to both parents.

    ``inner``, ``(grad, edges)``, stands for an intermediate the op does not
    record: grad(g) is that intermediate's gradient, computed once, after the
    node's own edges, when one of its edges is kept, handed to those edges in
    their order and dropped after the last.  So the node runs as the node of
    the intermediate would have run right after it."""
    out = Tensor(out)
    nodes = _open_tape.get()
    if nodes is None:
        return out
    kept, inner_kept = ([(p._slot, grad) for p, grad in pairs if p.requires_grad]
                        for pairs in (edges, () if inner is None else inner[1]))
    inner_grad = inner[0] if inner_kept else None
    if kept or inner_kept:
        def backward(g):
            _accumulate(kept, g)
            if inner_kept:
                _accumulate(inner_kept, inner_grad(g))

        slot = out._slot
        slot.requires_grad, slot.backward = True, backward
        nodes.append(slot)
    return out


def _accumulate(kept: list, g: np.ndarray) -> None:
    """Add each kept edge's grad(g) into its parent slot's gradient, in order."""
    for parent, grad in kept:
        d = grad(g)
        parent.grad = d if parent.grad is None else parent.grad + d


def _drop(nodes: list) -> None:
    """Cut recorded slots off the tape: they no longer require grad or keep closures."""
    for node in nodes:
        node.backward = None
        node.requires_grad = False
    nodes.clear()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _elementwise(name: str, fwd, a, b) -> tuple[Tensor, Tensor, np.ndarray]:
    """a and b as tensors and fwd of their data, numpy broadcasting them."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        return a, b, fwd(a.data, b.data)
    except ValueError as exc:
        raise DataError(f"{name}: incompatible shapes {a.shape} vs {b.shape}") from exc


def add(a, b) -> Tensor:
    a, b, out = _elementwise("add", np.add, a, b)
    sa, sb = a.shape, b.shape
    return _node(out, (a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b, out = _elementwise("sub", np.subtract, a, b)
    sa, sb = a.shape, b.shape
    return _node(out, (a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(-g, sb)))


def multiply(a, b) -> Tensor:
    a, b, out = _elementwise("multiply", np.multiply, a, b)
    x, y, sa, sb = a.data, b.data, a.shape, b.shape
    return _node(out, (a, lambda g: _unbroadcast(g * y, sa)),
                 (b, lambda g: _unbroadcast(g * x, sb)))


def divide(a, b) -> Tensor:
    a, b, out = _elementwise("divide", np.divide, a, b)
    x, y, sa, sb = a.data, b.data, a.shape, b.shape
    return _node(out, (a, lambda g: _unbroadcast(g / y, sa)),
                 (b, lambda g: _unbroadcast(-g * x / (y * y), sb)))


def linear(a, w, b=None, *, blocks=None, offsets=None, self_weight=None) -> Tensor:
    """a @ w, the one dense product, with b added into the product's own array
    when given: one node and one array where a product then ``add`` keep two,
    with the same sums and the gradients of those two in their order (b, a,
    w).  b is a bias row or a running sum of the product's shape.

    With constant square ``blocks`` tiling a's rows at ``offsets`` and a
    scalar ``self_weight`` c, a is first aggregated as ``block_diag_matmul``
    aggregates it, c * a added into the aggregate's array: ((diag(blocks) +
    cI) @ a) @ w + b, GIN's aggregate and first linear as one node.  It keeps
    a, not the aggregate, and rebuilds the aggregate in its backward for w's
    gradient; G = g @ w.T, the aggregate's gradient, is computed once after
    b's and w's and dropped after its last reader.  The sums, and the
    gradients in their order (b, w, then a as g * c, a through the blocks,
    c), are those of ``block_diag_matmul`` plus c * a, then ``linear``."""
    a, w = as_tensor(a), as_tensor(w)
    b = None if b is None else as_tensor(b)
    c = None if self_weight is None else as_tensor(self_weight)
    if a.data.ndim != 2 or w.data.ndim != 2:
        raise DataError(f"linear: only 2-D operands, got {a.shape} @ {w.shape}")
    if not (blocks is None) == (offsets is None) == (c is None):
        raise DataError("linear: blocks, offsets and self_weight come together")
    if c is not None and c.data.shape != ():
        raise DataError(f"linear: self_weight must be a scalar, got {c.shape}")
    x, m = a.data, w.data
    cw = None if c is None else c.data
    spans = None if c is None else _block_spans("linear", blocks, offsets, len(x))
    try:
        out = (x if spans is None else _aggregate(spans, x, cw)) @ m
        if b is not None:
            out += b.data
    except ValueError as exc:
        plus = "" if b is None else f" + {b.shape}"
        raise DataError(f"linear: incompatible shapes {a.shape} @ {w.shape}{plus}") from exc
    sb = None if b is None else b.shape
    bias = () if b is None else ((b, lambda g: _unbroadcast(g, sb)),)
    if spans is None:
        return _node(out, *bias, (a, lambda g: g @ m.T), (w, lambda g: x.T @ g))
    return _node(out, *bias, (w, lambda g: _aggregate(spans, x, cw).T @ g),
                 inner=(lambda g: g @ m.T, [
                     (a, lambda g: g * cw), (a, lambda g: _block_rows(spans, g, transpose=True)),
                     (c, lambda g: _unbroadcast(g * x, ()))]))


def relu(a) -> Tensor:
    """max(x, 0), whose gradient mask y > 0 on the output is x > 0 bit for
    bit, NaN included."""
    a = as_tensor(a)
    y = np.maximum(a.data, 0.0)
    return _node(y, (a, lambda g: g * (y > 0.0)))


def _sigmoid_stable(x: np.ndarray, out: Optional[np.ndarray] = None,
                    work: Optional[np.ndarray] = None) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) otherwise, with e = exp(-|x|) <= 1.

    The numerator is selected without a branch: max(m, e) with m = 1.0 where
    x >= 0 and 0.0 elsewhere, which is exactly 1 or e because 0 <= e <= 1, and
    NaN where x is NaN.  ``out`` receives the result and ``work`` holds e; both
    are optional float64 arrays of x's shape, and ``work`` may be x itself,
    which is then overwritten."""
    out = np.greater_equal(x, 0.0, out=np.empty(x.shape) if out is None else out)
    e = np.abs(x, out=work)  # the last read of x, which ``work`` may be
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    y = np.sqrt(a.data)
    return _node(y, (a, lambda g: g / (2.0 * y)))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape

    def grad(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a, grad))


def _scatter_add(shape: tuple[int, ...], flat, g) -> np.ndarray:
    """Zeros of ``shape`` with g[k] added at flat index flat[k], in order of k: the
    sums of ``np.add.at`` bit for bit, since both add in the same order from 0."""
    return np.bincount(np.ravel(flat), weights=np.ravel(g),
                       minlength=math.prod(shape)).reshape(shape)


def index_select(a, index) -> Tensor:
    """Gather rows: out[i] = a[index[i]]."""
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise DataError(f"index_select: index out of range for {a.shape}")
    shape = a.data.shape

    def grad(g):
        inner = math.prod(shape[1:])
        return _scatter_add(shape, idx.reshape(-1, 1) * inner + np.arange(inner), g)

    return _node(a.data[idx], (a, grad))


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DataError(f"transpose: expected 2-D, got {a.shape}")
    return _node(a.data.T.copy(), (a, lambda g: g.T))


def gather2d(a, rows, cols) -> Tensor:
    """out[k] = a[rows[k], cols[k]] for a 2-D tensor."""
    a = as_tensor(a)
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if a.data.ndim != 2 or r.shape != c.shape:
        raise DataError(f"gather2d: rows {r.shape} and cols {c.shape} into {a.shape}")
    if r.size and (min(r.min(), c.min()) < 0 or r.max() >= a.data.shape[0]
                   or c.max() >= a.data.shape[1]):
        raise DataError(f"gather2d: index out of range for {a.shape}")
    shape = a.data.shape
    return _node(a.data[r, c], (a, lambda g: _scatter_add(shape, r * shape[1] + c, g)))


def _block_spans(name: str, blocks: Sequence[np.ndarray], offsets, rows: int) -> list:
    """(block, lo, hi) for each square block, checked to tile rows 0:rows in order."""
    spans = list(zip(blocks, offsets[:-1], offsets[1:]))
    if len(blocks) != len(offsets) - 1 or offsets[0] != 0 or offsets[-1] != rows or any(
            b.shape != (hi - lo, hi - lo) for b, lo, hi in spans):
        raise DataError(f"{name}: blocks do not tile the {rows} rows")
    return spans


def _block_rows(spans: Iterable, x: np.ndarray, out: Optional[np.ndarray] = None,
                transpose: bool = False) -> np.ndarray:
    """out, or a new C-ordered array, with out[lo:hi] = b @ x[lo:hi] (b.T @
    x[lo:hi] with ``transpose``) for each (b, lo, hi) of spans: the one
    per-block product loop."""
    out = np.empty(x.shape) if out is None else out
    for b, lo, hi in spans:
        out[lo:hi] = (b.T if transpose else b) @ x[lo:hi]
    return out


def _aggregate(spans: list, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(diag(blocks) + cI) @ x in a new array of x's layout: what ``linear``
    computes in its forward pass and rebuilds, bit for bit, in its backward.
    c * x is added ``SELF_TERM_CHUNK_ENTRIES`` entries at a time, with the
    bits of adding it whole: an elementwise op's bits do not depend on its
    extent."""
    out = _block_rows(spans, x, np.empty_like(x))
    rows = max(1, SELF_TERM_CHUNK_ENTRIES // max(1, x.shape[1]))
    for lo in range(0, len(x), rows):
        out[lo:lo + rows] += c * x[lo:lo + rows]
    return out


def block_diag_matmul(blocks: Sequence[np.ndarray], offsets, a) -> Tensor:
    """diag(blocks) @ a without forming it: out[lo:hi] = blocks[k] @ a[lo:hi] for
    lo, hi = offsets[k], offsets[k + 1], the blocks being constant and square.
    ``linear`` takes the same blocks to aggregate its input before its product."""
    a = as_tensor(a)
    spans = _block_spans("block_diag_matmul", blocks, offsets, len(a.data))
    return _node(_block_rows(spans, a.data, np.empty_like(a.data)),
                 (a, lambda g: _block_rows(spans, g, transpose=True)))


def block_diag_attention(blocks: Sequence[np.ndarray], offsets, scores, a) -> Tensor:
    """``block_diag_matmul`` with attention tanh(scores[i, 0] + scores[j, 1]) on each
    entry (i, j) of a block, i receiving and j sending: out[lo:hi] = (blocks[k] * w) @
    a[lo:hi].  The blocks are constant; gradients flow to ``scores`` and ``a``."""
    s, a = as_tensor(scores), as_tensor(a)
    spans = _block_spans("block_diag_attention", blocks, offsets, len(a.data))
    if s.data.shape != (len(a.data), 2):
        raise DataError(f"block_diag_attention: scores {s.shape} for {len(a.data)} rows")
    w = [np.tanh(s.data[lo:hi, 0, None] + s.data[None, lo:hi, 1]) for _, lo, hi in spans]
    x = a.data

    def weighted():  # one weighted block at a time
        return ((b * wk, lo, hi) for (b, lo, hi), wk in zip(spans, w))

    def scores_grad(g):
        gs = np.empty((len(x), 2))
        for (b, lo, hi), wk in zip(spans, w):
            gz = (g[lo:hi] @ x[lo:hi].T) * b * (1.0 - wk * wk)
            gs[lo:hi, 0] = gz.sum(axis=1)
            gs[lo:hi, 1] = gz.sum(axis=0)
        return gs

    return _node(_block_rows(weighted(), x, np.empty_like(x)), (s, scores_grad),
                 (a, lambda g: _block_rows(weighted(), g, transpose=True)))


def segment_mean(a, offsets) -> Tensor:
    """out[k] = mean of rows offsets[k]:offsets[k + 1] of a 2-D tensor."""
    a = as_tensor(a)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    # reduceat gives a zero-length segment the next row, not a mean, so reject it
    if len(counts) == 0 or counts.min() < 1 or offsets[0] != 0 or offsets[-1] != len(a.data):
        raise DataError(f"segment_mean: offsets {offsets.tolist()} do not split "
                        f"{len(a.data)} rows into non-empty segments")
    return _node(np.add.reduceat(a.data, offsets[:-1], axis=0) / counts[:, None],
                 (a, lambda g: np.repeat(g / counts[:, None], counts, axis=0)))


def _soft_rank_rows(p: int) -> int:
    """Rows per soft-rank block over p values: 128, halved while the block would
    hold more than ``SOFT_RANK_BLOCK_ENTRIES`` entries, but never below 8."""
    rows = 128
    while rows > 8 and rows * p > SOFT_RANK_BLOCK_ENTRIES:
        rows //= 2
    return rows


def _soft_rank_blocks(x: np.ndarray, tau: float, lo: int, hi: int):
    """Yield ``(b_lo, b_hi, s, spare)`` with s = sigmoid((x[b_lo:b_hi, None] -
    x[None, :]) / tau), one block of at most ``_soft_rank_rows(len(x))`` whole
    rows at a time, over rows lo:hi (lo a multiple of that row count).

    s and ``spare``, scratch of s's shape, are views of two buffers of this
    generator's own, which the next block overwrites."""
    rows = _soft_rank_rows(len(x))
    zbuf, sbuf = np.empty((rows, len(x))), np.empty((rows, len(x)))
    for b_lo in range(lo, hi, rows):
        b_hi = min(b_lo + rows, hi)
        z = np.subtract(x[b_lo:b_hi, None], x[None, :], out=zbuf[:b_hi - b_lo])
        z /= tau
        yield b_lo, b_hi, _sigmoid_stable(z, out=sbuf[:b_hi - b_lo], work=z), z


def _sigmoid_slope(s: np.ndarray, out: Optional[np.ndarray] = None):
    """``(sprime, rowsum)``: sigma' = (1 - s) s of a sigmoid block s, in ``out``
    when given, and its row sums."""
    sprime = np.subtract(1.0, s, out=out)
    sprime *= s  # symmetric: sigma'(z) is even and z_ij = -z_ji
    return sprime, sprime.sum(axis=1)


def soft_rank(a, tau: float) -> Tensor:
    """Differentiable ranks r_i = sum_j sigmoid((x_i - x_j) / tau) over a 1-D tensor.

    The forward pass builds the P x P sigmoid matrix in blocks of whole
    rows, so time is O(P^2). A block has 128 rows, halved while it would
    hold more than ``SOFT_RANK_BLOCK_ENTRIES`` (2^14) entries, but never
    fewer than 8: 64 rows at P = 190, 32 at P = 496 and 8 from P = 2,048 on.

    What the backward pass reads depends on P:
    - Below ``SOFT_RANK_SPLIT_VALUES`` values, forward and backward run
      inline on the calling thread. When the input requires grad, the
      forward pass also writes each block's sprime = (1 - s) s into its rows
      of one P x P array and keeps it and the row sums (``_sigmoid_slope``)
      on the backward closure, and the backward evaluates no sigmoid. That
      is at most 1,484^2 x 8 B = 17.6 MB, freed when the sweep runs the node
      or the tape drops it. An input that does not require grad, as in
      evaluation, keeps and computes no sprime.
    - From ``SOFT_RANK_SPLIT_VALUES`` values on, the forward and the
      backward pass each split the blocks into one contiguous run of whole
      blocks per worker (``_split``), and the backward rebuilds every block
      instead of keeping it, so memory is O(P) per block.
    Each pass allocates two rows x P buffers per worker once and reuses them
    for every block of its run: z is computed in one, and ``_sigmoid_stable``
    writes s into the other with a branch-free select, taking z itself as
    its ``work`` (its ``work`` may be its input); a rebuilding backward pass
    then builds sprime in z's buffer. The buffers are not shared between
    workers or calls, or kept by the backward closure. Kept or rebuilt,
    sprime and its row sums come from the same ops in the same order, so
    the two paths give the same bits.

    What is guaranteed:
    - The ranks are bit-identical to the dense computation at every P,
      because each row is summed whole inside its block.
    - Ranks and gradient do not depend on the worker count: every block has
      the same rows whichever worker computes it.
    - The gradient is not always bit-identical to the dense one. Its
      ``sprime @ g`` is a BLAS matrix-vector product whose last-bit rounding
      can depend on how many rows it is given, in a way that varies with the
      BLAS build and CPU.
      Blocks of 1-7 rows (or 12) round differently from 128-row blocks at
      many P. Blocks whose row count is a power of two and at least 8 give
      the bits of 128-row blocks at all but a few odd batch pair counts
      B(B-1)/2 for B = 3..128 (561, 1,081 or 6,441, depending on the host),
      hence the halving and its floor. At the pair counts of the pipeline's
      batch sizes (B = 16, 20, 32, 64, 128) the gradient is bit-identical to
      the dense product. Elsewhere it can differ from the dense product in
      the last bits, as 128-row blocks do at P = 4,097, and stays within
      1e-12 relative of it.
    """
    a = as_tensor(a)
    if a.data.ndim != 1:
        raise DataError(f"soft_rank: expected 1-D, got {a.shape}")
    if not (np.isfinite(tau) and tau > 0.0):
        raise DataError(f"soft_rank: tau must be finite and > 0, got {tau}")
    x = a.data
    p = len(x)
    unit = _soft_rank_rows(p) if p >= SOFT_RANK_SPLIT_VALUES else max(p, 1)
    ranks = np.empty_like(x)

    # every block's (b_lo, b_hi, sprime, rowsum) for the backward, when the
    # pass runs inline and its input requires grad.  The blocks' sprime are
    # rows of one P x P array: at P = 496 (1 BLAS thread, 2-vCPU host) forward
    # plus backward took 1.8 ms so, against 2.3 ms with an array per block
    kept = [] if a.requires_grad and p < SOFT_RANK_SPLIT_VALUES else None
    slopes = None if kept is None else np.empty((p, p))

    def forward(lo, hi):
        for b_lo, b_hi, s, _ in _soft_rank_blocks(x, tau, lo, hi):
            ranks[b_lo:b_hi] = s.sum(axis=1)
            if kept is not None:
                kept.append((b_lo, b_hi, *_sigmoid_slope(s, out=slopes[b_lo:b_hi])))

    _split(p, unit, forward)

    def grad(g):
        g = np.asarray(g)
        ga = np.empty_like(x)

        def fill(blocks):
            for b_lo, b_hi, sprime, rowsum in blocks:
                ga[b_lo:b_hi] = (g[b_lo:b_hi] * rowsum - sprime @ g) / tau

        if kept is not None:
            fill(kept)
        else:
            _split(p, unit, lambda lo, hi: fill(
                (b_lo, b_hi, *_sigmoid_slope(s, out=spare))
                for b_lo, b_hi, s, spare in _soft_rank_blocks(x, tau, lo, hi)))
        return ga

    return _node(ranks, (a, grad))


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
    z = x.data
    return _node(float((per * m).sum() / count),
                 (x, lambda g: np.asarray(g) * m * (_sigmoid_stable(z) - y) / count))


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss recorded on the innermost open tape;
    fills ``grad`` on every requires_grad leaf reachable from it.

    Each slot is popped off the tape and its closure cut before that closure
    runs, so what only that closure kept is freed once it has run: a kept
    array lives until the sweep has run every node that reads it.  The tape
    is empty afterwards, and a raise part-way through drops the slots still
    on it."""
    if loss.data.size != 1:
        raise DataError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = _open_tape.get()
    if nodes is None or not loss.requires_grad:
        raise DataError("backward: loss is not connected to an open gradient tape")
    loss.grad = np.ones_like(loss.data)
    try:
        while nodes:
            node = nodes.pop()
            step, g = node.backward, node.grad
            # intermediate: cut off the tape; leaves keep their grads
            node.backward, node.grad, node.requires_grad = None, None, False
            if g is not None:
                step(g)
    finally:
        _drop(nodes)


def tape_size() -> int:
    """Slots on the innermost open tape; 0 outside every ``tape()`` block."""
    nodes = _open_tape.get()
    return 0 if nodes is None else len(nodes)


class AdamState:
    """Adam's step count and moment buffers for the ordered parameter list it
    was made for, which it holds, so a step updates exactly those."""

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState) -> None:
    """One Adam update with bias correction of the state's parameters from each
    one's ``grad`` (zero when None); mutates them in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise DataError(f"adam_step: grad shape {g.shape} vs param {p.data.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= ADAM_LEARNING_RATE * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None

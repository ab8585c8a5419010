"""Similarity kernels, rank correlation, and the graph-structure metric (MGS).

A set of graph pairs is two equal-length int arrays, ``rows`` and ``cols``:
pair k is graphs ``rows[k]`` and ``cols[k]`` of a sequence of graphs.  The
caller picks the pairs; nothing here draws them on its own.  Pre-training
scores every pair of a batch (``np.triu_indices``).  MGS scores pairs drawn
by ``sample_pair_indices``, a sorted sample without replacement of positions
in ``np.triu_indices`` order: ``training.evaluate_mgs`` draws once per call,
and ``training.pretrain`` once per run for its held-out graphs.  All of them
are scored on one path:

- ``structural_pair_sims`` scores exactly the pairs it is given.  Bit
  fingerprints are packed into 64-bit words, and a pair's shared bits are
  the popcount of the AND of its two rows of words, taken for at most
  ``TANIMOTO_RUN_PAIRS`` pairs at a time; each graph's bits are counted the
  same way.  The counts are exact integers, so each score is one division of
  two of them.  Spectral scores are ``-sum((L[i] - L[j])**2)`` over gathered
  eigenvalue rows.  Both are bit-identical to the scalar ``tanimoto`` and
  ``spectral_distance`` in ``tests/spec.py``; the expansion
  |a|^2 + |b|^2 - 2ab is not, so it is not used.
- ``cosine_pair_sims`` is a Tensor op on one (n, dim) embedding matrix:
  normalise its rows, take their Gram matrix, gather the pairs.  Pre-training
  differentiates through it inside a ``tape()`` block; evaluation calls it
  outside any block, where nothing is recorded.  It agrees with the scalar
  ``cosine`` in ``tests/spec.py`` to about 1e-15, not bit for bit.

A score between fingerprints of two kinds (scheme, params, length) has no
meaning, so ``check_comparable`` rejects them: in ``structural_pair_sims``,
in ``build_pair_set`` before any encoding, and in ``training.pretrain``
before any step.  ``structural_similarity`` and ``cosine_similarity`` are a
batch of one pair.

``build_pair_set(graphs, encoder, fingerprints, rows, cols)`` scores exactly
the pairs it is given, and keeps them in its ``SimilarityPairSet`` as index
arrays next to one array of graph ids; ``write_pair_csv`` joins the two.  It
asks its encoder once for the embedding rows of the graphs its pairs use.
How they are encoded, in blocks and on which workers, is the encoder's affair
(``models.embed_rows``), so nothing here runs on threads.

Memory for Tanimoto is the graphs' bits, stacked once as bytes to be
packed (graphs x nbits bytes), their packed words (graphs x nbits / 8
bytes, held twice while padded to whole 64-bit words) and, per run, the
two gathered word rows of each pair (2 x ``TANIMOTO_RUN_PAIRS`` x nbits / 8
bytes, 512 KiB at 2,048 bits): no float copy of the bits and no graphs x
graphs table.  The cosine is O(distinct
graphs ** 2) for the Gram matrix, plus the stacked embedding rows.
Gathering the two embedding rows of every pair instead would hold 2 x pairs
x dim floats: 96 MB for 20,000 pairs of 300-dim embeddings, against 0.7 MB
for the Gram matrix of 300 graphs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import DataError, NumericError, check_int
from .spectral import SPECTRAL

# pairs per run of popcounts in structural_pair_sims: at 2,048 bits, runs of 512 to
# 2,048 pairs took about 0.6 ms for 5,000 pairs of 200 graphs and 0.8 ms for the
# 8,128 pairs of a 128-graph batch, and runs of 4,096 took 1.3 ms or more for both
# (medians of 400 calls on a 2-vCPU Intel Xeon)
TANIMOTO_RUN_PAIRS = 1024


def average_ranks(x) -> np.ndarray:
    """1-based ranks, ties averaged over the positions they span (each NaN
    is a run of its own, after every number)."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new_run = np.ones(len(x), dtype=bool)
    new_run[1:] = xs[1:] != xs[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], len(x))
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _samples(what: str, x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float64 vectors of one length, at least 2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"{what}: shape mismatch {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise DataError(f"{what}: need at least 2 samples")
    return x, y


def pearson(x, y) -> float:
    x, y = _samples("pearson", x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise NumericError("pearson undefined: constant vector")
    return float(np.sum(dx * dy) / (sx * sy))


def spearman(x, y) -> float:
    """Pearson correlation of average ranks."""
    x, y = _samples("spearman", x, y)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("spearman undefined: non-finite input")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise NumericError("spearman undefined: zero rank variance")
    return pearson(average_ranks(x), average_ranks(y))


@dataclass(frozen=True)
class SimilarityPairSet:
    """Structural and embedding similarity of graph pairs: pair k is graphs
    ``ids[rows[k]]`` and ``ids[cols[k]]``, with ``ids`` one array of graph ids."""

    ids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    structural: np.ndarray
    embedding: np.ndarray

    def __post_init__(self):
        if not len(self.structural) == len(self.embedding) == len(self.rows) == len(self.cols):
            raise DataError("pair set: misaligned similarity vectors")


def mgs(pairs: SimilarityPairSet) -> float:
    """Spearman correlation between structural and embedding similarity."""
    return spearman(pairs.structural, pairs.embedding)


def check_comparable(fps) -> None:
    """Raise ``DataError``, naming two kinds, unless ``fps`` are of one kind."""
    kinds = list(dict.fromkeys(fp.kind for fp in fps))
    if len(kinds) > 1:
        first, other = (f"{scheme}({', '.join(f'{k}={v}' for k, v in params)}) "
                        f"of length {length}" for scheme, params, length in kinds[:2])
        raise DataError(f"fingerprints of different kinds cannot be compared: "
                        f"{first} and {other}")


def structural_pair_sims(fps: Sequence, rows, cols) -> np.ndarray:
    """Tanimoto (1.0 for two all-zero vectors) or negated squared spectral
    distance of ``fps[rows[k]]`` and ``fps[cols[k]]`` for every k; ``fps``
    must be of one kind.  Tanimoto counts set bits as popcounts of 64-bit
    words: each fingerprint's own, and each pair's shared bits from the AND
    of its two rows, ``TANIMOTO_RUN_PAIRS`` pairs at a time."""
    check_comparable(fps)
    if fps[0].scheme == SPECTRAL:
        eig = np.asarray([f.eigenvalues for f in fps], dtype=np.float64)
        return -np.sum((eig[rows] - eig[cols]) ** 2, axis=1)
    packed = np.packbits(np.stack([f.bits for f in fps]), axis=1)
    words = np.zeros((len(fps), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    words = words.view(np.uint64)
    counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    common = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), TANIMOTO_RUN_PAIRS):
        shared = words[rows[lo:lo + TANIMOTO_RUN_PAIRS]]
        shared &= words[cols[lo:lo + TANIMOTO_RUN_PAIRS]]
        common[lo:lo + TANIMOTO_RUN_PAIRS] = np.bitwise_count(shared).sum(axis=1, dtype=np.int64)
    union = counts[rows] + counts[cols] - common
    return np.divide(common, union, out=np.ones(len(common)), where=union > 0)


def cosine_pair_sims(embeddings, rows, cols) -> T.Tensor:
    """Cosine similarity of embedding rows ``rows[k]`` and ``cols[k]`` of an
    (n, dim) matrix for every k, as one Tensor (differentiable when the
    embeddings are)."""
    e = T.as_tensor(embeddings)
    if e.data.ndim != 2:
        raise DataError(f"cosine: expected an (n, dim) embedding matrix, got {e.shape}")
    norms = T.sqrt(T.tsum(e * e, axis=1, keepdims=True))
    if float(np.min(norms.data)) == 0.0:
        raise NumericError("undefined cosine: zero-norm embedding")
    normed = e / norms
    return T.gather2d(normed @ T.transpose(normed), rows, cols)


def structural_similarity(fp_i, fp_j) -> float:
    return float(structural_pair_sims([fp_i, fp_j], [0], [1])[0])


def cosine_similarity(h_i, h_j) -> float:
    a, b = np.ravel(h_i), np.ravel(h_j)
    if a.shape != b.shape:
        raise DataError(f"cosine: dimension mismatch {a.shape} vs {b.shape}")
    return float(cosine_pair_sims(np.stack([a, b]), [0], [1]).data[0])


def sample_pair_indices(count: int, n_pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_pairs`` distinct pairs (rows[k] < cols[k]) of ``count`` graphs,
    uniform without replacement, in ``np.triu_indices(count, 1)`` order.
    Each drawn position in that order is mapped to its pair through the
    positions where the rows start, so the count ** 2 table of
    ``np.triu_indices`` is never built.  Memory is O(count + n_pairs):
    numpy's ``choice`` holds every position only when ``n_pairs`` is more
    than 1/50 of them."""
    check_int("n_pairs (a pair set needs at least 2 pairs)", n_pairs, 2)
    check_int("pair sampling seed", seed, 0)
    check_int("pair sampling: graph count", count, 0)
    total = count * (count - 1) // 2
    if n_pairs > total:
        raise DataError(f"cannot sample {n_pairs} pairs from {count} graphs ({total} possible)")
    rng = np.random.default_rng(seed)
    pick = rng.choice(total, size=n_pairs, replace=False)
    pick.sort()
    i = np.arange(count - 1)
    starts = i * count - i * (i + 1) // 2  # position of pair (i, i + 1)
    rows = np.searchsorted(starts, pick, side="right") - 1
    return rows, pick - starts[rows] + rows + 1


def fingerprints_of(graphs, fingerprints: dict) -> list:
    """The fingerprint of each graph, in order; ``DataError`` naming up to five
    graphs that have none."""
    missing = [g.id for g in graphs if g.id not in fingerprints]
    if missing:
        raise DataError(f"fingerprints missing for graphs: {missing[:5]}")
    return [fingerprints[g.id] for g in graphs]


def build_pair_set(graphs, encoder: Callable, fingerprints: dict,
                   rows, cols) -> SimilarityPairSet:
    """Score the pairs (``graphs[rows[k]]``, ``graphs[cols[k]]``) the caller
    picked: structural similarity from fingerprints, embedding similarity as
    the cosine of encoder outputs.  ``rows`` and ``cols`` are 1-D integer
    arrays of one length, at least 2, of positions in ``graphs`` (a
    sequence), and no pair holds one graph twice.  ``encoder`` is called
    once, with the int array of the ascending positions of the graphs the
    pairs use, and returns their embedding rows, one per position.  Every
    graph needs a fingerprint, and all must be of one kind."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.ndim != 1 or rows.shape != cols.shape or len(rows) < 2 or not (
            rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
        raise DataError("pair indices must be two 1-D integer arrays of one length, at least 2")
    both = np.concatenate([rows, cols])
    if both.min() < 0 or both.max() >= len(graphs) or np.any(rows == cols):
        raise DataError(f"every pair must hold two different graphs of the {len(graphs)}")
    fps = fingerprints_of(graphs, fingerprints)
    check_comparable(fps)
    needed, inverse = np.unique(both, return_inverse=True)
    embeddings = np.asarray(encoder(needed), dtype=np.float64)
    if embeddings.shape[:1] != needed.shape:
        raise DataError(f"cosine: dimension mismatch, {embeddings.shape} for {len(needed)} graphs")
    i_pos, j_pos = inverse[:len(rows)], inverse[len(rows):]
    return SimilarityPairSet(np.asarray([g.id for g in graphs], dtype=object), rows, cols,
                             structural_pair_sims([fps[i] for i in needed], i_pos, j_pos),
                             cosine_pair_sims(embeddings, i_pos, j_pos).data)


def write_pair_csv(pairs: SimilarityPairSet, path) -> None:
    """Scatter-plot data: one row per scored pair, ids quoted where they must
    be.  ``csv.writer`` quotes a field holding its line terminator, a newline
    here, but not a lone carriage return, at which ``csv.reader`` ends a row;
    so a row with an id holding one has every field quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        out.writerow(("pair_i", "pair_j", "structural_sim", "embedding_sim"))
        for gi, gj, s, e in zip(pairs.ids[pairs.rows], pairs.ids[pairs.cols],
                                pairs.structural, pairs.embedding):
            (quoted if "\r" in f"{gi}{gj}" else out).writerow((gi, gj, f"{s:.17g}", f"{e:.17g}"))

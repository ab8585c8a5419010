"""Similarity kernels, rank correlation, and the graph-structure metric (MGS).

Pairs of graphs are scored on one path, shared by pre-training (every pair
of a batch, from ``np.triu_indices``) and by ``build_pair_set`` (sampled
pairs, for MGS):

- ``structural_pair_sims`` stacks the fingerprints of the distinct graphs
  involved into one matrix.  Tanimoto intersections come from the Gram
  matrix of the 0/1 bit rows in float64 (exact: every count is at most
  ``nbits`` < 2**53); spectral scores are ``-sum((L[i] - L[j])**2)`` over
  gathered eigenvalue rows.  Both are bit-identical to the scalar
  ``tanimoto`` and ``spectral_distance`` in ``tests/spec.py``; the expansion
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

``build_pair_set`` asks its encoder once for the embedding rows of the graphs
its pairs use.  How they are encoded, in blocks and on which workers, is the
encoder's affair (``models.embed_rows``), so nothing here runs on threads.

Memory is O(distinct graphs ** 2) for the Gram matrices, plus the stacked
rows (distinct graphs x nbits or x embedding dim).  Gathering the two
embedding rows of every pair instead would hold 2 x pairs x dim floats:
96 MB for 20,000 pairs of 300-dim embeddings, against 0.7 MB for the Gram
matrix of 300 graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import DataError, NumericError, check_int
from .spectral import SPECTRAL

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


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"pearson: shape mismatch {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise DataError("pearson: need at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise NumericError("pearson undefined: constant vector")
    return float(np.sum(dx * dy) / (sx * sy))


def spearman(x, y) -> float:
    """Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"spearman: shape mismatch {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise DataError("spearman: need at least 2 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("spearman undefined: non-finite input")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise NumericError("spearman undefined: zero rank variance")
    return pearson(average_ranks(x), average_ranks(y))


@dataclass(frozen=True)
class SimilarityPairSet:
    """Aligned structural/embedding similarities for a set of graph pairs."""

    structural: np.ndarray
    embedding: np.ndarray
    pair_ids: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(self.structural) != len(self.embedding) or len(self.structural) != len(self.pair_ids):
            raise DataError("pair set: misaligned similarity vectors")
        if len(self.structural) < 2:
            raise DataError("pair set: need at least 2 pairs")


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
    distance of ``fps[rows[k]]`` and ``fps[cols[k]]`` for every k, from one
    stacked matrix of ``fps``, which must be of one kind."""
    check_comparable(fps)
    if fps[0].scheme == SPECTRAL:
        eig = np.asarray([f.eigenvalues for f in fps], dtype=np.float64)
        return -np.sum((eig[rows] - eig[cols]) ** 2, axis=1)
    bits = np.stack([f.bits for f in fps]).astype(np.float64)
    counts = bits.sum(axis=1)
    common = (bits @ bits.T)[rows, cols]
    union = counts[rows] + counts[cols] - common
    return np.divide(common, union, out=np.ones_like(common), where=union > 0)


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


def _sample_pair_indices(count: int, n_pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    total = count * (count - 1) // 2
    if n_pairs > total:
        raise DataError(f"cannot sample {n_pairs} pairs from {count} graphs ({total} possible)")
    rows, cols = np.triu_indices(count, k=1)
    rng = np.random.default_rng(seed)
    pick = rng.choice(total, size=n_pairs, replace=False)
    pick.sort()
    return rows[pick], cols[pick]


def build_pair_set(corpus, encoder: Callable, fingerprints: dict,
                   n_pairs: int, seed: int) -> SimilarityPairSet:
    """Sample graph pairs and score them: structural from fingerprints,
    embedding as cosine similarity of encoder outputs.  ``encoder`` is called
    once, with the int array of the ascending positions in ``list(corpus)``
    of the graphs the sampled pairs use, and returns their embedding rows,
    one per position."""
    check_int("n_pairs (a pair set needs at least 2 pairs)", n_pairs, 2)
    check_int("pair sampling seed", seed, 0)
    graphs = list(corpus)
    missing = [g.id for g in graphs if g.id not in fingerprints]
    if missing:
        raise DataError(f"fingerprints missing for graphs: {missing[:5]}")
    check_comparable([fingerprints[g.id] for g in graphs])
    rows, cols = _sample_pair_indices(len(graphs), n_pairs, seed)
    needed, inverse = np.unique(np.concatenate([rows, cols]), return_inverse=True)
    embeddings = np.asarray(encoder(needed), dtype=np.float64)
    if embeddings.shape[:1] != needed.shape:
        raise DataError(f"cosine: dimension mismatch, encoder gave {embeddings.shape} "
                        f"for {len(needed)} graphs")
    i_pos, j_pos = inverse[:n_pairs], inverse[n_pairs:]
    structural = structural_pair_sims([fingerprints[graphs[i].id] for i in needed],
                                      i_pos, j_pos)
    embedding = cosine_pair_sims(embeddings, i_pos, j_pos).data
    ids = np.asarray([g.id for g in graphs], dtype=object)
    return SimilarityPairSet(structural=structural, embedding=embedding,
                             pair_ids=tuple(zip(ids[rows], ids[cols])))


def write_pair_csv(pairs: SimilarityPairSet, path) -> None:
    """Scatter-plot data: one row per sampled pair."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("pair_i,pair_j,structural_sim,embedding_sim\n")
        for (gi, gj), s, e in zip(pairs.pair_ids, pairs.structural, pairs.embedding):
            fh.write(f"{gi},{gj},{s:.17g},{e:.17g}\n")

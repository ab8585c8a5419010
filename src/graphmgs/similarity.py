"""Similarity kernels, rank correlation, and the graph-structure metric (MGS)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, NumericError
from .fingerprints import BitFingerprint
from .spectral import SpectralFingerprint


def tanimoto(f_i: BitFingerprint, f_j: BitFingerprint) -> float:
    """Intersection over union of set bits; two all-zero vectors count as 1.0."""
    if f_i.nbits != f_j.nbits:
        raise DataError(f"tanimoto: length mismatch {f_i.nbits} vs {f_j.nbits}")
    common = int(np.count_nonzero(f_i.bits & f_j.bits))
    total = f_i.popcount() + f_j.popcount()
    if total == 0:
        return 1.0
    return common / (total - common)


def spectral_distance(l_i: SpectralFingerprint, l_j: SpectralFingerprint) -> float:
    """Squared Euclidean distance between two eigenvalue fingerprints."""
    if l_i.k != l_j.k:
        raise DataError(f"spectral distance: k mismatch {l_i.k} vs {l_j.k}")
    a = np.asarray(l_i.eigenvalues)
    b = np.asarray(l_j.eigenvalues)
    return float(np.sum((a - b) ** 2))


def cosine_similarity(h_i, h_j) -> float:
    a = np.asarray(h_i, dtype=np.float64).reshape(-1)
    b = np.asarray(h_j, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise DataError(f"cosine: dimension mismatch {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise NumericError("undefined cosine: zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def average_ranks(x) -> np.ndarray:
    """1-based ranks, ties averaged over the positions they span."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i + 1
        while j < len(x) and x[order[j]] == x[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
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


def structural_similarity(fp_i, fp_j) -> float:
    """Orientation-consistent structural similarity: Tanimoto for bit schemes,
    negated squared spectral distance for eigenvalue fingerprints."""
    if isinstance(fp_i, BitFingerprint) and isinstance(fp_j, BitFingerprint):
        return tanimoto(fp_i, fp_j)
    if isinstance(fp_i, SpectralFingerprint) and isinstance(fp_j, SpectralFingerprint):
        return -spectral_distance(fp_i, fp_j)
    raise DataError("structural similarity: mixed fingerprint schemes")


def sample_pairs(count: int, n_pairs: int, seed: int) -> list[tuple[int, int]]:
    """n_pairs distinct unordered index pairs, uniform without replacement."""
    total = count * (count - 1) // 2
    if n_pairs > total:
        raise DataError(f"cannot sample {n_pairs} pairs from {count} graphs ({total} possible)")
    rows, cols = np.triu_indices(count, k=1)
    rng = np.random.default_rng(seed)
    pick = rng.choice(total, size=n_pairs, replace=False)
    pick.sort()
    return [(int(rows[p]), int(cols[p])) for p in pick]


def build_pair_set(corpus, encoder: Callable, fingerprints: dict,
                   n_pairs: int, seed: int) -> SimilarityPairSet:
    """Sample graph pairs and score them: structural from fingerprints,
    embedding as cosine similarity of encoder outputs."""
    graphs = list(corpus)
    missing = [g.id for g in graphs if g.id not in fingerprints]
    if missing:
        raise DataError(f"fingerprints missing for graphs: {missing[:5]}")
    idx_pairs = sample_pairs(len(graphs), n_pairs, seed)
    needed = sorted({i for p in idx_pairs for i in p})
    embeddings = {i: np.asarray(encoder(graphs[i]), dtype=np.float64) for i in needed}
    structural = np.empty(n_pairs, dtype=np.float64)
    embedding = np.empty(n_pairs, dtype=np.float64)
    pair_ids = []
    for k, (i, j) in enumerate(idx_pairs):
        gi, gj = graphs[i], graphs[j]
        structural[k] = structural_similarity(fingerprints[gi.id], fingerprints[gj.id])
        embedding[k] = cosine_similarity(embeddings[i], embeddings[j])
        pair_ids.append((gi.id, gj.id))
    return SimilarityPairSet(structural=structural, embedding=embedding,
                             pair_ids=tuple(pair_ids))


def write_pair_csv(pairs: SimilarityPairSet, path) -> None:
    """Scatter-plot data: one row per sampled pair."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("pair_i,pair_j,structural_sim,embedding_sim\n")
        for (gi, gj), s, e in zip(pairs.pair_ids, pairs.structural, pairs.embedding):
            fh.write(f"{gi},{gj},{s:.17g},{e:.17g}\n")

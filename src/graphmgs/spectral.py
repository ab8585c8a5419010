"""Graph Laplacians, their eigenvalues, and eigenvalue fingerprints."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import LabeledGraph

COMBINATORIAL = "combinatorial"
SYM_NORMALIZED = "sym_normalized"
LAPLACIAN_KINDS = (COMBINATORIAL, SYM_NORMALIZED)


@dataclass(frozen=True)
class LaplacianMatrix:
    kind: str
    matrix: np.ndarray


@dataclass(frozen=True)
class SpectralFingerprint:
    """Top-k Laplacian eigenvalues, descending, zero-padded when the graph
    has fewer than k nodes."""

    eigenvalues: tuple[float, ...]
    k: int


def laplacian(g: LabeledGraph, kind: str = COMBINATORIAL) -> LaplacianMatrix:
    """Dense Laplacian: D - A, or I - D^{-1/2} A D^{-1/2} (isolated nodes get
    a zero D^{-1/2} entry, leaving the identity term)."""
    if kind not in LAPLACIAN_KINDS:
        raise DataError(f"unknown laplacian kind {kind!r}")
    if g.node_count < 1:
        raise DataError(f"graph {g.id!r}: laplacian needs at least one node")
    a = g.adjacency()
    deg = g.degrees().astype(np.float64)
    if kind == COMBINATORIAL:
        return LaplacianMatrix(kind, np.diag(deg) - a)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    lap = np.eye(g.node_count) - (dinv[:, None] * a) * dinv[None, :]
    return LaplacianMatrix(kind, lap)


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a finite symmetric matrix, ascending (LAPACK via
    ``np.linalg.eigvalsh``, which reads only the lower triangle)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DataError(f"eigensolver: expected square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError("eigensolver: matrix has non-finite entries")
    if m.size and float(np.max(np.abs(m - m.T))) > 1e-10:
        raise DataError("eigensolver: matrix is not symmetric within 1e-10")
    return np.linalg.eigvalsh(m)


def spectral_fingerprint(g: LabeledGraph, k: int,
                         kind: str = COMBINATORIAL) -> SpectralFingerprint:
    """k largest Laplacian eigenvalues, descending; negatives within roundoff
    are clamped to zero."""
    if k < 1:
        raise DataError(f"spectral fingerprint: k must be >= 1, got {k}")
    lap = laplacian(g, kind)
    eig = symmetric_eigenvalues(lap.matrix)
    top = np.maximum(eig[::-1][:k], 0.0)
    values = list(top) + [0.0] * (k - len(top))
    return SpectralFingerprint(eigenvalues=tuple(float(v) for v in values), k=k)

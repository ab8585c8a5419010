"""The combinatorial Laplacian D - A, its eigenvalues, and eigenvalue fingerprints: the
``spectral`` scheme of ``fingerprints.SCHEMES`` (Wilson & Zhu, Pattern Recognition 2008),
whose distance oracle is in ``tests/spec.py``; and the encoders' ``normalized_adjacency``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DataError, check_int
from .graphs import LabeledGraph

COMBINATORIAL = "combinatorial"
LAPLACIAN_KINDS = (COMBINATORIAL,)
SPECTRAL = "spectral"


@dataclass(frozen=True)
class SpectralFingerprint:
    """Top-k Laplacian eigenvalues, descending, zero-padded when the graph
    has fewer than k nodes; k is their count, and ``params`` are the settings
    that made it.  The eigenvalues are kept as a tuple of floats, whatever
    sequence of real numbers they are given as, so that equal fingerprints
    compare and hash equal."""

    eigenvalues: tuple[float, ...]
    params: tuple[tuple[str, object], ...] = ()
    scheme: ClassVar[str] = SPECTRAL

    def __post_init__(self):
        try:  # a value that is not a real number is not a finite eigenvalue
            ok = len(self.eigenvalues) > 0 and all(map(math.isfinite, self.eigenvalues))
        except TypeError:
            ok = False
        if not ok:
            raise DataError("spectral fingerprint: expected at least one eigenvalue, all "
                            f"finite, not {self.eigenvalues!r}")
        object.__setattr__(self, "eigenvalues", tuple(map(float, self.eigenvalues)))

    @property
    def kind(self) -> tuple:
        return self.scheme, self.params, len(self.eigenvalues)


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """D^{-1/2} A D^{-1/2} of a dense symmetric matrix A whose row sums are D;
    a row of zero degree (an isolated node) stays zero."""
    deg = a.sum(axis=1)
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return (dinv[:, None] * a) * dinv[None, :]


def laplacian(g: LabeledGraph) -> np.ndarray:
    """Dense combinatorial Laplacian D - A."""
    if g.node_count < 1:
        raise DataError(f"graph {g.id!r}: laplacian needs at least one node")
    return np.diag(g.degrees().astype(np.float64)) - g.adjacency()


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
    are clamped to zero.  ``kind`` must be ``COMBINATORIAL``; it is kept in ``params``."""
    check_int("spectral fingerprint: k", k, 1)
    if kind not in LAPLACIAN_KINDS:
        raise DataError(f"unknown laplacian kind {kind!r}")
    eig = symmetric_eigenvalues(laplacian(g))
    top = np.maximum(eig[::-1][:k], 0.0)
    values = list(top) + [0.0] * (k - len(top))
    return SpectralFingerprint(eigenvalues=values, params=(("k", k), ("kind", kind)))

"""Scalar specifications: the definitions the batch engines of ``graphmgs``
are tested against, one value at a time in plain Python."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(ints, start: int = _FNV_OFFSET) -> int:
    """FNV-1a over the 8-byte little-endian encoding of each integer, from
    the state ``start``, by default the offset basis."""
    h = start
    for value in ints:
        v = value & _MASK64
        for _ in range(8):
            h ^= v & 0xFF
            h = (h * _FNV_PRIME) & _MASK64
            v >>= 8
    return h


def splitmix64(state: int):
    """One splitmix64 draw; returns (value, next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def neighbors(g) -> list[list[int]]:
    """Each node's neighbours, in edge order."""
    adj: list[list[int]] = [[] for _ in range(g.node_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def scaled_laplacian(g) -> list[list[float]]:
    """ChebNet's operator L_sym - I = -D^{-1/2} A D^{-1/2}, entry by entry:
    -1 / sqrt(d_i d_j) at both (i, j) and (j, i) of each edge, 0 elsewhere, so
    an isolated node's row and column are 0."""
    deg = [len(adj) for adj in neighbors(g)]
    out = [[0.0] * g.node_count for _ in range(g.node_count)]
    for u, v in g.edges:
        out[u][v] = out[v][u] = -1.0 / math.sqrt(deg[u] * deg[v])
    return out


def permuted(g, perm):
    """``g`` with its nodes relabelled so that old node i becomes node perm[i]:
    attributes and node labels move with their nodes, and the edges, with their
    attributes, are renamed and sorted again."""
    perm = list(map(int, perm))  # a graph's node ids are ints, not numpy integers
    assert sorted(perm) == list(range(g.node_count))

    def moved(values):
        out = [None] * g.node_count
        for i, value in enumerate(values):
            out[perm[i]] = value
        return tuple(out)

    edges = sorted((tuple(sorted((perm[u], perm[v]))), attrs)
                   for (u, v), attrs in zip(g.edges, g.edge_attrs))
    return dataclasses.replace(
        g, edges=tuple(e for e, _ in edges), edge_attrs=tuple(a for _, a in edges),
        node_attrs=moved(g.node_attrs),
        node_labels=None if g.node_labels is None else moved(g.node_labels))


def popcount(fp) -> int:
    """The set bits of a bit fingerprint."""
    return int(np.count_nonzero(fp.bits))


def tanimoto(f_i, f_j) -> float:
    """Intersection over union of set bits; two all-zero vectors count as 1.0."""
    common = int(np.count_nonzero(f_i.bits & f_j.bits))
    total = popcount(f_i) + popcount(f_j)
    if total == 0:
        return 1.0
    return common / (total - common)


def spectral_distance(l_i, l_j) -> float:
    """Squared Euclidean distance between two eigenvalue fingerprints."""
    a = np.asarray(l_i.eigenvalues)
    b = np.asarray(l_j.eigenvalues)
    return float(np.sum((a - b) ** 2))


def structural(fp_i, fp_j) -> float:
    """Tanimoto of two bit fingerprints, negated spectral distance of two
    eigenvalue fingerprints."""
    if hasattr(fp_i, "eigenvalues"):
        return -spectral_distance(fp_i, fp_j)
    return tanimoto(fp_i, fp_j)


def cosine(h_i, h_j) -> float:
    """Cosine of the angle between two vectors."""
    a = np.asarray(h_i, dtype=np.float64).reshape(-1)
    b = np.asarray(h_j, dtype=np.float64).reshape(-1)
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def sample_pairs(count: int, n_pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n_pairs distinct unordered index pairs, uniform without replacement: the
    sorted draw of ``n_pairs`` positions of ``np.triu_indices(count, 1)``."""
    rows, cols = np.triu_indices(count, k=1)
    pick = np.random.default_rng(seed).choice(len(rows), size=n_pairs, replace=False)
    pick.sort()
    return rows[pick], cols[pick]


def _edge_code(attrs: tuple[int, ...]) -> int:
    return fnv1a64((len(attrs), *attrs))


def atom_invariants(g) -> list[int]:
    """Per-node 64-bit hash of (node attrs, degree, multiset of incident edge codes)."""
    deg = g.degrees()
    incident: list[list[int]] = [[] for _ in range(g.node_count)]
    for (u, v), eattr in zip(g.edges, g.edge_attrs):
        code = _edge_code(eattr)
        incident[u].append(code)
        incident[v].append(code)
    out = []
    for v in range(g.node_count):
        attrs = g.node_attrs[v]
        out.append(fnv1a64((len(attrs), *attrs, int(deg[v]), *sorted(incident[v]))))
    return out


def _bond_codes(g) -> dict[tuple[int, int], int]:
    codes = {}
    for (u, v), eattr in zip(g.edges, g.edge_attrs):
        code = _edge_code(eattr)
        codes[(u, v)] = code
        codes[(v, u)] = code
    return codes


def morgan_reference(g, radius: int = 2, nbits: int = 2048) -> np.ndarray:
    """Circular fingerprint bits of one graph, atom by atom: iteratively hash
    each atom's neighborhood out to ``radius`` bonds; duplicate environments
    (same atom set) keep the earliest round's identifier, ties the smallest;
    one bit per surviving identifier."""
    bits = np.zeros(nbits, dtype=bool)
    ids = atom_invariants(g)
    bonds = _bond_codes(g)
    adj = neighbors(g)
    envs = [frozenset((v,)) for v in range(g.node_count)]

    # environment atom set -> (round, identifier); earliest round wins,
    # smallest identifier breaks same-round ties (order-free, so the result
    # is invariant under node relabeling)
    chosen: dict[frozenset, tuple[int, int]] = {}

    def offer(env: frozenset, rnd: int, ident: int) -> None:
        prev = chosen.get(env)
        if prev is None or (rnd, ident) < prev:
            chosen[env] = (rnd, ident)

    for v in range(g.node_count):
        offer(envs[v], 0, ids[v])
    for rnd in range(1, radius + 1):
        new_ids = []
        new_envs = []
        for v in range(g.node_count):
            pairs = sorted((bonds[(v, u)], ids[u]) for u in adj[v])
            flat = [rnd, ids[v]]
            for bond, nid in pairs:
                flat.extend((bond, nid))
            ident = fnv1a64(flat)
            env = envs[v].union(*(envs[u] for u in adj[v])) if adj[v] else envs[v]
            new_ids.append(ident)
            new_envs.append(env)
            offer(env, rnd, ident)
        ids = new_ids
        envs = new_envs
    for _, ident in chosen.values():
        bits[ident % nbits] = True
    return bits

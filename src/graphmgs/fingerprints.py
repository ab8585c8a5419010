"""Molecular bit-vector fingerprints: path-based topological and circular (Morgan).

All hashing is fixed 64-bit FNV-1a over canonical integer sequences, with
splitmix64 expanding a feature hash into bit indices, so fingerprints are
deterministic across runs and platforms.  The scalar ``fnv1a64`` and
``splitmix64`` are the reference spec; ``fnv1a64_rows`` and
``splitmix64_rows`` compute the same values over numpy uint64 arrays.

Topological path features (after Rogers & Hahn, "Extended-Connectivity
Fingerprints", JCIM 2010) come from a frontier engine.  Per graph it builds
CSR neighbour arrays and dense n×n adjacency and bond-code tables once.  The
frontier for path length k is a (rows, k + 1) array of every directed simple
path with k edges; each length is hashed as one batch, then extended by every
neighbour of the last node that is not already on the path.  The next
frontier is counted before it is built, so a graph over
``MAX_PATHS_PER_GRAPH`` fails before the costly lengths; the work runs in
blocks of ``PATH_BLOCK_ROWS`` rows, so the copies it makes stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import LabeledGraph

TOPOLOGICAL = "topological"
MORGAN = "morgan"

MAX_PATHS_PER_GRAPH = 10 ** 6
PATH_BLOCK_ROWS = 1024  # frontier rows per numpy batch; bounds the transient copies

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(ints) -> int:
    """FNV-1a over the 8-byte little-endian encoding of each integer."""
    h = _FNV_OFFSET
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


def fnv1a64_rows(codes: np.ndarray) -> np.ndarray:
    """``fnv1a64`` of each row of a (rows, k) uint64 array."""
    octets = np.ascontiguousarray(codes, dtype="<u8").view(np.uint8)
    h = np.full(len(octets), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for column in octets.T:
        h ^= column
        h *= prime
    return h


def splitmix64_rows(state: np.ndarray):
    """``splitmix64`` of each element of a uint64 array; returns (values, next_states)."""
    state = state + np.uint64(0x9E3779B97F4A7C15)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31)), state


@dataclass(frozen=True)
class BitFingerprint:
    bits: np.ndarray  # bool vector, length a power of two
    scheme: str
    params: tuple[tuple[str, int], ...]

    def __post_init__(self):
        n = len(self.bits)
        if n == 0 or (n & (n - 1)) != 0:
            raise DataError(f"fingerprint length {n} is not a power of two")

    @property
    def nbits(self) -> int:
        return len(self.bits)

    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))

    def to_hex(self) -> str:
        return bytes(np.packbits(self.bits.astype(np.uint8))).hex()

    @classmethod
    def from_hex(cls, hex_bits: str, nbits: int, scheme: str, params) -> "BitFingerprint":
        raw = np.frombuffer(bytes.fromhex(hex_bits), dtype=np.uint8)
        bits = np.unpackbits(raw)[:nbits].astype(bool)
        return cls(bits=bits, scheme=scheme, params=tuple(params))


def _edge_code(attrs: tuple[int, ...]) -> int:
    return fnv1a64((len(attrs), *attrs))


def atom_invariants(g: LabeledGraph) -> list[int]:
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


def _bond_codes(g: LabeledGraph) -> dict[tuple[int, int], int]:
    codes = {}
    for (u, v), eattr in zip(g.edges, g.edge_attrs):
        code = _edge_code(eattr)
        codes[(u, v)] = code
        codes[(v, u)] = code
    return codes


def _path_node_codes(g: LabeledGraph) -> list[int]:
    """Per-node hash of the node attributes alone.  Path features must not
    depend on degrees, otherwise adding an edge elsewhere would rewrite the
    encodings of untouched paths (bits could be cleared instead of OR-ed)."""
    return [fnv1a64((len(attrs), *attrs)) for attrs in g.node_attrs]


def topological_fingerprint(g: LabeledGraph, max_path_len: int = 7,
                            nbits: int = 2048,
                            bits_per_feature: int = 2) -> BitFingerprint:
    """Hash every simple path of 1..max_path_len edges into the bit vector.

    A path is canonicalized as the lexicographically smaller of its two
    directional encodings (alternating attribute-only node codes and bond
    codes); the canonical hash seeds splitmix64, which picks
    ``bits_per_feature`` indices.  More than ``MAX_PATHS_PER_GRAPH`` paths
    raise ``DataError``.
    """
    if max_path_len < 1 or bits_per_feature < 1:
        raise DataError("topological fingerprint: max_path_len and bits_per_feature must be >= 1")
    # built first, so a bad nbits fails before any path is enumerated
    fp = BitFingerprint(bits=np.zeros(nbits, dtype=bool), scheme=TOPOLOGICAL,
                        params=(("max_path_len", max_path_len),
                                ("nbits", nbits),
                                ("bits_per_feature", bits_per_feature)))
    n = g.node_count
    u, v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = adj[v, u] = True
    bond = np.zeros((n, n), dtype=np.uint64)
    bond[u, v] = bond[v, u] = np.array([_edge_code(a) for a in g.edge_attrs], dtype=np.uint64)
    node_code = np.array(_path_node_codes(g), dtype=np.uint64)
    # row-major nonzeros are the CSR neighbour lists, node by node
    src, nbr = np.nonzero(adj)
    deg = adj.sum(axis=1)
    indptr = np.concatenate([[0], np.cumsum(deg)])

    # frontier of directed simple paths with k edges, one int32 row of k + 1
    # nodes each (half the memory of intp on large frontiers); every
    # undirected path appears twice, and the copy with path[0] < path[-1] is
    # the one hashed
    paths = np.stack([src, nbr], axis=1).astype(np.int32)
    total = g.edge_count
    _check_path_count(g, total)
    for k in range(1, max_path_len + 1):
        for block in _row_blocks(paths):
            _set_path_bits(fp.bits, block[block[:, 0] < block[:, -1]], node_code, bond,
                           bits_per_feature)
        if k == max_path_len:
            break
        # count the next frontier before building it
        grown = sum(int((deg[block[:, -1]] - adj[block[:, -1:], block].sum(1)).sum())
                    for block in _row_blocks(paths))
        if not grown:
            break
        total += grown // 2
        _check_path_count(g, total)
        longer = np.empty((grown, k + 2), dtype=paths.dtype)
        filled = 0
        for block in _row_blocks(paths):
            filled += _extend_paths(block, indptr, nbr, longer[filled:])
        paths = longer
    return fp


def _check_path_count(g: LabeledGraph, total: int) -> None:
    if total > MAX_PATHS_PER_GRAPH:
        raise DataError(f"graph {g.id!r}: more than {MAX_PATHS_PER_GRAPH} simple paths")


def _row_blocks(paths: np.ndarray):
    for lo in range(0, len(paths), PATH_BLOCK_ROWS):
        yield paths[lo:lo + PATH_BLOCK_ROWS]


def _extend_paths(paths: np.ndarray, indptr: np.ndarray, nbr: np.ndarray,
                  out: np.ndarray) -> int:
    """Write every simple path that continues a row of ``paths`` by one edge
    to the first rows of ``out``; return how many rows were written."""
    last = paths[:, -1]
    start = indptr[last]
    count = indptr[last + 1] - start
    row = np.repeat(np.arange(len(paths)), count)
    # offset of each candidate within its row's neighbour list, plus the list start
    slot = np.arange(len(row)) + np.repeat(start - (np.cumsum(count) - count), count)
    nxt = nbr[slot]
    keep = (paths[row] != nxt[:, None]).all(axis=1)
    kept = int(keep.sum())
    out[:kept, :-1] = paths[row[keep]]
    out[:kept, -1] = nxt[keep]
    return kept


def _set_path_bits(bits: np.ndarray, paths: np.ndarray, node_code: np.ndarray,
                   bond: np.ndarray, bits_per_feature: int) -> None:
    """Hash each path's canonical encoding into ``bits``."""
    rows = np.arange(len(paths))
    forward = np.empty((len(paths), 2 * paths.shape[1] - 1), dtype=np.uint64)
    forward[:, 0::2] = node_code[paths]
    forward[:, 1::2] = bond[paths[:, :-1], paths[:, 1:]]
    backward = forward[:, ::-1]
    # the first column where the directions differ decides; a palindrome
    # differs nowhere, argmax gives column 0 and forward is kept
    first = (forward != backward).argmax(axis=1)
    flip = backward[rows, first] < forward[rows, first]
    forward[flip] = backward[flip]
    state = fnv1a64_rows(forward)
    for _ in range(bits_per_feature):
        draw, state = splitmix64_rows(state)
        bits[draw % np.uint64(len(bits))] = True


def morgan_fingerprint(g: LabeledGraph, radius: int = 2,
                       nbits: int = 2048) -> BitFingerprint:
    """Circular fingerprint: iteratively hash each atom's neighborhood out to
    ``radius`` bonds; duplicate environments (same atom set) keep the earliest
    round's identifier, ties the smallest; one bit per surviving identifier."""
    if radius < 0:
        raise DataError("morgan fingerprint: radius must be >= 0")
    bits = np.zeros(nbits, dtype=bool)
    ids = atom_invariants(g)
    bonds = _bond_codes(g)
    adj = g.neighbors()
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
    return BitFingerprint(bits=bits, scheme=MORGAN,
                          params=(("radius", radius), ("nbits", nbits)))


def make_fingerprints(corpus, scheme: str, **params) -> dict[str, BitFingerprint]:
    """Fingerprint every graph in a corpus with one bit scheme."""
    if scheme == TOPOLOGICAL:
        return {g.id: topological_fingerprint(g, **params) for g in corpus}
    if scheme == MORGAN:
        return {g.id: morgan_fingerprint(g, **params) for g in corpus}
    raise DataError(f"unknown bit-fingerprint scheme {scheme!r}")

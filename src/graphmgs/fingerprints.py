"""Molecular bit-vector fingerprints: path-based topological and circular (Morgan).

All hashing is fixed 64-bit FNV-1a over canonical integer sequences, with
splitmix64 expanding a feature hash into bit indices, so fingerprints are
deterministic across runs and platforms.  The scalar ``fnv1a64`` and
``splitmix64`` are the reference spec; ``fnv1a64_rows`` and
``splitmix64_rows`` compute the same values over numpy uint64 arrays.

Topological path features (after Rogers & Hahn, "Extended-Connectivity
Fingerprints", JCIM 2010) come from one engine, ``topological_fingerprints``,
that walks the simple paths of a whole batch of graphs together; a single
graph is a batch of one.  Nodes are renumbered to global rows of the batch and
one CSR lists its directed edge slots, each with a head node, a tail node and
a bond code; node and bond codes are hashed once per batch.  A path of k edges
is a row of k slots, and a block is an int32 array of such rows from any
graphs of the batch.  The walk is depth-first: it extends the next rows of the
deepest block whose continuations fit in ``PATH_BLOCK_ROWS`` rows, hashes the
canonical rows of the new block into one (graphs, nbits) bit matrix, adds them
to each graph's running total and descends.  At most one block per path
length is alive, so beyond the CSR itself (whose slots are the 1-edge paths)
memory is O(max_path_len × PATH_BLOCK_ROWS) whatever the batch size or a
graph's path count; a breadth-first frontier of every k-edge path would grow
with both.  ``MAX_PATHS_PER_GRAPH`` caps each graph on its
own: the walk raises as soon as one graph's running total passes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import LabeledGraph

TOPOLOGICAL = "topological"
MORGAN = "morgan"

MAX_PATHS_PER_GRAPH = 10 ** 6
PATH_BLOCK_ROWS = 32768  # path rows per block of the depth-first walk; bounds its memory

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


def _attr_codes(rows) -> np.ndarray:
    """``fnv1a64((len(a), *a))`` of each attribute tuple, one batch per tuple length."""
    codes = np.empty(len(rows), dtype=np.uint64)
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    for width in np.unique(widths).tolist():
        at = np.flatnonzero(widths == width)
        table = np.array([(width, *(v & _MASK64 for v in rows[i])) for i in at], dtype=np.uint64)
        codes[at] = fnv1a64_rows(table.reshape(len(at), width + 1))
    return codes


def topological_fingerprint(g: LabeledGraph, max_path_len: int = 7,
                            nbits: int = 2048,
                            bits_per_feature: int = 2) -> BitFingerprint:
    """The fingerprint of one graph: ``topological_fingerprints`` of a batch of one."""
    return topological_fingerprints([g], max_path_len, nbits, bits_per_feature)[0]


def topological_fingerprints(graphs, max_path_len: int = 7, nbits: int = 2048,
                             bits_per_feature: int = 2) -> list[BitFingerprint]:
    """Hash every simple path of 1..max_path_len edges of each graph of the
    batch into that graph's bit vector; returns one fingerprint per graph.

    The paths of all graphs are walked together (see the module docstring):
    a block holds paths of one length from any graphs, one row of directed
    edge slots each, and depth-first order keeps one block per length alive.
    A path is canonicalized as the lexicographically smaller of its two
    directional encodings (alternating attribute-only node codes and bond
    codes); the canonical hash seeds splitmix64, which picks
    ``bits_per_feature`` indices.  The cap is per graph: the first graph whose
    running path count passes ``MAX_PATHS_PER_GRAPH`` raises ``DataError``
    naming it, however many paths the batch holds in all.
    """
    if max_path_len < 1 or bits_per_feature < 1:
        raise DataError("topological fingerprint: max_path_len and bits_per_feature must be >= 1")
    params = (("max_path_len", max_path_len), ("nbits", nbits),
              ("bits_per_feature", bits_per_feature))
    # built first, so a bad nbits fails before any path is enumerated
    BitFingerprint(bits=np.zeros(nbits, dtype=bool), scheme=TOPOLOGICAL, params=params)
    graphs = list(graphs)
    bits = np.zeros((len(graphs), nbits), dtype=bool)
    sizes = [g.node_count for g in graphs]
    owner = np.repeat(np.arange(len(graphs)), sizes)
    ends = np.array([(u + lo, v + lo) for g, lo in zip(graphs, np.cumsum([0] + sizes).tolist())
                     for u, v in g.edges], dtype=np.intp).reshape(-1, 2)
    # directed edge slots in order of their head node, the batch's CSR: slot s
    # runs from head[s] to tail[s] over a bond with code bond[s]
    directed = np.concatenate([ends, ends[:, ::-1]])
    order = np.argsort(directed[:, 0], kind="stable")
    head, tail = directed[order].T.copy()
    bond = np.tile(_attr_codes([a for g in graphs for a in g.edge_attrs]), 2)[order]
    # node codes hash the attributes alone: with degrees in them, adding an edge
    # elsewhere would rewrite the encodings of untouched paths and clear bits
    node_code = _attr_codes([a for g in graphs for a in g.node_attrs])
    deg = np.bincount(head, minlength=len(owner))
    indptr = np.concatenate([[0], np.cumsum(deg)])
    head_code, tail_code = node_code[head], node_code[tail]
    totals = np.zeros(len(graphs), dtype=np.int64)
    # depth first over blocks of k-edge paths, one int32 row of k slots each.
    # An entry holds a block, the running count of its rows' continuations
    # (from 0) and the rows extended so far; each step extends the next rows
    # whose continuations fit in PATH_BLOCK_ROWS, so the stack holds fewer
    # than max_path_len blocks whatever the batch size or the path count.
    stack = []

    def push(paths: np.ndarray) -> None:
        # every undirected path appears twice; the copy whose first node is
        # below its last is counted and hashed
        canonical = paths[head[paths[:, 0]] < tail[paths[:, -1]]]
        graph = owner[head[canonical[:, 0]]]
        totals[:] += np.bincount(graph, minlength=len(graphs))
        over = np.flatnonzero(totals > MAX_PATHS_PER_GRAPH)
        if len(over):
            raise DataError(f"graph {graphs[over[0]].id!r}: "
                            f"more than {MAX_PATHS_PER_GRAPH} simple paths")
        _set_path_bits(bits, graph, canonical, head_code, tail_code, bond, bits_per_feature)
        if paths.shape[1] < max_path_len:
            # the edge back to the previous node never continues a simple path
            reach = np.concatenate([[0], np.cumsum(deg[tail[paths[:, -1]]] - 1)])
            stack.append([paths, reach, 0])

    push(np.arange(len(head), dtype=np.int32)[:, None])
    while stack:
        top = stack[-1]
        paths, reach, lo = top
        if lo == len(paths):
            stack.pop()
            continue
        # at least one row, even when its continuations alone exceed the block
        hi = max(lo + 1, int(np.searchsorted(reach, reach[lo] + PATH_BLOCK_ROWS, "right")) - 1)
        top[2] = hi
        longer = _extend_paths(paths[lo:hi], indptr, head, tail)
        if len(longer):
            push(longer)
    return [BitFingerprint(bits=row, scheme=TOPOLOGICAL, params=params) for row in bits]


def _extend_paths(paths: np.ndarray, indptr: np.ndarray, head: np.ndarray,
                  tail: np.ndarray) -> np.ndarray:
    """Every simple path that continues a row of ``paths`` by one more slot."""
    last = tail[paths[:, -1]]
    start = indptr[last]
    count = indptr[last + 1] - start
    row = np.repeat(np.arange(len(paths)), count)
    # offset of each candidate within its row's slot list, plus the list start
    slot = np.arange(len(row)) + np.repeat(start - (np.cumsum(count) - count), count)
    nxt = tail[slot]
    # column by column, since a (candidates, k + 1) comparison reduced along
    # its short rows costs more; the last node is never its own neighbour
    keep = head[paths[row, 0]] != nxt
    for column in paths.T[:-1]:
        keep &= tail[column[row]] != nxt
    out = np.empty((int(keep.sum()), paths.shape[1] + 1), dtype=paths.dtype)
    out[:, :-1] = paths[row[keep]]
    out[:, -1] = slot[keep]
    return out


def _set_path_bits(bits: np.ndarray, graph: np.ndarray, paths: np.ndarray,
                   head_code: np.ndarray, tail_code: np.ndarray, bond: np.ndarray,
                   bits_per_feature: int) -> None:
    """Hash the canonical encoding of each path into its graph's row of ``bits``."""
    rows = np.arange(len(paths))
    forward = np.empty((len(paths), 2 * paths.shape[1] + 1), dtype=np.uint64)
    forward[:, 0] = head_code[paths[:, 0]]
    forward[:, 1::2] = bond[paths]
    forward[:, 2::2] = tail_code[paths]
    backward = forward[:, ::-1]
    # the first column where the directions differ decides; a palindrome
    # differs nowhere, argmax gives column 0 and forward is kept
    first = (forward != backward).argmax(axis=1)
    flip = backward[rows, first] < forward[rows, first]
    forward[flip] = backward[flip]
    state = fnv1a64_rows(forward)
    for _ in range(bits_per_feature):
        draw, state = splitmix64_rows(state)
        bits[graph, draw % np.uint64(bits.shape[1])] = True


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
        graphs = list(corpus)
        return dict(zip((g.id for g in graphs), topological_fingerprints(graphs, **params)))
    if scheme == MORGAN:
        return {g.id: morgan_fingerprint(g, **params) for g in corpus}
    raise DataError(f"unknown bit-fingerprint scheme {scheme!r}")

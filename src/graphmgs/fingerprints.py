"""Fingerprints.  ``SCHEMES`` maps the three scheme names to their engines:
path-based ``topological`` and circular ``morgan`` bits (below) and
``spectral`` eigenvalues (``spectral.py``); ``make_fingerprints`` serves all
three.  A fingerprint's ``kind``, (scheme, params, nbits or k), says what it
can be compared with (``similarity.check_comparable``).

All hashing is fixed 64-bit FNV-1a over canonical integer sequences, with
splitmix64 expanding a feature hash into bit indices, so fingerprints are
deterministic across runs and platforms.  ``fnv1a64_rows`` hashes a batch of
sequences in one call, whole rows of a table or ragged rows of one flat
array, each from the offset basis or from a given state, and
``splitmix64_rows`` draws for a batch of states; the scalar specifications
they are tested against live with the tests.

Each bit scheme has one engine that fingerprints a whole batch of graphs; a
single graph is a batch of one, and a graph's bits never depend on the rest
of its batch.  Both engines renumber the batch's nodes to global rows and
build one CSR of its directed edge slots, each with a head node, a tail node
and a bond code; node and bond attributes are hashed once per batch.

Topological path features (after Rogers & Hahn, "Extended-Connectivity
Fingerprints", JCIM 2010) come from ``topological_fingerprints``, which walks
the simple paths of the batch together.  A path of k edges is a row of k
slots, and a block holds rows of one length from any graphs of the batch,
column-major: a (k, rows) int32 table whose column j is slot j of every row,
so extending a block copies its columns with one ``take`` and the path ends
are contiguous.  With each row go the FNV-1a state of its forward encoding
and its signature, a uint64 with bit ``i & 63`` set for each node on the
path, i being the node's index within its graph.  A 1-edge row hashes its
(head code, bond, tail code) once; a longer row continues the state of the
row it extends over the (bond, tail code) of its new slot, so an extension
hashes two codes, not its whole path, and each by lookup: FNV-1a over a code
c from the state h is h·P^8 + C(h & 255, c) mod 2^64, P the FNV prime, since
XOR with a byte changes only the state's low byte and a product's low byte
depends only on its factors' low bytes.  ``_step_tables`` gives each distinct
node or bond code of the batch its C for all 256 low bytes, 2 KiB per code
(6 KiB while built), so a step over a code is one multiply and two gathers,
not 8 byte steps.  A row's candidate extensions are its
last node's slots but the one back over its last edge, which ``rev`` (the
slot of each edge's other direction, built once per batch) skips by index
arithmetic, so a row ending at node v has deg(v) - 1 candidates.  A
candidate whose node's bit is clear in the signature is kept, and the new
row's signature is its parent's with that bit set, so a candidate costs
O(1), not O(path length).  In a graph of at most 64 nodes every node has
its own bit and the test is exact; in a larger one a set bit may be another
node's, and only such a hit is checked against the row's slots.  Each
undirected path is two directed rows, and the one hashed is the row whose
forward encoding is lexicographically below its reverse (of a palindrome,
the row whose first node is below its last), so its state is the hash of the
smaller encoding.  The walk is depth-first: it extends the next rows of the
deepest block whose continuations fit in ``PATH_BLOCK_ROWS`` rows, hashes
the canonical rows of the new block into one (graphs, nbits) bit matrix,
adds them to each graph's running total and descends.  At most one block per
path length is alive, so beyond the CSR and ``rev`` (O(edges); their slots
are the 1-edge paths) memory is O(max_path_len × PATH_BLOCK_ROWS) rows, each
4 bytes per slot plus 16 bytes of state and signature, whatever the batch
size or a graph's path count; a breadth-first frontier of every k-edge path
would grow with both.  ``MAX_PATHS_PER_GRAPH`` caps each graph on its own:
the walk raises as soon as one graph's running total passes it.

Circular (Morgan) features come from ``morgan_fingerprints``.  Each round
hashes one sequence per atom, in a few ``fnv1a64_rows`` calls that each
continue the states of the last: round 0 continues the atom's attribute
code over its degree and then over its sorted incident bond codes, and
round r hashes r and the atom's previous identifier and continues over its
(bond, neighbour identifier) pairs, put in order by one ``lexsort`` of the
slots.  The ragged parts are flat, so a hub's long row costs its own
length, not that length for every atom.  An atom's environment at round
r is its radius-r ball, kept as a packed bitset row: a round's balls OR each
neighbour's previous row in along the slots.  One ``lexsort`` over (graph,
ball, round, identifier) keeps the first identifier of each distinct ball of
a graph, and one fancy-index write sets the bits.  Ball rows are padded to
the largest graph of a run of consecutive graphs, so a run of N nodes holds
N·⌈n_max/8⌉ bytes for each of the radius + 1 rounds; gathering neighbour rows
and the sorted copy add about twice that again.  Runs are cut so that a
round takes at most ``BALL_BLOCK_BYTES``, unless one graph needs more on its
own, so a large graph pads only the small graphs of its own run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_int
from .graphs import LabeledGraph
from .spectral import SPECTRAL, spectral_fingerprint

TOPOLOGICAL = "topological"
MORGAN = "morgan"

MAX_PATHS_PER_GRAPH = 10 ** 6
PATH_BLOCK_ROWS = 32768  # path rows per block of the depth-first walk; bounds its memory
BALL_BLOCK_BYTES = 1 << 20  # ball bitset bytes per round of one Morgan run; bounds its memory

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_PRIME_8 = np.uint64(pow(_FNV_PRIME, 8, 1 << 64))  # one code is 8 byte steps


def fnv1a64_rows(codes: np.ndarray, lengths=None, start=None) -> np.ndarray:
    """64-bit FNV-1a of each row of codes, over the 8-byte little-endian
    encoding of each code.

    ``codes`` is a (rows, k) uint64 array, or, with ``lengths``, a flat
    uint64 array that holds the rows one after another: row i is the next
    ``lengths[i]`` codes.  Row i continues from the state ``start[i]``, by
    default the FNV offset basis, so hashing the tail of a sequence from the
    state of its head gives the hash of the whole; a row of no codes hashes
    to its start.  Ragged rows are hashed longest first, so the rows that
    reach code j are a prefix of that order and code j of all of them is one
    gather."""
    if lengths is None:
        octets = np.ascontiguousarray(codes, dtype="<u8").view(np.uint8)
        h = (np.full(len(octets), _FNV_OFFSET, dtype=np.uint64) if start is None
             else np.array(start, dtype=np.uint64))
        columns = (octets[:, j:j + 8] for j in range(0, octets.shape[1], 8))
    else:
        lengths = np.asarray(lengths, dtype=np.intp)
        order = np.argsort(-lengths, kind="stable")
        starts = (np.cumsum(lengths) - lengths)[order]
        h = (np.full(len(lengths), _FNV_OFFSET, dtype=np.uint64) if start is None
             else np.asarray(start, dtype=np.uint64)[order])
        flat = np.asarray(codes, dtype="<u8")
        # longer[j]: the rows longer than j
        longer = len(lengths) - np.cumsum(np.bincount(lengths))[:-1]
        columns = (flat[starts[:count] + j].view(np.uint8).reshape(count, 8)
                   for j, count in enumerate(longer.tolist()))
    prime = np.uint64(_FNV_PRIME)
    for column in columns:
        prefix = h[:len(column)]
        for octet in column.T:
            prefix ^= octet
            prefix *= prime
    if lengths is None:
        return h
    out = np.empty_like(h)
    out[order] = h
    return out


def splitmix64_rows(state: np.ndarray):
    """One splitmix64 draw from each state of a uint64 array; returns (values, next_states)."""
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
        bits = self.bits
        if not (isinstance(bits, np.ndarray) and bits.dtype == bool and bits.ndim == 1):
            raise DataError(f"fingerprint bits must be a 1-D bool array, not "
                            f"{getattr(bits, 'dtype', type(bits).__name__)} of shape "
                            f"{np.shape(bits)}")
        _check_nbits(len(bits))
        # a read-only copy: ==, hash and to_hex read fixed bits; the caller's array keeps its flags
        object.__setattr__(self, "bits", bits.copy())
        self.bits.flags.writeable = False

    @property
    def nbits(self) -> int:
        return len(self.bits)

    @property
    def kind(self) -> tuple:
        return self.scheme, self.params, self.nbits

    def to_hex(self) -> str:
        return bytes(np.packbits(self.bits.astype(np.uint8))).hex()

    def __eq__(self, other) -> bool:
        """Equal kind and equal bits; the dataclass's own ``==`` would compare
        the bit arrays elementwise and raise."""
        if not isinstance(other, BitFingerprint):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash((self.kind, self.bits.tobytes()))


def _check_nbits(nbits) -> None:
    check_int("fingerprint nbits", nbits, 1)
    if nbits & (nbits - 1):
        raise DataError(f"fingerprint length {nbits} is not a power of two")


def _attr_codes(rows) -> np.ndarray:
    """The FNV-1a hash of ``(len(a), *a)`` for each attribute tuple ``a``, in
    one call: each width is hashed as a row of one code, and its state is
    continued over the tuple's values, which enter as their 64-bit two's
    complement."""
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    values = np.fromiter((v & _MASK64 for a in rows for v in a), dtype=np.uint64,
                         count=int(widths.sum()))
    return fnv1a64_rows(values, widths, start=fnv1a64_rows(widths[:, None]))


def _batch_csr(graphs):
    """The CSR of a batch, its nodes renumbered to global rows: ``owner[v]``
    is the graph of node v and ``local[v]`` its index there, and slot s, in
    order of its head node, runs from ``head[s]`` to ``tail[s]`` over a bond
    with code ``bond[s]``, ``rev[s]`` being the slot back over its edge; the
    slots of node v are ``indptr[v]:indptr[v + 1]``."""
    sizes = np.fromiter((g.node_count for g in graphs), dtype=np.intp, count=len(graphs))
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(graphs)), sizes)
    local = np.arange(len(owner)) - starts[owner]
    edge_counts = np.fromiter((len(g.edges) for g in graphs), dtype=np.intp, count=len(graphs))
    m = int(edge_counts.sum())
    ends = np.fromiter((end for g in graphs for edge in g.edges for end in edge),
                       dtype=np.intp, count=2 * m).reshape(m, 2)
    ends += np.repeat(starts, edge_counts)[:, None]
    # directed rows i and i + m are the two directions of edge i
    directed = np.concatenate([ends, ends[:, ::-1]])
    partner = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
    order = np.argsort(directed[:, 0], kind="stable")
    slot_of = np.empty_like(order)
    slot_of[order] = np.arange(2 * m)
    rev = slot_of[partner[order]]
    head, tail = directed[order].T.copy()
    bond = np.tile(_attr_codes([a for g in graphs for a in g.edge_attrs]), 2)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(head, minlength=len(owner)))])
    return owner, local, head, tail, rev, bond, indptr


def topological_fingerprint(g: LabeledGraph, max_path_len: int = 7,
                            nbits: int = 2048,
                            bits_per_feature: int = 2) -> BitFingerprint:
    """The fingerprint of one graph: ``topological_fingerprints`` of a batch of one."""
    return topological_fingerprints([g], max_path_len, nbits, bits_per_feature)[0]


def topological_fingerprints(graphs, max_path_len: int = 7, nbits: int = 2048,
                             bits_per_feature: int = 2) -> list[BitFingerprint]:
    """Hash every simple path of 1..max_path_len edges of each graph of the
    batch into that graph's bit vector; returns one fingerprint per graph.

    The paths of all graphs are walked together, depth first over blocks of
    one path length (see the module docstring), so memory is O(max_path_len
    × PATH_BLOCK_ROWS) rows of 4 bytes per slot plus 16 bytes of FNV state
    and signature, plus O(edges) for the CSR and its ``rev`` slots.  A path
    is canonicalized as the lexicographically smaller of its two directional
    encodings (alternating attribute-only node codes and bond codes).  Each
    row continues its parent's FNV-1a state over two codes by lookup: FNV-1a
    over a code c from the state h is h·P^8 + C(h & 255, c) mod 2^64, read
    from a table of C that takes 2 KiB per distinct node or bond code.  A
    row's deg(last) - 1 candidates (not the slot back over its last edge)
    are each tested in O(1) against its node signature; only a hit on a node
    of a graph of more than 64 nodes, whose bit another node shares, is
    checked against the row's slots.  A path is hashed from its row whose
    forward encoding is the smaller one, or, for a palindrome, whose first
    node is below its last.  That hash seeds splitmix64, which picks
    ``bits_per_feature`` indices.  The cap is per graph: the first graph
    whose running path count passes ``MAX_PATHS_PER_GRAPH`` raises
    ``DataError`` naming it, however many paths the batch holds in all.
    """
    check_int("topological fingerprint: max_path_len", max_path_len, 1)
    check_int("topological fingerprint: bits_per_feature", bits_per_feature, 1)
    _check_nbits(nbits)
    params = (("max_path_len", max_path_len), ("nbits", nbits),
              ("bits_per_feature", bits_per_feature))
    graphs = list(graphs)
    bits = np.zeros(len(graphs) * nbits, dtype=bool)  # bit b of graph i is bits[i * nbits + b]
    owner, local, head, tail, rev, bond, indptr = _batch_csr(graphs)
    # node codes hash the attributes alone: with degrees in them, adding an edge
    # elsewhere would rewrite the encodings of untouched paths and clear bits
    node_code = _attr_codes([a for g in graphs for a in g.node_attrs])
    head_code, tail_code = node_code[head], node_code[tail]
    # a path continued over slot s hashes bond[s], then tail_code[s], by step_at[:, s]
    table, step_at = _step_tables(np.stack([bond, tail_code]))
    # per slot: its tail's first slot, and that tail's slots less the one back
    next_first, next_count = indptr[tail], np.diff(indptr)[tail] - 1
    # a node's signature bit is its index within its graph, mod 64; only in a
    # graph of more than 64 nodes can two nodes share it
    node_bit = np.uint64(1) << (local & 63).astype(np.uint64)
    shared = np.bincount(owner, minlength=len(graphs))[owner] > 64
    totals = np.zeros(len(graphs), dtype=np.int64)
    # depth first over blocks of k-edge paths, a (k, rows) int32 table of
    # slots each, with the FNV state of each row's forward codes and the
    # signature of its nodes.  An entry holds a block, its states and
    # signatures, the running count of its rows' continuations (from 0) and
    # the rows extended so far; each step extends the next rows whose
    # continuations fit in PATH_BLOCK_ROWS, so the stack holds fewer than
    # max_path_len blocks whatever the batch size or the path count.
    stack = []

    def push(paths: np.ndarray, state: np.ndarray, sig: np.ndarray) -> None:
        # every undirected path appears twice; the copy whose first node is
        # below its last is counted
        first = head.take(paths[0])
        graph = owner[first]
        counted = first < tail.take(paths[-1])
        totals[:] += np.bincount(graph[counted], minlength=len(graphs))
        over = np.flatnonzero(totals > MAX_PATHS_PER_GRAPH)
        if len(over):
            raise DataError(f"graph {graphs[over[0]].id!r}: "
                            f"more than {MAX_PATHS_PER_GRAPH} simple paths")
        hashed = _hashed_rows(paths, counted, head_code, tail_code, bond)
        base, draw_state = graph[hashed] * nbits, state[hashed]
        for _ in range(bits_per_feature):
            draw, draw_state = splitmix64_rows(draw_state)
            # draw % nbits, as nbits is a power of two
            bits[base + (draw.view(np.int64) & (nbits - 1))] = True
        if len(paths) < max_path_len:
            reach = np.concatenate([[0], np.cumsum(next_count.take(paths[-1]))])
            stack.append([paths, state, sig, reach, 0])

    push(np.arange(len(head), dtype=np.int32)[None, :],
         fnv1a64_rows(np.stack([head_code, bond, tail_code], axis=1)),
         node_bit[head] | node_bit[tail])
    while stack:
        top = stack[-1]
        paths, state, sig, reach, lo = top
        if lo == paths.shape[1]:
            stack.pop()
            continue
        # at least one row, even when its continuations alone exceed the block
        hi = max(lo + 1, int(np.searchsorted(reach, reach[lo] + PATH_BLOCK_ROWS, "right")) - 1)
        top[4] = hi
        longer, parent, longer_sig = _extend_paths(paths[:, lo:hi], sig[lo:hi], next_first,
                                                   next_count, rev, head, tail, node_bit, shared)
        if longer.shape[1]:
            h = state[lo + parent]
            for at in step_at:
                low = at.take(longer[-1])
                low += h.view(np.int64) & 255
                h *= _FNV_PRIME_8
                h += table.take(low)
            push(longer, h, longer_sig)
    return [BitFingerprint(bits=row, scheme=TOPOLOGICAL, params=params)
            for row in bits.reshape(len(graphs), nbits)]


def _extend_paths(paths: np.ndarray, sig: np.ndarray, next_first: np.ndarray,
                  next_count: np.ndarray, rev: np.ndarray, head: np.ndarray, tail: np.ndarray,
                  node_bit: np.ndarray, shared: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every simple path that continues a row of ``paths``, a (k, rows)
    table, by one more slot; the row of ``paths`` that each one continues;
    and its signature.

    A row whose last slot is s has as candidates the ``next_count[s]`` slots
    of s's tail from ``next_first[s]`` on, less the one back over its last
    edge, ``rev[s]``.  A candidate whose node's bit is clear in the row's
    signature is kept, and a set bit drops it, except on a node of a graph
    of more than 64 nodes: there the bit may be another node's, and the
    row's own nodes decide."""
    last = paths[-1]
    start, count = next_first.take(last), next_count.take(last)
    # each candidate's row; other per-row values are taken by it, not repeated (faster)
    row = np.repeat(np.arange(len(last)), count)
    # candidate j of a row is slot j of its last node's list, or slot j + 1
    # from the back edge's slot on
    slot = np.arange(len(row)) + (start - (np.cumsum(count) - count)).take(row)
    slot += slot >= rev.take(last).take(row)
    nxt = tail.take(slot)
    path_sig, nxt_bit = sig.take(row), node_bit.take(nxt)
    on_path = (path_sig & nxt_bit) != 0
    alias = np.flatnonzero(on_path & shared[nxt])
    # a candidate is never the last node itself, which has no self-loop
    row_a, nxt_a = row[alias], nxt[alias]
    hit = head[paths[0, row_a]] == nxt_a
    for column in paths[:-1]:
        hit |= tail[column[row_a]] == nxt_a
    on_path[alias] = hit
    keep = np.flatnonzero(~on_path)
    parent = row[keep]
    out = np.empty((len(paths) + 1, len(parent)), dtype=paths.dtype)
    # every index is in range, so "clip" only spares the bounds check's buffered copy
    np.take(paths, parent, axis=1, out=out[:-1], mode="clip")
    out[-1] = slot[keep]
    return out, parent, (path_sig | nxt_bit)[keep]


def _step_tables(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, at) for a uint64 array of codes, ``at`` of its shape: FNV-1a
    over the code c = ``codes[i]`` from the state h is
    ``h * P^8 + table[at[i] + (h & 255)]`` mod 2^64.  Each distinct c has 256
    entries, its hash from the state l, less l * P^8, for l = 0..255."""
    distinct, row = np.unique(codes, return_inverse=True)
    low = np.tile(np.arange(256, dtype=np.uint64), len(distinct))
    table = fnv1a64_rows(np.repeat(distinct, 256)[:, None], start=low)
    table -= low * _FNV_PRIME_8
    return table, (row << 8).reshape(np.shape(codes))


def _hashed_rows(paths: np.ndarray, counted: np.ndarray, head_code: np.ndarray,
                 tail_code: np.ndarray, bond: np.ndarray) -> np.ndarray:
    """Which rows of ``paths``, a (k, rows) table, hash their undirected
    path: a row whose forward codes are lexicographically below its reverse,
    and the ``counted`` row of a palindrome.  Either way the hash is FNV-1a
    of the smaller of the path's two encodings, and each undirected path is
    hashed from one of its rows.

    Code p of the reverse is code 2k - p of the forward encoding: node i
    against node k - i, then the bond of slot i against the bond of slot
    k - 1 - i.  Only rows still tied take the next comparison, and most are
    decided at p = 0 by their end nodes."""
    k = len(paths)
    a, b = head_code.take(paths[0]), tail_code.take(paths[-1])
    hashed = a < b
    tied = np.flatnonzero(a == b)
    for p in range(1, k):
        near, far = paths[p // 2, tied], paths[k - 1 - p // 2, tied]
        a, b = (bond[near], bond[far]) if p % 2 else (head_code[near], tail_code[far])
        hashed[tied[a < b]] = True
        tied = tied[a == b]
    hashed[tied] = counted[tied]
    return hashed


def morgan_fingerprint(g: LabeledGraph, radius: int = 2,
                       nbits: int = 2048) -> BitFingerprint:
    """The fingerprint of one graph: ``morgan_fingerprints`` of a batch of one."""
    return morgan_fingerprints([g], radius, nbits)[0]


def morgan_fingerprints(graphs, radius: int = 2, nbits: int = 2048) -> list[BitFingerprint]:
    """Circular fingerprints of a batch of graphs, one per graph.

    Round 0 hashes each atom's attributes, degree and sorted incident bond
    codes into its identifier; round r hashes r, the atom's identifier and
    its (bond code, neighbour identifier) pairs in sorted order, from round
    r - 1.  An atom's environment at round r is its radius-r ball.  Duplicate
    environments (the same atom set of one graph) keep the earliest round's
    identifier, the smallest on a tie; that rule is order-free, so the bits
    are invariant under node relabeling.  Each kept identifier sets bit
    identifier mod ``nbits``.  Graphs are taken in runs whose ball bitsets
    fit ``BALL_BLOCK_BYTES`` per round (see the module docstring).
    """
    check_int("morgan fingerprint: radius", radius, 0)
    _check_nbits(nbits)
    params = (("radius", radius), ("nbits", nbits))
    graphs = list(graphs)
    bits = np.zeros((len(graphs), nbits), dtype=bool)
    for lo, hi in _ball_blocks([g.node_count for g in graphs]):
        _set_morgan_bits(bits[lo:hi], graphs[lo:hi], radius)
    return [BitFingerprint(bits=row, scheme=MORGAN, params=params) for row in bits]


def _ball_bytes(nodes: int) -> int:
    """Bytes of one packed ball row of a graph of ``nodes`` nodes."""
    return -(-max(nodes, 1) // 8)


def _ball_blocks(sizes):
    """Runs lo:hi of consecutive graphs whose ball rows, padded to the run's
    largest graph, take at most ``BALL_BLOCK_BYTES``; a graph larger than
    that runs alone."""
    lo, nodes, largest = 0, 0, 0
    for hi, n in enumerate(sizes):
        if hi > lo and (nodes + n) * _ball_bytes(max(largest, n)) > BALL_BLOCK_BYTES:
            yield lo, hi
            lo, nodes, largest = hi, 0, 0
        nodes, largest = nodes + n, max(largest, n)
    if lo < len(sizes):
        yield lo, len(sizes)


def _set_morgan_bits(bits: np.ndarray, graphs, radius: int) -> None:
    """Set the Morgan bits of each graph of a run in its row of ``bits``."""
    owner, local, head, tail, _, bond, indptr = _batch_csr(graphs)
    n = len(owner)
    deg = np.diff(indptr)
    ids = np.empty((radius + 1, n), dtype=np.uint64)
    # round 0 hashes [len(attrs), *attrs, degree, *sorted incident bond codes]:
    # the attribute code's state, continued over the degree, then the bonds
    ids[0] = fnv1a64_rows(bond[np.lexsort((bond, head))], deg, start=fnv1a64_rows(
        deg[:, None], start=_attr_codes([a for g in graphs for a in g.node_attrs])))
    # ball rows: bit i of a row marks node i of its graph
    balls = np.zeros((radius + 1, n, _ball_bytes(int(local.max(initial=0)) + 1)),
                     dtype=np.uint8)
    balls[0, np.arange(n), local >> 3] = 1 << (local & 7)
    linked = deg > 0
    for rnd in range(1, radius + 1):
        # round r hashes [r, identifier, *sorted (bond, neighbour identifier)
        # pairs]: the state of [r, identifier], continued over the pairs
        prev = ids[rnd - 1]
        order = np.lexsort((prev[tail], bond, head))
        pairs = np.stack([bond[order], prev[tail[order]]], axis=1).ravel()
        ids[rnd] = fnv1a64_rows(pairs, 2 * deg, start=fnv1a64_rows(
            np.stack([np.full(n, rnd, dtype=np.uint64), prev], axis=1)))
        balls[rnd] = balls[rnd - 1]
        # slots are grouped by head, so each linked node's slots are one segment
        balls[rnd, linked] |= np.bitwise_or.reduceat(balls[rnd - 1, tail], indptr[:-1][linked])
    # earliest round, then smallest identifier, first within each (graph, ball)
    width = balls.shape[2]
    ball = balls.reshape(-1, width).view(np.dtype((np.void, width))).ravel()
    graph = np.tile(owner, radius + 1)
    ident = ids.ravel()
    order = np.lexsort((ident, np.repeat(np.arange(radius + 1), n), ball, graph))
    ball, graph = ball[order], graph[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (graph[1:] != graph[:-1]) | (ball[1:] != ball[:-1])
    bits[graph[first], ident[order[first]] % np.uint64(bits.shape[1])] = True


SCHEMES = {TOPOLOGICAL: topological_fingerprints, MORGAN: morgan_fingerprints,
           SPECTRAL: lambda graphs, **params: [spectral_fingerprint(g, **params)
                                               for g in graphs]}


def make_fingerprints(corpus, scheme: str, **params) -> dict:
    """Fingerprint every graph in a corpus with one scheme of ``SCHEMES``,
    keyed by graph id, so no two graphs may share one."""
    if scheme not in SCHEMES:
        raise DataError(f"unknown fingerprint scheme {scheme!r}")
    graphs = list(corpus)
    repeated = [i for i, n in Counter(g.id for g in graphs).items() if n > 1]
    if repeated:
        raise DataError(f"duplicate graph id {repeated[0]!r}: fingerprints are keyed by id")
    return dict(zip((g.id for g in graphs), SCHEMES[scheme](graphs, **params)))

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphmgs import fingerprints
from graphmgs.errors import DataError
from graphmgs.fingerprints import (BitFingerprint, fnv1a64_rows, make_fingerprints,
                                   morgan_fingerprint, morgan_fingerprints, splitmix64_rows,
                                   topological_fingerprint, topological_fingerprints)
from graphmgs.graphs import LabeledGraph

from conftest import random_attributed_graph
from spec import (atom_invariants, fnv1a64, morgan_reference, neighbors, permuted, popcount,
                  splitmix64)


def molecule(n, edges, node_attrs, edge_attrs, gid="m"):
    return LabeledGraph(id=gid, node_count=n, edges=tuple(edges),
                        node_attrs=tuple(node_attrs), edge_attrs=tuple(edge_attrs))


def complete_graph(n, gid=None):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return molecule(n, edges, [(0,)] * n, [(0,)] * len(edges), gid=gid or f"k{n}")


def chorded_cycle(rng, n, chords):
    """The n-cycle plus ``chords``, with random node and bond attributes."""
    edges = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)} | set(chords))
    return molecule(n, edges, [(int(a),) for a in rng.integers(0, 3, n)],
                    [(int(a),) for a in rng.integers(0, 2, len(edges))], gid=f"cycle{n}")


def reference_topological_bits(g, max_path_len, nbits, bits_per_feature):
    """The path fingerprint by its definition: scalar hashes over every simple path."""
    code = [fnv1a64((len(a), *a)) for a in g.node_attrs]
    bond = {}
    for (u, v), a in zip(g.edges, g.edge_attrs):
        bond[u, v] = bond[v, u] = fnv1a64((len(a), *a))
    nbrs = neighbors(g)
    bits = np.zeros(nbits, dtype=bool)

    def encode(path):
        out = [code[path[0]]]
        for u, v in zip(path, path[1:]):
            out += [bond[u, v], code[v]]
        return out

    def walk(path):
        if len(path) > 1 and path[0] < path[-1]:
            state = fnv1a64(min(encode(path), encode(path[::-1])))
            for _ in range(bits_per_feature):
                draw, state = splitmix64(state)
                bits[draw % nbits] = True
        if len(path) <= max_path_len:
            for v in nbrs[path[-1]]:
                if v not in path:
                    walk(path + [v])

    for start in range(g.node_count):
        walk([start])
    return bits


class TestHashing:
    def test_fnv_deterministic(self):
        assert fnv1a64([1, 2, 3]) == fnv1a64([1, 2, 3])
        assert fnv1a64([1, 2, 3]) != fnv1a64([3, 2, 1])

    def test_splitmix_sequence(self):
        v1, s1 = splitmix64(42)
        v2, s2 = splitmix64(s1)
        assert (v1, s1) == splitmix64(42)
        assert v1 != v2

    def test_power_of_two_enforced(self):
        with pytest.raises(DataError):
            BitFingerprint(bits=np.zeros(100, dtype=bool), scheme="topological", params=())

    def test_bits_must_be_bool(self):
        # counts in place of bits would score Tanimotos above 1
        for bits in (np.array([2, 0, 1, 0]), np.array([1.0, 0.0]), [True, False]):
            with pytest.raises(DataError, match="must be a 1-D bool array"):
                BitFingerprint(bits=bits, scheme="topological", params=())

    def test_bits_must_be_one_dimensional(self):
        for bits in (np.zeros((2, 4), dtype=bool), np.array(True)):
            with pytest.raises(DataError, match="must be a 1-D bool array"):
                BitFingerprint(bits=bits, scheme="topological", params=())

    def test_equal_fingerprints_compare_and_hash_equal(self):
        def fp(bits, scheme="morgan", params=(("radius", 2),)):
            return BitFingerprint(bits=np.array(bits, dtype=bool), scheme=scheme, params=params)

        a, b = fp(np.zeros(8)), fp(np.zeros(8))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a.to_hex() == "00"
        assert a != fp(np.eye(8)[3])
        assert a != fp(np.zeros(8), scheme="topological")
        assert a != fp(np.zeros(8), params=(("radius", 1),))
        assert a != fp(np.zeros(16))

    def test_bits_are_a_read_only_copy(self):
        # a fingerprint in a set must stay findable: writing to its bits
        # raises, and writing to the array it was made from changes nothing
        bits = np.zeros(8, dtype=bool)
        fp = BitFingerprint(bits=bits, scheme="morgan", params=())
        found, digest, hex_bits = {fp}, hash(fp), fp.to_hex()
        with pytest.raises(ValueError, match="read-only"):
            fp.bits[0] = True
        assert bits.flags.writeable
        bits[:] = True
        assert fp in found and hash(fp) == digest and fp.to_hex() == hex_bits == "00"
        assert not fp.bits.any()

    def test_step_tables_match_byte_steps(self):
        # FNV-1a over one code c from a state h is h * P^8 plus the entry of c
        # for h's low byte; the states cover every low byte under random high bits
        rng = np.random.default_rng(14)
        codes = np.concatenate([np.array([0, 1, 1 << 63, (1 << 64) - 1, 1], dtype=np.uint64),
                                rng.integers(0, 1 << 64, size=40, dtype=np.uint64,
                                             endpoint=False)])
        table, at = fingerprints._step_tables(codes)
        assert table.dtype == np.uint64 and table.nbytes == 2048 * len(set(codes.tolist()))
        low = np.arange(256, dtype=np.uint64)
        states = rng.integers(0, 1 << 56, size=256, dtype=np.uint64) << np.uint64(8) | low
        c, h = np.repeat(codes, 256), np.tile(states, len(codes))
        got = h * np.uint64(pow(0x100000001B3, 8, 1 << 64)) + table[
            np.repeat(at, 256) + (h & np.uint64(255)).astype(np.intp)]
        assert np.array_equal(got, fnv1a64_rows(c[:, None], start=h))
        assert [int(g) for g in got] == [fnv1a64([int(x)], start=int(y)) for x, y in zip(c, h)]
        # the entries of a code are found from an array of codes of any shape
        assert np.array_equal(fingerprints._step_tables(codes.reshape(5, 9))[1],
                              at.reshape(5, 9))

    def test_fnv_rows_match_scalar(self):
        rng = np.random.default_rng(6)
        special = np.array([0, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
        for width in range(1, 16):
            codes = rng.integers(0, 1 << 64, size=(667, width), dtype=np.uint64,
                                 endpoint=False)
            pick = rng.random(codes.shape) < 0.2
            codes[pick] = rng.choice(special, size=int(pick.sum()))
            got = fnv1a64_rows(codes)
            assert got.dtype == np.uint64
            assert [int(h) for h in got] == [fnv1a64(int(c) for c in row) for row in codes]

    def test_fnv_ragged_rows_match_scalar(self):
        # every row length from 0 to k, in shuffled order, as one flat array
        rng = np.random.default_rng(12)
        for k in (0, 1, 2, 5, 9):
            lengths = rng.permutation(np.repeat(np.arange(k + 1), 3))
            codes = rng.integers(0, 1 << 64, size=int(lengths.sum()), dtype=np.uint64,
                                 endpoint=False)
            got = fnv1a64_rows(codes, lengths)
            assert got.dtype == np.uint64 and len(got) == len(lengths)
            rows = np.split(codes, np.cumsum(lengths)[:-1])
            assert [int(h) for h in got] == [fnv1a64(int(c) for c in row) for row in rows]
            assert all(int(h) == 0xCBF29CE484222325 for h in got[lengths == 0])
        assert len(fnv1a64_rows(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=int))) == 0

    def test_fnv_rows_chain_from_a_start_state(self):
        # hashing the codes after j from the state of the first j gives the
        # hash of the whole row; the state of no codes is the offset basis
        rng = np.random.default_rng(13)
        for width in (1, 2, 5, 15):
            codes = rng.integers(0, 1 << 64, size=(97, width), dtype=np.uint64,
                                 endpoint=False)
            whole = fnv1a64_rows(codes)
            for j in range(width + 1):
                head = fnv1a64_rows(codes[:, :j])
                if j == 0:
                    assert np.all(head == np.uint64(0xCBF29CE484222325))
                assert np.array_equal(fnv1a64_rows(codes[:, j:], start=head), whole)
        lengths = rng.integers(0, 4, size=50)
        flat = rng.integers(0, 1 << 64, size=int(lengths.sum()), dtype=np.uint64,
                            endpoint=False)
        start = rng.integers(0, 1 << 64, size=50, dtype=np.uint64, endpoint=False)
        rows = np.split(flat, np.cumsum(lengths)[:-1])
        assert np.array_equal(fnv1a64_rows(flat, lengths, start=start),
                              [fnv1a64_rows(r[None, :], start=s[None])[0]
                               for r, s in zip(rows, start)])

    def test_splitmix_rows_match_scalar(self):
        rng = np.random.default_rng(7)
        states = np.concatenate([
            np.array([0, 1 << 63, (1 << 64) - 1], dtype=np.uint64),
            rng.integers(0, 1 << 64, size=2000, dtype=np.uint64, endpoint=False)])
        expected = [int(s) for s in states]
        for _ in range(4):
            draws, states = splitmix64_rows(states)
            pairs = [splitmix64(s) for s in expected]
            assert [int(d) for d in draws] == [d for d, _ in pairs]
            expected = [s for _, s in pairs]
            assert [int(s) for s in states] == expected


class TestTopological:
    def test_single_node_all_zero(self):
        fp = topological_fingerprint(molecule(1, [], [(6,)], []))
        assert popcount(fp) == 0

    @pytest.mark.parametrize("n", [0, 5])
    def test_no_edges_all_zero(self, n):
        fp = topological_fingerprint(molecule(n, [], [(6,)] * n, []),
                                     max_path_len=4, nbits=256, bits_per_feature=3)
        assert fp.nbits == 256 and popcount(fp) == 0
        assert fp.params == (("max_path_len", 4), ("nbits", 256), ("bits_per_feature", 3))

    @pytest.mark.parametrize("fingerprint, params, match", [
        (topological_fingerprint, dict(max_path_len=0), ">= 1"),
        (topological_fingerprint, dict(bits_per_feature=0), ">= 1"),
        (topological_fingerprint, dict(nbits=100), "power of two"),
        (topological_fingerprint, dict(max_path_len=2.5), "integer"),
        (topological_fingerprint, dict(bits_per_feature=True), "integer"),
        (topological_fingerprint, dict(nbits=-8), ">= 1"),
        (topological_fingerprint, dict(nbits=0), ">= 1"),
        (morgan_fingerprint, dict(radius=-1), ">= 0"),
        (morgan_fingerprint, dict(radius=1.0), "integer"),
        (morgan_fingerprint, dict(nbits=-8), ">= 1"),
        (morgan_fingerprint, dict(nbits=0), ">= 1"),
        (morgan_fingerprint, dict(nbits=100), "power of two"),
        (morgan_fingerprint, dict(nbits=64.0), "integer")],
        ids=["max_path_len", "bits_per_feature", "nbits", "max_path_len-float",
             "bits_per_feature-bool", "nbits-negative", "nbits-zero", "morgan-radius",
             "morgan-radius-float", "morgan-nbits-negative", "morgan-nbits-zero",
             "morgan-nbits", "morgan-nbits-float"])
    def test_bad_params_raise_before_enumeration(self, monkeypatch, fingerprint, params,
                                                 match):
        # with a cap of 0, enumerating the first edge would raise about paths,
        # and no scheme may build the batch's CSR before its checks pass
        monkeypatch.setattr(fingerprints, "MAX_PATHS_PER_GRAPH", 0)

        def no_work(graphs):
            raise AssertionError("parameters checked after the work began")

        monkeypatch.setattr(fingerprints, "_batch_csr", no_work)
        with pytest.raises(DataError, match=match):
            fingerprint(complete_graph(5), **params)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_matches_scalar_reference(self, uniform):
        # uniform attributes make every path encoding a palindrome
        sizes = dict(attr_sizes=(1,), edge_attr_sizes=(1,)) if uniform else {}
        rng = np.random.default_rng(8)
        for _ in range(30):
            g = random_attributed_graph(rng, n_min=1, n_max=9, **sizes)
            for max_path_len, nbits, bpf in ((1, 64, 1), (3, 2048, 2), (6, 1 << 16, 3)):
                got = topological_fingerprint(g, max_path_len=max_path_len, nbits=nbits,
                                              bits_per_feature=bpf)
                assert np.array_equal(
                    got.bits, reference_topological_bits(g, max_path_len, nbits, bpf))

    def test_palindromic_path_tie(self):
        # C-N-C with equal bonds: the 2-edge path reads the same both ways
        g = molecule(3, [(0, 1), (1, 2)], [(6,), (7,), (6,)], [(1,), (1,)])
        c, n, b = (fnv1a64((1, a)) for a in (6, 7, 1))
        expected = np.zeros(1 << 16, dtype=bool)
        for encoding in (min([c, b, n], [n, b, c]), [c, b, n, b, c]):
            draw, _ = splitmix64(fnv1a64(encoding))
            expected[draw % (1 << 16)] = True
        got = topological_fingerprint(g, max_path_len=2, nbits=1 << 16, bits_per_feature=1)
        assert np.array_equal(got.bits, expected)

    @pytest.mark.parametrize("inner", [(1, 2), (2, 1)])
    def test_direction_tie_broken_at_middle(self, inner):
        # A-B-C-B-A with equal outer bonds: the 4-edge path's two directions
        # agree up to the bonds beside C, the last code before the middle
        g = molecule(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [(6,), (7,), (8,), (7,), (6,)],
                     [(0,), inner[:1], inner[1:], (0,)])
        got = topological_fingerprint(g, max_path_len=4, nbits=1 << 16)
        assert np.array_equal(got.bits, reference_topological_bits(g, 4, 1 << 16, 2))

    def test_paths_hashed_by_extension(self, monkeypatch):
        # each extension continues its parent's FNV state over (bond, node
        # code); hashing whole paths again would pass 2k + 1 codes per row
        widths = []

        def recording(codes, lengths=None, start=None):
            if lengths is None:
                widths.append(np.shape(codes)[1])
            return fnv1a64_rows(codes, lengths, start)

        monkeypatch.setattr(fingerprints, "fnv1a64_rows", recording)
        topological_fingerprints([complete_graph(6), complete_graph(4, gid="k4")],
                                 max_path_len=7)
        assert widths and max(widths) <= 3

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        g = random_attributed_graph(rng)
        a = topological_fingerprint(g)
        b = topological_fingerprint(g)
        assert np.array_equal(a.bits, b.bits)

    def test_permutation_invariance_many_seeds(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_attributed_graph(rng, n_min=6, n_max=12)
            perm = list(rng.permutation(g.node_count))
            a = topological_fingerprint(g, max_path_len=4)
            b = topological_fingerprint(permuted(g, perm), max_path_len=4)
            assert np.array_equal(a.bits, b.bits)

    def test_adding_edge_only_sets_bits(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_attributed_graph(rng, n_min=4, n_max=8)
            before = topological_fingerprint(g, max_path_len=4).bits
            non_edges = [(u, v) for u in range(g.node_count)
                         for v in range(u + 1, g.node_count) if (u, v) not in g.edges]
            if not non_edges:
                continue
            u, v = non_edges[int(rng.integers(0, len(non_edges)))]
            g2 = LabeledGraph(
                id=g.id, node_count=g.node_count, edges=g.edges + ((u, v),),
                node_attrs=g.node_attrs, edge_attrs=g.edge_attrs + ((99,),))
            after = topological_fingerprint(g2, max_path_len=4).bits
            assert np.all(after[before])  # existing bits never cleared

    def test_component_subgraph_bits_subset(self):
        # path features hash attribute-only node codes, so a
        # component's paths encode the same inside the union and its bits are a
        # subset of the union's; 2^16 bits keep the vectors sparse, so a
        # missing path would show
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_attributed_graph(rng, n_min=4, n_max=8)
            b = random_attributed_graph(rng, n_min=4, n_max=8)
            shift = a.node_count
            union = LabeledGraph(
                id="u", node_count=a.node_count + b.node_count,
                edges=a.edges + tuple((u + shift, v + shift) for u, v in b.edges),
                node_attrs=a.node_attrs + b.node_attrs,
                edge_attrs=a.edge_attrs + b.edge_attrs)
            union_bits = topological_fingerprint(union, max_path_len=4, nbits=1 << 16).bits
            for part in (a, b):
                part_bits = topological_fingerprint(part, max_path_len=4, nbits=1 << 16).bits
                assert np.all(union_bits[part_bits])

    def test_path_cap_raises(self):
        n = 14
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = molecule(n, edges, [(0,)] * n, [(0,)] * len(edges), gid="dense")
        with pytest.raises(DataError, match="paths"):
            topological_fingerprint(g, max_path_len=7)

    @pytest.mark.parametrize("max_path_len, count", [(1, 10), (2, 40), (3, 100), (4, 160)])
    def test_path_cap_boundary(self, monkeypatch, max_path_len, count):
        # K5 has 5!/(2 (4 - k)!) simple paths of k edges: 10, 30, 60 and 60
        g = complete_graph(5)
        monkeypatch.setattr(fingerprints, "MAX_PATHS_PER_GRAPH", count)
        topological_fingerprint(g, max_path_len=max_path_len)
        monkeypatch.setattr(fingerprints, "MAX_PATHS_PER_GRAPH", count - 1)
        with pytest.raises(DataError, match="paths"):
            topological_fingerprint(g, max_path_len=max_path_len)


class TestBatch:
    """``topological_fingerprints`` walks a whole batch; each graph's bits and
    path cap are its own."""

    def test_csr_rev_and_local_by_definition(self):
        # rev: the k-th slot in (tail, head) order is the reverse of the k-th
        # in (head, tail) order, since every edge has one slot each way
        rng = np.random.default_rng(12)
        edgeless = molecule(4, [], [(6,), (7,), (8,), (6,)], [], gid="edgeless")
        batches = [[], [edgeless], [molecule(0, [], [], [], gid="empty"), edgeless]]
        batches += [[random_attributed_graph(rng, n_min=1, n_max=12) for _ in range(k)]
                    + [edgeless] for k in (1, 3, 8) for _ in range(4)]
        for graphs in batches:
            owner, local, head, tail, rev, _, indptr = fingerprints._batch_csr(graphs)
            want = np.empty_like(head)
            want[np.lexsort((head, tail))] = np.lexsort((tail, head))
            assert rev.dtype == want.dtype and np.array_equal(rev, want)
            assert np.array_equal(local, [v for g in graphs for v in range(g.node_count)])
            assert np.array_equal(owner, [i for i, g in enumerate(graphs)
                                          for _ in range(g.node_count)])
            assert len(head) == 2 * sum(g.edge_count for g in graphs) == indptr[-1]

    def test_mixed_batch_matches_scalar_reference(self):
        rng = np.random.default_rng(9)
        graphs = [molecule(0, [], [], [], gid="empty"),
                  molecule(1, [], [(6,)], [], gid="atom"),
                  molecule(4, [], [(6,), (7,), (8,), (6,)], [], gid="edgeless"),
                  molecule(3, [(0, 1), (1, 2)], [(6,), (7,), (6,)], [(1,), (1,)], gid="cnc"),
                  complete_graph(5),
                  molecule(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(-1,), (2,), (-3,), (0,)],
                           [(-2,), (1,), (-2,), (0,)], gid="negative")]
        graphs += [random_attributed_graph(rng, n_min=1, n_max=10) for _ in range(12)]
        # past 64 nodes two nodes share a signature bit; chords between nodes 64
        # apart put both on one path (in the 65-cycle, edge (0, 64) closes it)
        graphs += [chorded_cycle(rng, 65, [(0, 64)]),
                   chorded_cycle(rng, 150, [(0, 64), (1, 65), (21, 85), (64, 128), (85, 149)])]
        for max_path_len, nbits, bpf in ((1, 64, 1), (4, 2048, 2), (7, 1 << 16, 3)):
            got = topological_fingerprints(graphs, max_path_len, nbits, bpf)
            assert len(got) == len(graphs)
            for g, fp in zip(graphs, got):
                assert fp.params == (("max_path_len", max_path_len), ("nbits", nbits),
                                     ("bits_per_feature", bpf))
                assert np.array_equal(
                    fp.bits, reference_topological_bits(g, max_path_len, nbits, bpf)), g.id
        assert topological_fingerprints([], max_path_len=3) == []

    def test_attr_codes_match_scalar(self):
        # node and bond codes are hashed in batches grouped by tuple length;
        # negative and 64-bit values hash as their two's complement
        rows = [(), (0,), (3, 1), (-1,), (2, -7, 5), (1 << 63,), (-(1 << 63), 4), (3, 1), (9,)]
        got = fingerprints._attr_codes(rows)
        assert got.dtype == np.uint64
        assert [int(c) for c in got] == [fnv1a64((len(a), *a)) for a in rows]

    @pytest.mark.parametrize("max_path_len, count", [(1, 10), (4, 160)])
    def test_cap_counts_each_graph(self, monkeypatch, max_path_len, count):
        # K5 comes after a path graph with fewer paths; at its exact count the
        # batch passes, one below it raises naming K5
        chain = molecule(4, [(0, 1), (1, 2), (2, 3)], [(0,)] * 4, [(0,)] * 3, gid="chain")
        batch = [chain, complete_graph(5, gid="k5-capped")]
        monkeypatch.setattr(fingerprints, "MAX_PATHS_PER_GRAPH", count)
        make_fingerprints(batch, "topological", max_path_len=max_path_len)
        monkeypatch.setattr(fingerprints, "MAX_PATHS_PER_GRAPH", count - 1)
        with pytest.raises(DataError, match="'k5-capped'.*paths"):
            make_fingerprints(batch, "topological", max_path_len=max_path_len)

    def test_cap_ignores_batch_total(self, monkeypatch):
        # four K5 copies hold 640 paths of up to 4 edges, 160 each
        monkeypatch.setattr(fingerprints, "MAX_PATHS_PER_GRAPH", 160)
        copies = [complete_graph(5, gid=f"k5-{i}") for i in range(4)]
        fps = make_fingerprints(copies, "topological", max_path_len=4)
        assert len({fp.to_hex() for fp in fps.values()}) == 1

    @pytest.mark.parametrize("scheme, params", [("topological", {"max_path_len": 2}),
                                                ("morgan", {"radius": 1}),
                                                ("spectral", {"k": 2})])
    def test_repeated_id_rejected(self, scheme, params):
        # fingerprints are keyed by id: a second graph of one id would replace the first
        twins = [complete_graph(3, gid="twin"), molecule(2, [(0, 1)], [(6,), (8,)], [(2,)],
                                                         gid="twin")]
        with pytest.raises(DataError, match="duplicate graph id 'twin'"):
            make_fingerprints([complete_graph(4, gid="k4")] + twins, scheme, **params)

    def test_hub_explosion_raises_in_bounded_memory(self):
        # a star's 2-edge paths are its leaf pairs, about 2 million: each
        # leaf-to-hub row has 1,999 candidates, and the walk must reach the
        # cap one block at a time
        n = 2001
        star = molecule(n, [(0, v) for v in range(1, n)], [(0,)] * n, [(0,)] * (n - 1),
                        gid="star")
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="'star'.*paths"):
                topological_fingerprint(star, max_path_len=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_memory_bounded_by_blocks(self):
        # eight K9 copies hold 8 x 623,520 directed paths of up to 7 edges; a
        # breadth-first frontier of the 7-edge ones alone would take 93 MB
        copies = [complete_graph(9, gid=f"k9-{i}") for i in range(8)]
        tracemalloc.start()
        try:
            fps = make_fingerprints(copies, "topological", max_path_len=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert np.array_equal(fps["k9-7"].bits, topological_fingerprint(copies[0]).bits)


    def test_step_tables_bounded_per_distinct_code(self):
        # every node and bond has its own attribute tuple, so its own code: the
        # tables' worst case, 2 KiB per code kept and three times that while
        # they are built, on top of a walk that takes under 2 MiB here
        rng = np.random.default_rng(15)
        graphs, fresh = [], iter(range(10 ** 6))
        for i in range(16):
            chords = {tuple(sorted(map(int, rng.choice(60, 2, replace=False))))
                      for _ in range(10)}
            g = chorded_cycle(rng, 60, chords)
            graphs.append(molecule(60, g.edges, [(next(fresh),) for _ in range(60)],
                                   [(next(fresh),) for _ in g.edges], gid=f"distinct{i}"))
        codes = sum(g.node_count + g.edge_count for g in graphs)
        tracemalloc.start()
        try:
            fps = topological_fingerprints(graphs, max_path_len=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 1024 * codes + 2 * 2 ** 20
        for g, fp in zip(graphs, fps):
            assert np.array_equal(fp.bits, reference_topological_bits(g, 4, 2048, 2)), g.id


class TestMorgan:
    def test_single_node_one_bit(self):
        fp = morgan_fingerprint(molecule(1, [], [(6,)], []), radius=2)
        assert popcount(fp) == 1

    def test_star_two_round0_classes(self):
        g = molecule(4, [(0, 1), (0, 2), (0, 3)],
                     [(6,), (1,), (1,), (1,)], [(0,), (0,), (0,)], gid="s3")
        inv = atom_invariants(g)
        assert len(set(inv)) == 2  # hub vs identical leaves

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_attributed_graph(rng, n_min=5, n_max=12)
            perm = list(rng.permutation(g.node_count))
            a = morgan_fingerprint(g, radius=2)
            b = morgan_fingerprint(permuted(g, perm), radius=2)
            assert np.array_equal(a.bits, b.bits)

    def test_radius_zero_counts_atom_classes(self):
        g = molecule(3, [(0, 1), (1, 2)], [(6,), (7,), (6,)], [(0,), (0,)])
        fp = morgan_fingerprint(g, radius=0)
        # 3 atoms, but the two degree-1 carbons share an identifier
        assert popcount(fp) == 2

    def test_isolated_node_rounds_add_nothing(self):
        g = molecule(1, [], [(6,)], [])
        assert np.array_equal(morgan_fingerprint(g, radius=0).bits,
                              morgan_fingerprint(g, radius=3).bits)


def star(n):
    return molecule(n, [(0, v) for v in range(1, n)], [(6,)] + [(1,)] * (n - 1),
                    [(v % 2,) for v in range(1, n)], gid=f"star{n}")


def special_graphs():
    """The degenerate shapes a batch must carry: no nodes, one node, no
    edges, isolated nodes beside edges, and a hub."""
    return [molecule(0, [], [], [], gid="empty"),
            star(30),
            molecule(1, [], [(6,)], [], gid="atom"),
            molecule(4, [], [(6,), (7,), (8,), (6,)], [], gid="edgeless"),
            molecule(5, [(1, 3), (3, 4)], [(6,), (7,), (6,), (8,), (6, 1)], [(1,), (2, 0)],
                     gid="isolated"),
            molecule(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(-1,), (2,), (-3,), (0,)],
                     [(-2,), (1,), (-2,), (0,)], gid="negative")]


class TestMorganBatch:
    """``morgan_fingerprints`` fingerprints a whole batch; each graph's bits
    are those of the atom-by-atom ``morgan_reference``."""

    @pytest.mark.parametrize("block_bytes", [fingerprints.BALL_BLOCK_BYTES, 8])
    def test_mixed_batch_matches_reference(self, monkeypatch, block_bytes):
        # 8 bytes per round split the batch into many runs of a few graphs
        monkeypatch.setattr(fingerprints, "BALL_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(13)
        graphs = special_graphs()
        graphs += [random_attributed_graph(rng, n_min=1, n_max=14) for _ in range(16)]
        graphs += [random_attributed_graph(rng, n_min=9, n_max=20, attr_sizes=(2,),
                                           edge_attr_sizes=(1,)) for _ in range(4)]
        rng.shuffle(graphs)
        for radius, nbits in ((0, 64), (1, 256), (2, 2048), (3, 4096)):
            got = morgan_fingerprints(graphs, radius, nbits)
            assert len(got) == len(graphs)
            for g, fp in zip(graphs, got):
                assert fp.params == (("radius", radius), ("nbits", nbits))
                assert np.array_equal(fp.bits, morgan_reference(g, radius, nbits)), g.id
        assert morgan_fingerprints([], radius=2) == []

    def test_bits_independent_of_batch(self):
        rng = np.random.default_rng(14)
        graphs = special_graphs() + [random_attributed_graph(rng, n_min=1, n_max=12)
                                     for _ in range(10)]
        batch = [fp.to_hex() for fp in morgan_fingerprints(graphs, radius=3)]
        alone = [morgan_fingerprint(g, radius=3).to_hex() for g in graphs]
        assert batch == alone
        order = rng.permutation(len(graphs))
        shuffled = morgan_fingerprints([graphs[i] for i in order], radius=3)
        assert [fp.to_hex() for fp in shuffled] == [batch[i] for i in order]
        by_id = make_fingerprints(graphs, "morgan", radius=3)
        assert [by_id[g.id].to_hex() for g in graphs] == batch

    def test_ball_memory_bounded_by_runs(self, monkeypatch):
        # a 2,000-node graph has 250-byte ball rows; padded to them, the 300
        # small graphs around it would double the ball bitsets of the batch
        rng = np.random.default_rng(15)
        big = random_attributed_graph(rng, n_min=2000, n_max=2000)
        small = [random_attributed_graph(rng, n_min=3, n_max=12) for _ in range(300)]
        batch = small[:150] + [big] + small[150:]
        radius, row_bytes = 2, 2000 // 8
        monkeypatch.setattr(fingerprints, "BALL_BLOCK_BYTES", 2000 * row_bytes)
        tracemalloc.start()
        try:
            fps = morgan_fingerprints(batch, radius, nbits=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the run of the large graph alone holds (radius + 1) x 500 kB of
        # balls; gathering neighbour rows and sorting add less than 3 more
        assert peak < 4 * (radius + 1) * 2000 * row_bytes
        assert np.array_equal(fps[150].bits, morgan_fingerprint(big, radius, 64).bits)


    def test_hub_rows_not_padded(self):
        # the hub of a 2,000-node star has rows of 2 x 1,999 codes; padded to
        # that length, one round's table alone would take 64 MB
        n = 2000
        tracemalloc.start()
        try:
            morgan_fingerprint(star(n), radius=2, nbits=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 3 * n * (n // 8)


GOLDEN = json.loads((Path(__file__).parent / "fingerprint_golden.json").read_text())


class TestGolden:
    """Every recorded fingerprint, bit for bit (see the file's "about")."""

    @pytest.mark.parametrize("scheme", ["topological", "morgan"])
    def test_matches_recorded_bits(self, scheme):
        fingerprint = {"topological": topological_fingerprint,
                       "morgan": morgan_fingerprint}[scheme]
        graphs = {spec["seed"]: LabeledGraph(
                      id=f"golden-{spec['seed']}", node_count=spec["node_count"],
                      edges=tuple(map(tuple, spec["edges"])),
                      node_attrs=tuple(map(tuple, spec["node_attrs"])),
                      edge_attrs=tuple(map(tuple, spec["edge_attrs"])))
                  for spec in GOLDEN["graphs"]}
        cases = [c for c in GOLDEN["cases"] if c["scheme"] == scheme]
        assert cases

        def recorded(case, got):
            if "sha256" in case:
                return hashlib.sha256(got.encode("ascii")).hexdigest() == case["sha256"]
            return got == case["hex"]

        mismatched = []
        for case in cases:
            got = fingerprint(graphs[case["graph"]], **case["params"]).to_hex()
            if not recorded(case, got):
                mismatched.append((case["graph"], case["params"]))
        # and the batch engine: all 12 fixtures in one call per parameter set
        for params in {json.dumps(c["params"], sort_keys=True) for c in cases}:
            params = json.loads(params)
            batch = make_fingerprints(list(graphs.values()), scheme, **params)
            for case in cases:
                if case["params"] == params and not recorded(
                        case, batch[graphs[case["graph"]].id].to_hex()):
                    mismatched.append((case["graph"], case["params"], "batch"))
        assert not mismatched

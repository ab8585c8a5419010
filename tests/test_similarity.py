import csv
import tracemalloc

import numpy as np
import pytest

from graphmgs.errors import DataError, NumericError
from graphmgs.fingerprints import BitFingerprint
from graphmgs.similarity import (TANIMOTO_RUN_PAIRS, SimilarityPairSet, average_ranks,
                                 build_pair_set, cosine_pair_sims, cosine_similarity, mgs,
                                 pearson, sample_pair_indices, spearman, structural_pair_sims,
                                 structural_similarity, write_pair_csv)
from graphmgs.spectral import SpectralFingerprint, spectral_fingerprint

from conftest import random_attributed_graph
from spec import cosine, sample_pairs, structural, tanimoto


def scored(structural, embedding):
    """A pair set of given similarities, pair k holding graphs g{k} and h{k}."""
    n = len(structural)
    return SimilarityPairSet(ids=np.asarray([f"g{k}" for k in range(n)]
                                            + [f"h{k}" for k in range(n)], dtype=object),
                             rows=np.arange(n), cols=np.arange(n, 2 * n),
                             structural=structural, embedding=embedding)


def bitfp(bits):
    return BitFingerprint(bits=np.asarray(bits, dtype=bool), scheme="topological",
                          params=())


def rank_then_pearson_oracle(x, y):
    """Brute-force rank (O(n^2) counting with tie averaging) then textbook Pearson."""
    def ranks(v):
        out = []
        for xi in v:
            less = sum(1 for xj in v if xj < xi)
            equal = sum(1 for xj in v if xj == xi)
            out.append(less + (equal + 1) / 2.0)
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx) ** 0.5
    dy = sum((b - my) ** 2 for b in ry) ** 0.5
    return num / (dx * dy)


class TestTanimoto:
    def test_identical(self):
        f = bitfp([1, 0, 1, 0])
        assert structural_similarity(f, f) == 1.0

    def test_partial_overlap(self):
        a, b = bitfp([1, 1, 0, 0]), bitfp([1, 0, 1, 0])
        assert structural_similarity(a, b) == pytest.approx(1 / 3)

    def test_disjoint(self):
        a, b = bitfp([1, 1, 0, 0]), bitfp([0, 0, 1, 1])
        assert structural_similarity(a, b) == 0.0

    def test_both_zero_convention(self):
        z = bitfp([0, 0, 0, 0])
        assert structural_similarity(z, z) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match=r"length 2 and topological\(\) of length 4"):
            structural_similarity(bitfp([1, 0]), bitfp([1, 0, 0, 0]))

    def test_tanimoto_matches_set_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10 ** 4):
            a = bitfp(rng.random(32) > 0.6)
            b = bitfp(rng.random(32) > 0.6)
            sa, sb = set(np.flatnonzero(a.bits)), set(np.flatnonzero(b.bits))
            expected = len(sa & sb) / len(sa | sb) if sa | sb else 1.0
            assert structural_similarity(a, b) == expected

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = bitfp(rng.random(16) > 0.5)
            b = bitfp(rng.random(16) > 0.5)
            assert structural_similarity(a, b) == structural_similarity(b, a)


class TestSpectralDistance:
    def test_identical(self):
        f = SpectralFingerprint(eigenvalues=(3.0, 2.0))
        assert -structural_similarity(f, f) == 0.0

    def test_squared_euclidean(self):
        a = SpectralFingerprint(eigenvalues=(3.0, 3.0))
        b = SpectralFingerprint(eigenvalues=(4.0, 2.0))
        assert -structural_similarity(a, b) == pytest.approx(2.0)

    def test_padding_case(self):
        a = SpectralFingerprint(eigenvalues=(0.0, 0.0))
        b = SpectralFingerprint(eigenvalues=(2.0, 0.0))
        assert -structural_similarity(a, b) == pytest.approx(4.0)

    def test_k_mismatch(self):
        with pytest.raises(DataError, match=r"length 1 and spectral\(\) of length 2"):
            structural_similarity(SpectralFingerprint((1.0,)),
                                  SpectralFingerprint((1.0, 0.0)))


class TestCosine:
    def test_identical(self):
        assert cosine_similarity([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_45_degrees(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericError, match="undefined cosine"):
            cosine_similarity([0.0, 0.0], [1.0, 1.0])


class TestRankStatistics:
    def test_spearman_monotone(self):
        assert spearman([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_spearman_ties(self):
        assert spearman([1, 2, 2, 4], [10, 20, 30, 40]) == pytest.approx(np.sqrt(0.9))

    def test_spearman_constant_rejected(self):
        with pytest.raises(NumericError, match="zero rank variance"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_pearson_affine(self):
        x = np.array([0.5, 1.0, 2.0, 5.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_pearson_example(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)

    def test_oracle_agreement_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(3, 60))
            x = np.round(rng.normal(size=n), 1)  # planted ties
            y = np.round(rng.normal(size=n), 1)
            if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(rank_then_pearson_oracle(x, y), abs=1e-10)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        for transform in (np.exp, lambda v: v ** 3, lambda v: 5 * v + 2):
            x = rng.normal(size=40)
            y = rng.normal(size=40)
            assert spearman(transform(x), y) == pytest.approx(spearman(x, y), abs=1e-12)

    def test_self_correlation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        assert spearman(x, x) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_average_ranks(self):
        assert np.array_equal(average_ranks([10.0, 30.0, 20.0, 30.0]),
                              [1.0, 3.5, 2.0, 3.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spearman_rejects_non_finite(self, bad):
        with pytest.raises(NumericError, match="non-finite"):
            spearman([1.0, 2.0, 3.0, 4.0], [bad, 2.0, 1.0, 3.0])
        with pytest.raises(NumericError, match="non-finite"):
            spearman([bad, 2.0, 1.0, 3.0], [1.0, 2.0, 3.0, 4.0])


class TestMgs:
    def test_perfect_alignment(self):
        s = np.array([0.1, 0.5, 0.9, 0.3])
        pairs = scored(s, s.copy())
        assert mgs(pairs) == pytest.approx(1.0)

    def test_anti_alignment(self):
        s = np.array([0.1, 0.5, 0.9, 0.3])
        pairs = scored(s, -s)
        assert mgs(pairs) == pytest.approx(-1.0)

    def test_matches_rank_oracle_on_1000_pairs(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=1000)
        e = 0.5 * s + rng.normal(size=1000)
        pairs = scored(s, e)
        assert mgs(pairs) == pytest.approx(rank_then_pearson_oracle(s, e), abs=1e-10)

    def test_positive_rescale_invariance(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=50)
        e = rng.normal(size=50)
        base = mgs(scored(s, e))
        scaled = mgs(scored(s, e * 7.3))
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_nan_embedding_gives_no_mgs(self):
        from graphmgs.fingerprints import make_fingerprints
        from graphmgs.graphs import GraphCorpus
        rng = np.random.default_rng(16)
        corpus = GraphCorpus(graphs=tuple(random_attributed_graph(rng) for _ in range(30)))
        fps = make_fingerprints(corpus, "morgan", radius=2)
        embs = {g.id: rng.normal(size=4) for g in corpus}
        embs[corpus.graphs[5].id][:] = np.nan
        pairs = build_pair_set(corpus,
                               lambda picks: np.stack([embs[corpus.graphs[i].id] for i in picks]),
                               fps, *sample_pair_indices(30, 200, seed=1))
        assert np.isnan(pairs.embedding).any()
        with pytest.raises(NumericError, match="non-finite"):
            mgs(pairs)


class TestBuildPairSet:
    def _tiny_corpus(self):
        from graphmgs.graphs import GraphCorpus
        rng = np.random.default_rng(7)
        graphs = tuple(random_attributed_graph(rng, n_min=4, n_max=6)
                       for _ in range(3))
        return GraphCorpus(graphs=graphs)

    def _fps(self, corpus):
        from graphmgs.fingerprints import topological_fingerprint
        return {g.id: topological_fingerprint(g, max_path_len=3) for g in corpus}

    def test_exhaustive_three_graphs(self):
        corpus = self._tiny_corpus()
        fps = self._fps(corpus)
        pairs = build_pair_set(corpus,
                               lambda picks: np.stack([np.ones(4) + corpus.graphs[i].node_count
                                                       for i in picks]),
                               fps, *np.triu_indices(3, k=1))
        assert len(pairs.structural) == 3
        assert len(set(zip(pairs.rows.tolist(), pairs.cols.tolist()))) == 3

    def test_too_many_pairs(self):
        with pytest.raises(DataError, match="cannot sample 4 pairs from 3 graphs"):
            sample_pair_indices(3, n_pairs=4, seed=0)

    @pytest.mark.parametrize("n_pairs", [0, 1, 2.5, True])
    def test_fewer_than_two_pairs_rejected(self, n_pairs):
        with pytest.raises(DataError, match="at least 2 pairs"):
            sample_pair_indices(3, n_pairs=n_pairs, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            sample_pair_indices(3, n_pairs=2, seed=seed)

    def test_seed_determinism(self):
        def drawn(seed):
            return np.stack(sample_pair_indices(30, 10, seed=seed)).tobytes()

        assert drawn(9) == drawn(9)
        assert drawn(9) != drawn(10)

    @pytest.mark.parametrize("rows, cols, match", [
        ([0, 1], [1], "1-D integer arrays of one length"),
        ([[0, 1]], [[1, 2]], "1-D integer arrays of one length"),
        ([0.0, 1.0], [1.0, 2.0], "1-D integer arrays of one length"),
        ([0], [1], "at least 2"),
        ([0, 1], [1, 3], "two different graphs of the 3"),
        ([-1, 0], [1, 2], "two different graphs of the 3"),
        ([0, 2], [1, 2], "two different graphs of the 3")],
        ids=["lengths", "2-D", "float", "one-pair", "past-end", "negative", "self-pair"])
    def test_bad_pair_indices_rejected_before_encoding(self, rows, cols, match):
        corpus = self._tiny_corpus()
        encoded = []
        with pytest.raises(DataError, match=match):
            build_pair_set(corpus, lambda picks: encoded.append(picks), self._fps(corpus),
                           np.asarray(rows), np.asarray(cols))
        assert encoded == []

    def test_scores_exactly_the_given_pairs(self):
        # unsorted and repeated pairs, either way round, are scored as given
        corpus = self._tiny_corpus()
        fps = self._fps(corpus)
        embs = np.random.default_rng(8).normal(size=(3, 4))
        rows, cols = np.array([2, 0, 1, 2]), np.array([0, 1, 2, 0])
        pairs = build_pair_set(corpus, lambda picks: embs[picks], fps, rows, cols)
        assert pairs.rows.tolist() == rows.tolist() and pairs.cols.tolist() == cols.tolist()
        assert pairs.ids.tolist() == [g.id for g in corpus]
        graphs = list(corpus)
        assert pairs.structural.tolist() == [structural(fps[graphs[i].id], fps[graphs[j].id])
                                             for i, j in zip(rows, cols)]

    def test_twin_graphs_hit_maximum(self):
        from graphmgs.graphs import GraphCorpus, LabeledGraph
        g1 = LabeledGraph(id="t1", node_count=2, edges=((0, 1),),
                          node_attrs=((1,), (1,)), edge_attrs=((0,),))
        g2 = LabeledGraph(id="t2", node_count=2, edges=((0, 1),),
                          node_attrs=((1,), (1,)), edge_attrs=((0,),))
        g3 = LabeledGraph(id="t3", node_count=2, edges=((0, 1),),
                          node_attrs=((2,), (3,)), edge_attrs=((1,),))
        corpus = GraphCorpus(graphs=(g1, g2, g3))
        fps = self._fps(corpus)
        pairs = build_pair_set(corpus,
                               lambda picks: np.asarray([[1.0, corpus.graphs[i].node_attrs[0][0]]
                                                         for i in picks]),
                               fps, *np.triu_indices(3, k=1))
        by_id = dict(zip(zip(pairs.ids[pairs.rows], pairs.ids[pairs.cols]), pairs.structural))
        assert by_id[("t1", "t2")] == 1.0
        assert max(by_id.values()) == by_id[("t1", "t2")]

    def test_mixed_schemes_rejected(self):
        with pytest.raises(DataError, match=r"topological\(\) of length 2 and spectral\(\)"):
            structural_similarity(bitfp([1, 0]),
                                  SpectralFingerprint((1.0,)))

    def test_csv_export(self, tmp_path):
        corpus = self._tiny_corpus()
        fps = self._fps(corpus)
        pairs = build_pair_set(corpus,
                               lambda picks: np.stack([np.ones(4) + corpus.graphs[i].node_count
                                                       for i in picks]),
                               fps, *np.triu_indices(3, k=1))
        path = tmp_path / "pairs.csv"
        write_pair_csv(pairs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_i,pair_j,structural_sim,embedding_sim"
        assert len(lines) == 4
        # ids that need no quoting are written as plain comma-joined fields
        ids = pairs.ids
        assert path.read_bytes() == "".join(
            ["pair_i,pair_j,structural_sim,embedding_sim\n"]
            + [f"{ids[i]},{ids[j]},{s:.17g},{e:.17g}\n" for i, j, s, e
               in zip(pairs.rows, pairs.cols, pairs.structural, pairs.embedding)]).encode()

    def test_csv_ids_round_trip(self, tmp_path):
        # csv.writer leaves a lone "\r" unquoted, and csv.reader ends a row at it
        ids = ["mol,1", 'say "hi"', "two\nlines", "plain", '"', ",", "a\rb", "\r"]
        structural = np.array([0.1, 1 / 3, -2.5e-300, 0.5])
        embedding = np.array([np.nan, -0.0, 1.0, 0.25])
        pairs = SimilarityPairSet(ids=np.asarray(ids, dtype=object), rows=np.array([0, 2, 4, 6]),
                                  cols=np.array([1, 3, 5, 7]), structural=structural,
                                  embedding=embedding)
        path = tmp_path / "pairs.csv"
        write_pair_csv(pairs, path)
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["pair_i", "pair_j", "structural_sim", "embedding_sim"]
        assert [row[:2] for row in rows] == [ids[k:k + 2] for k in range(0, 8, 2)]
        assert np.array([float(row[2]) for row in rows]).tobytes() == structural.tobytes()
        assert np.array([float(row[3]) for row in rows]).tobytes() == embedding.tobytes()


def while_loop_average_ranks(x):
    """The scan that ``average_ranks`` replaced: walk the sorted order and
    average the positions of each run of equal values."""
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


def random_fingerprints(scheme, rng, count=25):
    from graphmgs.fingerprints import morgan_fingerprint, topological_fingerprint
    graphs = [random_attributed_graph(rng, n_min=1, n_max=10) for _ in range(count)]
    if scheme == "spectral":
        return [spectral_fingerprint(g, k=6) for g in graphs]
    if scheme == "morgan":
        fps = [morgan_fingerprint(g, radius=2, nbits=256) for g in graphs]
    else:
        fps = [topological_fingerprint(g, max_path_len=4, nbits=256) for g in graphs]
    zero = BitFingerprint(bits=np.zeros(256, dtype=bool), scheme=scheme, params=fps[0].params)
    return fps + [zero, zero]


class TestSamplePairIndices:
    def test_matches_triu_oracle_bit_for_bit(self):
        for count in range(3, 90):  # 2 graphs make 1 pair, too few to sample
            total = count * (count - 1) // 2
            for seed in (0, 1, 12345):
                for n_pairs in sorted({2, max(2, total // 3), total}):
                    got = sample_pair_indices(count, n_pairs, seed)
                    want = sample_pairs(count, n_pairs, seed)
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (
                            count, seed, n_pairs)

    def test_large_count_matches_oracle(self):
        # below 1/50 of the positions, numpy's choice switches from a shuffle
        # to Floyd's algorithm, which the small counts above never reach
        for seed in (3, 4):
            got = sample_pair_indices(2000, 1000, seed)
            want = sample_pairs(2000, 1000, seed)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_memory_grows_with_count_not_its_square(self):
        # np.triu_indices(3000) alone holds 2 x 4.5M int64s, about 69 MiB
        sample_pair_indices(3000, 1000, seed=0)
        tracemalloc.start()
        try:
            rows, cols = sample_pair_indices(3000, 1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.all(rows < cols) and cols.max() < 3000

    @pytest.mark.parametrize("count", [-3, 2.0, True])
    def test_count_must_be_a_non_negative_integer(self, count):
        with pytest.raises(DataError, match="graph count must be an integer >= 0"):
            sample_pair_indices(count, n_pairs=2, seed=0)


class TestPairScorer:
    @pytest.mark.parametrize("scheme", ["topological", "morgan", "spectral"])
    def test_structural_matches_scalar_exactly(self, scheme):
        rng = np.random.default_rng(11)
        fps = random_fingerprints(scheme, rng)
        rows = rng.integers(0, len(fps), size=400)
        cols = rng.integers(0, len(fps), size=400)
        if scheme != "spectral":  # the two all-zero vectors, with each other and themselves
            z = len(fps) - 1
            rows = np.append(rows, [z, z, z - 1])
            cols = np.append(cols, [z - 1, z, z - 1])
        expected = [structural(fps[i], fps[j]) for i, j in zip(rows, cols)]
        got = structural_pair_sims(fps, rows, cols)
        assert got.tobytes() == np.asarray(expected).tobytes()
        if scheme != "spectral":
            assert got[-3:].tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("nbits", [1, 8, 64, 2048])
    def test_popcount_tanimoto_matches_scalar_oracle(self, nbits):
        # every pair of 50 fingerprints, more pairs than one run, the last two all-zero
        rng = np.random.default_rng(nbits)
        fps = [bitfp(rng.random(nbits) < density) for density in rng.uniform(0.0, 0.6, 48)]
        fps += [bitfp(np.zeros(nbits, dtype=bool))] * 2
        rows, cols = np.triu_indices(len(fps), k=1)
        assert len(rows) > TANIMOTO_RUN_PAIRS
        got = structural_pair_sims(fps, rows, cols)
        expected = [tanimoto(fps[i], fps[j]) for i, j in zip(rows, cols)]
        assert got.tobytes() == np.asarray(expected).tobytes()
        assert got[-1] == 1.0

    def test_tanimoto_memory_bounded_by_packed_bits(self):
        # 400 fingerprints of 8,192 bits: a float64 copy of the bits alone is 26 MB
        rng = np.random.default_rng(18)
        n, nbits = 400, 8192
        fps = [bitfp(rng.random(nbits) < 0.1) for _ in range(n)]
        rows, cols = rng.integers(0, n, size=(2, 10))
        tracemalloc.start()
        try:
            got = structural_pair_sims(fps, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bits stacked as bytes and their packed words, plus 256 KiB
        assert peak < n * nbits * 9 // 8 + (1 << 18)
        assert got.tolist() == [tanimoto(fps[i], fps[j]) for i, j in zip(rows, cols)]

    def test_cosines_match_scalar(self):
        rng = np.random.default_rng(12)
        embs = [rng.normal(size=7) * 10.0 ** rng.uniform(-3, 3) for _ in range(30)]
        rows = rng.integers(0, 30, size=500)
        cols = rng.integers(0, 30, size=500)
        expected = np.asarray([cosine(embs[i], embs[j]) for i, j in zip(rows, cols)])
        got = cosine_pair_sims(embs, rows, cols).data
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_build_pair_set_matches_scalar_loop(self):
        from graphmgs.graphs import GraphCorpus
        rng = np.random.default_rng(13)
        corpus = GraphCorpus(graphs=tuple(random_attributed_graph(rng) for _ in range(20)))
        fps = {g.id: fp for g, fp in zip(corpus, random_fingerprints("topological", rng, 20))}
        embs = {g.id: rng.normal(size=5) for g in corpus}
        calls = []

        def encoder(picks):
            calls.append(picks.tolist())
            return np.stack([embs[corpus.graphs[i].id] for i in picks])

        rows, cols = sample_pair_indices(len(corpus), 120, seed=3)
        pairs = build_pair_set(corpus, encoder, fps, rows, cols)
        graphs = list(corpus)
        # one call, with the positions of the graphs the pairs involve, ascending
        assert calls == [sorted(set(rows.tolist()) | set(cols.tolist()))]
        id_pairs = [(graphs[i].id, graphs[j].id) for i, j in zip(rows, cols)]
        assert list(zip(pairs.ids[pairs.rows], pairs.ids[pairs.cols])) == id_pairs
        expected = [structural(fps[a], fps[b]) for a, b in id_pairs]
        assert pairs.structural.tobytes() == np.asarray(expected).tobytes()
        cos = [cosine(embs[a], embs[b]) for a, b in id_pairs]
        assert np.max(np.abs(pairs.embedding - cos)) < 1e-12

    @pytest.mark.parametrize("scheme", ["topological", "spectral"])
    def test_every_pair_matches_scalar_oracles(self, scheme):
        # all pairs of np.triu_indices, as an exact held-out MGS would score them
        from graphmgs.graphs import GraphCorpus
        rng = np.random.default_rng(17)
        fp_list = random_fingerprints(scheme, rng)  # the bit schemes' end in two all-zero
        n = len(fp_list)
        corpus = GraphCorpus(graphs=tuple(random_attributed_graph(rng) for _ in range(n)))
        fps = {g.id: fp for g, fp in zip(corpus, fp_list)}
        embs = rng.normal(size=(n, 6))
        rows, cols = np.triu_indices(n, k=1)
        pairs = build_pair_set(corpus, lambda picks: embs[picks], fps, rows, cols)
        graphs = list(corpus)
        expected = [structural(fps[graphs[i].id], fps[graphs[j].id]) for i, j in zip(rows, cols)]
        assert len(expected) == n * (n - 1) // 2
        assert pairs.structural.tobytes() == np.asarray(expected).tobytes()
        cos = [cosine(embs[i], embs[j]) for i, j in zip(rows, cols)]
        assert np.max(np.abs(pairs.embedding - cos)) < 1e-12

    def test_mixed_schemes_rejected(self):
        with pytest.raises(DataError, match=r"topological\(\) of length 2 and spectral\(\)"):
            structural_pair_sims([bitfp([1, 0]), SpectralFingerprint((1.0,))], [0], [1])

    def test_nbits_mismatch_rejected(self):
        with pytest.raises(DataError, match=r"length 2 and topological\(\) of length 4"):
            structural_pair_sims([bitfp([1, 0]), bitfp([1, 0, 0, 0])], [0], [1])

    def test_k_mismatch_rejected(self):
        fps = [SpectralFingerprint((1.0,)), SpectralFingerprint((1.0, 0.0))]
        with pytest.raises(DataError, match=r"length 1 and spectral\(\) of length 2"):
            structural_pair_sims(fps, [0], [1])

    def test_dimension_mismatch_rejected(self):
        from graphmgs.graphs import GraphCorpus
        rng = np.random.default_rng(15)
        corpus = GraphCorpus(graphs=tuple(random_attributed_graph(rng) for _ in range(12)))
        fps = {g.id: fp for g, fp in zip(corpus, random_fingerprints("morgan", rng, 12))}
        with pytest.raises(DataError, match="dimension mismatch"):
            build_pair_set(corpus, lambda picks: np.ones((len(picks) - 1, 3)), fps,
                           *np.triu_indices(12, k=1))

    def test_zero_norm_embedding_rejected_in_evaluation(self):
        from graphmgs.graphs import GraphCorpus
        rng = np.random.default_rng(14)
        corpus = GraphCorpus(graphs=tuple(random_attributed_graph(rng) for _ in range(6)))
        fps = {g.id: fp for g, fp in zip(corpus, random_fingerprints("morgan", rng, 6))}
        zero_id = corpus.graphs[2].id
        with pytest.raises(NumericError, match="zero-norm"):
            build_pair_set(corpus, lambda picks: np.asarray(
                               [np.zeros(3) if corpus.graphs[i].id == zero_id else np.ones(3)
                                for i in picks]),
                           fps, *np.triu_indices(6, k=1))


class TestAverageRanks:
    @pytest.mark.parametrize("values", [
        [], [2.5], [1.0, 1.0, 1.0], [3.0, 1.0, 3.0, 2.0, 1.0, 3.0],
        [np.nan], [np.nan, 1.0, np.nan, 1.0, 0.0], [-0.0, 0.0, np.inf, -np.inf, np.inf],
    ])
    def test_matches_while_loop(self, values):
        expected = while_loop_average_ranks(values)
        assert average_ranks(values).tobytes() == expected.tobytes()

    def test_matches_while_loop_tie_heavy_random(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            x = rng.integers(0, int(rng.integers(1, 6)), size=int(rng.integers(0, 80)))
            x = x.astype(np.float64)
            x[rng.random(len(x)) < 0.05] = np.nan
            assert average_ranks(x).tobytes() == while_loop_average_ranks(x).tobytes()


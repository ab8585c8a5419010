import numpy as np
import pytest

from graphmgs.errors import DataError, NumericError
from graphmgs.fingerprints import BitFingerprint
from graphmgs.similarity import (SimilarityPairSet, average_ranks, build_pair_set,
                                 cosine_similarity, mgs, pearson,
                                 sample_pairs, spearman, spectral_distance,
                                 structural_similarity, tanimoto, write_pair_csv)
from graphmgs.spectral import SpectralFingerprint

from conftest import random_attributed_graph


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


class TestTanimotoDice:
    def test_identical(self):
        f = bitfp([1, 0, 1, 0])
        assert tanimoto(f, f) == 1.0

    def test_partial_overlap(self):
        a, b = bitfp([1, 1, 0, 0]), bitfp([1, 0, 1, 0])
        assert tanimoto(a, b) == pytest.approx(1 / 3)

    def test_disjoint(self):
        a, b = bitfp([1, 1, 0, 0]), bitfp([0, 0, 1, 1])
        assert tanimoto(a, b) == 0.0

    def test_both_zero_convention(self):
        z = bitfp([0, 0, 0, 0])
        assert tanimoto(z, z) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            tanimoto(bitfp([1, 0]), bitfp([1, 0, 0, 0]))

    def test_tanimoto_matches_set_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10 ** 4):
            a = bitfp(rng.random(32) > 0.6)
            b = bitfp(rng.random(32) > 0.6)
            sa, sb = set(np.flatnonzero(a.bits)), set(np.flatnonzero(b.bits))
            expected = len(sa & sb) / len(sa | sb) if sa | sb else 1.0
            assert tanimoto(a, b) == expected

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = bitfp(rng.random(16) > 0.5)
            b = bitfp(rng.random(16) > 0.5)
            assert tanimoto(a, b) == tanimoto(b, a)


class TestSpectralDistance:
    def test_identical(self):
        f = SpectralFingerprint(eigenvalues=(3.0, 2.0), k=2)
        assert spectral_distance(f, f) == 0.0

    def test_squared_euclidean(self):
        a = SpectralFingerprint(eigenvalues=(3.0, 3.0), k=2)
        b = SpectralFingerprint(eigenvalues=(4.0, 2.0), k=2)
        assert spectral_distance(a, b) == pytest.approx(2.0)

    def test_padding_case(self):
        a = SpectralFingerprint(eigenvalues=(0.0, 0.0), k=2)
        b = SpectralFingerprint(eigenvalues=(2.0, 0.0), k=2)
        assert spectral_distance(a, b) == pytest.approx(4.0)

    def test_k_mismatch(self):
        with pytest.raises(DataError):
            spectral_distance(SpectralFingerprint((1.0,), 1),
                              SpectralFingerprint((1.0, 0.0), 2))


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


class TestMgs:
    def test_perfect_alignment(self):
        s = np.array([0.1, 0.5, 0.9, 0.3])
        pairs = SimilarityPairSet(structural=s, embedding=s.copy(),
                                  pair_ids=(("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")))
        assert mgs(pairs) == pytest.approx(1.0)

    def test_anti_alignment(self):
        s = np.array([0.1, 0.5, 0.9, 0.3])
        pairs = SimilarityPairSet(structural=s, embedding=-s,
                                  pair_ids=(("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")))
        assert mgs(pairs) == pytest.approx(-1.0)

    def test_matches_rank_oracle_on_1000_pairs(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=1000)
        e = 0.5 * s + rng.normal(size=1000)
        pairs = SimilarityPairSet(structural=s, embedding=e,
                                  pair_ids=tuple((f"g{i}", f"h{i}") for i in range(1000)))
        assert mgs(pairs) == pytest.approx(rank_then_pearson_oracle(s, e), abs=1e-10)

    def test_positive_rescale_invariance(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=50)
        e = rng.normal(size=50)
        ids = tuple((f"a{i}", f"b{i}") for i in range(50))
        base = mgs(SimilarityPairSet(structural=s, embedding=e, pair_ids=ids))
        scaled = mgs(SimilarityPairSet(structural=s, embedding=e * 7.3, pair_ids=ids))
        assert scaled == pytest.approx(base, abs=1e-12)


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
        pairs = build_pair_set(corpus, lambda g: np.ones(4) + g.node_count, fps,
                               n_pairs=3, seed=0)
        assert len(pairs.structural) == 3
        assert len(set(pairs.pair_ids)) == 3

    def test_too_many_pairs(self):
        corpus = self._tiny_corpus()
        with pytest.raises(DataError, match="cannot sample"):
            build_pair_set(corpus, lambda g: np.ones(4), self._fps(corpus),
                           n_pairs=4, seed=0)

    def test_seed_determinism(self):
        assert sample_pairs(30, 10, seed=9) == sample_pairs(30, 10, seed=9)
        assert sample_pairs(30, 10, seed=9) != sample_pairs(30, 10, seed=10)

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
        pairs = build_pair_set(corpus, lambda g: np.asarray([1.0, g.node_attrs[0][0]]),
                               fps, n_pairs=3, seed=1)
        by_id = dict(zip(pairs.pair_ids, pairs.structural))
        assert by_id[("t1", "t2")] == 1.0
        assert max(by_id.values()) == by_id[("t1", "t2")]

    def test_mixed_schemes_rejected(self):
        with pytest.raises(DataError, match="mixed"):
            structural_similarity(bitfp([1, 0]),
                                  SpectralFingerprint((1.0,), 1))

    def test_csv_export(self, tmp_path):
        corpus = self._tiny_corpus()
        fps = self._fps(corpus)
        pairs = build_pair_set(corpus, lambda g: np.ones(4) + g.node_count, fps,
                               n_pairs=3, seed=0)
        path = tmp_path / "pairs.csv"
        write_pair_csv(pairs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_i,pair_j,structural_sim,embedding_sim"
        assert len(lines) == 4

import numpy as np
import pytest

from graphmgs.errors import DataError
from graphmgs.graphs import (GraphCorpus, LabeledGraph, corpus_homophily,
                             homophily_ratio, load_corpus, save_corpus)


def make_graph(gid="g", n=3, edges=((0, 1), (0, 2), (1, 2)), labels=(0, 0, 1)):
    return LabeledGraph(
        id=gid, node_count=n, edges=tuple(edges),
        node_attrs=tuple((0,) for _ in range(n)),
        edge_attrs=tuple((0,) for _ in edges),
        node_labels=tuple(labels) if labels is not None else None)


TRIANGLE_LINE = ('{"id": "tri", "n": 3, "edges": [[0,1],[0,2],[1,2]], '
                 '"node_attrs": [[0],[0],[1]], "edge_attrs": [[0],[0],[0]], '
                 '"node_labels": [0,0,1]}')


class TestLoadCorpus:
    def test_triangle_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(TRIANGLE_LINE + "\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert len(corpus) == 1
        g = corpus.graphs[0]
        assert g.node_count == 3 and g.edge_count == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        corpus = load_corpus(path)
        assert len(corpus) == 0 and corpus.task_count == 0

    def test_edge_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "b", "n": 3, "edges": [[0,5]], '
                        '"node_attrs": [[0],[0],[0]], "edge_attrs": [[0]]}\n',
                        encoding="utf-8")
        with pytest.raises(DataError, match="out of range"):
            load_corpus(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(TRIANGLE_LINE + "\n{oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(TRIANGLE_LINE + "\n" + TRIANGLE_LINE + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate graph id"):
            load_corpus(path)

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        graphs = []
        for i in range(10):
            n = int(rng.integers(3, 9))
            possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = rng.choice(len(possible), size=min(n, len(possible)), replace=False)
            edges = tuple(possible[k] for k in sorted(take))
            graphs.append(LabeledGraph(
                id=f"g{i}", node_count=n, edges=edges,
                node_attrs=tuple(tuple(int(x) for x in rng.integers(0, 4, size=2))
                                 for _ in range(n)),
                edge_attrs=tuple(tuple(int(x) for x in rng.integers(0, 3, size=1))
                                 for _ in edges),
                node_labels=tuple(int(x) for x in rng.integers(0, 2, size=n)),
                graph_labels=(int(rng.integers(0, 2)), None)))
        corpus = GraphCorpus(graphs=tuple(graphs), task_count=2, name="rt")
        path = tmp_path / "rt.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path, name="rt")
        assert loaded.task_count == 2
        for a, b in zip(corpus, loaded):
            assert a == b


class TestGraphInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match="self-loop"):
            make_graph(edges=((0, 0),), labels=None)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DataError, match="duplicate edge"):
            LabeledGraph(id="d", node_count=2, edges=((0, 1), (1, 0)),
                         node_attrs=((0,), (0,)), edge_attrs=((0,), (0,)))

    def test_label_length_checked(self):
        with pytest.raises(DataError, match="node_labels"):
            make_graph(labels=(0, 1))

    def test_task_count_mismatch(self):
        g = LabeledGraph(id="x", node_count=1, edges=(), node_attrs=((0,),),
                         edge_attrs=(), graph_labels=(1, 0))
        with pytest.raises(DataError, match="task labels"):
            GraphCorpus(graphs=(g,), task_count=1)


class TestHomophily:
    def test_triangle_one_third(self):
        assert homophily_ratio(make_graph()) == pytest.approx(1 / 3)

    def test_uniform_labels(self):
        assert homophily_ratio(make_graph(labels=(1, 1, 1))) == 1.0

    def test_bipartite_zero(self):
        g = LabeledGraph(id="k22", node_count=4,
                         edges=((0, 2), (0, 3), (1, 2), (1, 3)),
                         node_attrs=((0,),) * 4, edge_attrs=((0,),) * 4,
                         node_labels=(0, 0, 1, 1))
        assert homophily_ratio(g) == 0.0

    def test_missing_labels(self):
        with pytest.raises(DataError, match="missing node labels"):
            homophily_ratio(make_graph(labels=None))

    def test_zero_edges(self):
        g = LabeledGraph(id="e", node_count=2, edges=(), node_attrs=((0,), (0,)),
                         edge_attrs=(), node_labels=(0, 1))
        with pytest.raises(DataError, match="undefined"):
            homophily_ratio(g)

    def test_attribute_selector(self):
        g = LabeledGraph(id="a", node_count=2, edges=((0, 1),),
                         node_attrs=((3, 0), (3, 1)), edge_attrs=((0,),))
        assert homophily_ratio(g, label_attr=0) == 1.0
        assert homophily_ratio(g, label_attr=1) == 0.0

    def test_in_unit_interval_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
            k = int(rng.integers(1, len(possible) + 1))
            take = rng.choice(len(possible), size=k, replace=False)
            g = LabeledGraph(
                id="f", node_count=n, edges=tuple(possible[t] for t in sorted(take)),
                node_attrs=tuple((0,) for _ in range(n)),
                edge_attrs=tuple((0,) for _ in range(k)),
                node_labels=tuple(int(x) for x in rng.integers(0, 4, size=n)))
            assert 0.0 <= homophily_ratio(g) <= 1.0

    def test_invariant_under_relabeling_and_permutation(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = rng.choice(len(possible), size=n, replace=False)
            labels = rng.integers(0, 3, size=n)
            g = LabeledGraph(
                id="p", node_count=n, edges=tuple(possible[t] for t in sorted(take)),
                node_attrs=tuple((0,) for _ in range(n)),
                edge_attrs=tuple((0,) for _ in range(n)),
                node_labels=tuple(int(x) for x in labels))
            h = homophily_ratio(g)
            # class-id bijection
            remap = {0: 7, 1: 5, 2: 9}
            g2 = LabeledGraph(id="p", node_count=n, edges=g.edges,
                              node_attrs=g.node_attrs, edge_attrs=g.edge_attrs,
                              node_labels=tuple(remap[y] for y in g.node_labels))
            assert homophily_ratio(g2) == pytest.approx(h)
            perm = list(rng.permutation(n))
            assert homophily_ratio(g.permuted(perm)) == pytest.approx(h)


class TestCorpusHomophily:
    def test_two_triangles_edge_weighted(self):
        a = make_graph("a", labels=(0, 0, 1))      # 1 of 3 edges same-label
        b = make_graph("b", labels=(1, 1, 1))      # 3 of 3
        corpus = GraphCorpus(graphs=(a, b))
        assert corpus_homophily(corpus) == pytest.approx(4 / 6)

    def test_single_graph_matches_ratio(self):
        g = make_graph()
        corpus = GraphCorpus(graphs=(g,))
        assert corpus_homophily(corpus) == pytest.approx(homophily_ratio(g))

    def test_uniform_corpus(self):
        corpus = GraphCorpus(graphs=(make_graph("a", labels=(2, 2, 2)),
                                     make_graph("b", labels=(3, 3, 3))))
        assert corpus_homophily(corpus) == 1.0

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            corpus_homophily(GraphCorpus(graphs=()))

    def test_unweighted_flag(self):
        a = make_graph("a", labels=(0, 0, 1))
        b = make_graph("b", labels=(1, 1, 1))
        corpus = GraphCorpus(graphs=(a, b))
        assert corpus_homophily(corpus, edge_weighted=False) == pytest.approx((1 / 3 + 1.0) / 2)

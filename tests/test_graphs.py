import json
import re

import numpy as np
import pytest

from graphmgs.errors import DataError
from graphmgs.graphs import (GraphCorpus, LabeledGraph, corpus_homophily, degrees_of,
                             homophily_ratio, load_corpus, save_corpus)

from spec import permuted


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

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(TRIANGLE_LINE.encode("utf-8") + b"\n\xff\n")
        with pytest.raises(DataError, match="line 2: invalid JSON .'utf-8' codec"):
            load_corpus(path)

    @pytest.mark.parametrize("field, value", [
        ("node_labels", ["x", 1, 0]), ("node_labels", 5), ("node_labels", [0, 1.0, 1]),
        ("graph_labels", ["x"]), ("graph_labels", [0.7]), ("graph_labels", [True]),
        ("node_attrs", [[0], [1.5], [1]]), ("node_attrs", [[0], ["1"], [1]]),
        ("edge_attrs", [[0], [False], [0]]), ("edges", [[0, 1], [0, 2.0], [1, 2]]),
        ("n", 3.0), ("n", True), ("id", None), ("id", ["a"]), ("id", 1.5), ("id", True),
        ("id", {"x": 1})])
    def test_non_integer_field_names_line(self, tmp_path, field, value):
        # only JSON integers parse (and strings for the id): floats, booleans and
        # the rest are rejected rather than cast, so 0.7 is not read as the label 0
        record = dict(json.loads(TRIANGLE_LINE), id="bad")
        record[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(TRIANGLE_LINE + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_graph_label_outside_binary_rejected(self, tmp_path):
        record = dict(json.loads(TRIANGLE_LINE), id="bad", graph_labels=[2])
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1: .*graph label 2"):
            load_corpus(path)

    def test_integer_id_loads_as_decimal_string(self, tmp_path):
        path = tmp_path / "int_id.jsonl"
        path.write_text(json.dumps(dict(json.loads(TRIANGLE_LINE), id=7)) + "\n",
                        encoding="utf-8")
        assert [g.id for g in load_corpus(path)] == ["7"]

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

    def test_edge_stored_high_to_low_rejected(self):
        with pytest.raises(DataError, match=r"edge \(2,0\) must be stored as \(0,2\)"):
            make_graph(edges=((2, 0), (1, 2)), labels=None)

    @pytest.mark.parametrize("edges", [((2, 0), (1, 2)), ((0, 2), (2, 1)), ((0, 2), (1, 2))])
    def test_a_graph_that_constructs_round_trips(self, tmp_path, edges):
        try:
            g = make_graph(edges=edges, labels=None)
        except DataError as exc:
            assert "must be stored as" in str(exc)
            return
        path = tmp_path / "one.jsonl"
        save_corpus(GraphCorpus(graphs=(g,)), path)
        assert load_corpus(path).graphs == (g,)

    def test_label_length_checked(self):
        with pytest.raises(DataError, match="node_labels"):
            make_graph(labels=(0, 1))

    @pytest.mark.parametrize("labels", [(2,), (0, -1), (None, 2)])
    def test_graph_label_outside_binary_rejected(self, labels):
        # a label other than 0, 1 or missing would enter fine-tuning's BCE as a target
        with pytest.raises(DataError, match=f"graph 'x': graph label {labels[-1]}"):
            LabeledGraph(id="x", node_count=1, edges=(), node_attrs=((0,),),
                         edge_attrs=(), graph_labels=labels)

    @pytest.mark.parametrize("count", [2.0, np.float64(2), True, -1],
                             ids=["float", "numpy-float", "bool", "negative"])
    def test_node_count_must_be_a_non_negative_integer(self, count):
        # a float count would fail later, in adjacency() and in slicing
        with pytest.raises(DataError, match="graph 'x': node_count"):
            LabeledGraph(id="x", node_count=count, edges=((0, 1),),
                         node_attrs=((0,), (0,)), edge_attrs=((0,),))

    @pytest.mark.parametrize("field, value, bad", [
        ("edges", ((0, 1), (0.5, 2)), "0.5"), ("edges", ((0, 1), (np.int64(0), 2)), "np.int64"),
        ("edges", ((True, 2),), "True"), ("node_attrs", ((0,), (1.7,), (1,)), "1.7"),
        ("node_attrs", ((0,), (np.int64(1),), (1,)), "np.int64"),
        ("edge_attrs", ((0,), (False,)), "False"), ("node_labels", (0, 1.0, 1), "1.0")])
    def test_non_integer_value_rejected(self, field, value, bad):
        # the rule load_corpus reads by: 1.7 would be encoded as attribute 1, and an
        # endpoint 0.5 counted as node 0 by degrees() but not indexed by adjacency()
        fields = dict(id="x", node_count=3, edges=((0, 1), (0, 2)),
                      node_attrs=((0,), (1,), (1,)), edge_attrs=((0,), (0,)),
                      node_labels=(0, 1, 1))
        fields[field] = value
        if field == "edges":
            fields["edge_attrs"] = ((0,),) * len(value)
        with pytest.raises(DataError, match=rf"graph 'x': {field}: expected an integer, "
                                            rf"got {re.escape(bad)}"):
            LabeledGraph(**fields)

    @pytest.mark.parametrize("labels", [(True,), (1.0,), (np.int64(1),), (None, False)],
                             ids=["bool", "float", "numpy-int", "bool-after-missing"])
    def test_non_integer_graph_label_rejected(self, tmp_path, labels):
        # equal to 0 or 1 but not an int: load_corpus would refuse what
        # save_corpus wrote, so the constructor refuses it too
        with pytest.raises(DataError, match=rf"graph 'x': graph_labels: expected an integer, "
                                            rf"got {re.escape(repr(labels[-1]))}"):
            LabeledGraph(id="x", node_count=1, edges=(), node_attrs=((0,),),
                         edge_attrs=(), graph_labels=labels)
        if isinstance(labels[-1], np.generic):
            return  # JSON has no numpy integers
        record = dict(json.loads(TRIANGLE_LINE), graph_labels=list(labels))
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1: .*graph_labels: expected an integer"):
            load_corpus(path)

    def test_integer_and_missing_graph_labels_round_trip(self, tmp_path):
        graphs = tuple(LabeledGraph(id=f"g{i}", node_count=1, edges=(), node_attrs=((0,),),
                                    edge_attrs=(), graph_labels=labels)
                       for i, labels in enumerate([(0, 1), (None, 0), (1, None)]))
        corpus = GraphCorpus(graphs=graphs, task_count=2)
        path = tmp_path / "labels.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.graphs == graphs
        assert all(type(y) is int for g in loaded for y in g.graph_labels if y is not None)

    def test_task_count_mismatch(self):
        g = LabeledGraph(id="x", node_count=1, edges=(), node_attrs=((0,),),
                         edge_attrs=(), graph_labels=(1, 0))
        with pytest.raises(DataError, match="task labels"):
            GraphCorpus(graphs=(g,), task_count=1)

    @pytest.mark.parametrize("count", [-1, 1.5, True, "2"],
                             ids=["negative", "float", "bool", "string"])
    def test_task_count_must_be_a_non_negative_integer(self, count):
        # finetune reads it as the label table's width
        with pytest.raises(DataError, match="corpus task_count must be an integer >= 0"):
            GraphCorpus(graphs=(), task_count=count)


def degrees_oracle(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


@pytest.mark.parametrize("n,edges", [
    (0, ()), (1, ()), (4, ()), (3, ((0, 1), (0, 2), (1, 2))), (5, ((0, 4), (1, 4), (3, 4))),
], ids=["empty", "single-node", "edgeless", "triangle", "star-with-isolated-node"])
def test_degrees_match_loop_oracle(n, edges):
    deg = degrees_of(n, edges)
    assert deg.dtype == np.int64 and deg.shape == (n,)
    assert deg.tolist() == degrees_oracle(n, edges)


def test_degrees_of_random_graphs_match_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        pairs = {(min(u, v), max(u, v)) for u, v in rng.integers(0, n, size=(3 * n, 2)).tolist()
                 if u != v}
        edges = sorted(pairs)
        assert degrees_of(n, edges).tolist() == degrees_oracle(n, edges)


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

    @pytest.mark.parametrize("label_attr", [-1, -5, 0.5, 1.0, True])
    def test_negative_attribute_selector_rejected(self, label_attr):
        # -1 must not read the last column, nor True column 1: with either this
        # graph would score 0.0; a float is not a column
        g = LabeledGraph(id="a", node_count=2, edges=((0, 1),),
                         node_attrs=((3, 0), (3, 1)), edge_attrs=((0,),), node_labels=(1, 1))
        with pytest.raises(DataError, match="label_attr"):
            homophily_ratio(g, label_attr=label_attr)
        with pytest.raises(DataError, match="label_attr"):
            corpus_homophily(GraphCorpus(graphs=(g,)), label_attr=label_attr)

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
            assert homophily_ratio(permuted(g, perm)) == pytest.approx(h)


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

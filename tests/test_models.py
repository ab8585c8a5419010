import numpy as np
import pytest

from graphmgs import tensor as T
from graphmgs.errors import DataError
from graphmgs.graphs import GraphCorpus, LabeledGraph
from graphmgs.models import (GnnConfig, classify, embed_graph, encode_nodes,
                             infer_attr_sizes, init_model, load_model, readout,
                             save_model, spectral_filter_response, with_head)
from graphmgs.spectral import SYM_NORMALIZED, laplacian

from conftest import finite_difference_check, random_attributed_graph

ATTRS = (4, 2)


def small_model(arch, layers=2, hidden=6, task_count=0, cheb_order=3, seed=3):
    cfg = GnnConfig(arch=arch, layers=layers, hidden_dim=hidden,
                    cheb_order=cheb_order, dropout=0.0, attr_sizes=ATTRS,
                    task_count=task_count)
    return init_model(cfg, seed=seed)


def graph_for(rng):
    return random_attributed_graph(rng, n_min=4, n_max=9, attr_sizes=ATTRS)


class TestLayerFormulas:
    def test_gcn_single_node(self):
        # one node, self-loop only: A~ = D~ = 1, so H' = relu(H theta)
        g = LabeledGraph(id="one", node_count=1, edges=(), node_attrs=((0, 0),),
                         edge_attrs=())
        model = small_model("gcn", layers=1, hidden=1)
        model.params["embed.0"].data[:] = np.array([[2.0], [0.0], [0.0], [0.0]])
        model.params["embed.1"].data[:] = 0.0
        model.params["layer0.theta"].data[:] = np.array([[0.5]])
        out = encode_nodes(model, g)
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_gcn_matches_dense_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = graph_for(rng)
            model = small_model("gcn", layers=2, seed=int(rng.integers(1 << 20)))
            out = encode_nodes(model, g).data
            # independent dense evaluation
            a = g.adjacency() + np.eye(g.node_count)
            d = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
            p = d @ a @ d
            h = np.zeros((g.node_count, model.config.hidden_dim))
            for s in range(len(ATTRS)):
                table = model.params[f"embed.{s}"].data
                h += table[[attrs[s] for attrs in g.node_attrs]]
            for l in range(2):
                h = np.maximum(p @ h @ model.params[f"layer{l}.theta"].data, 0.0)
            assert np.max(np.abs(out - h)) < 1e-10

    def test_fcn_ignores_edges(self):
        rng = np.random.default_rng(1)
        g = graph_for(rng)
        stripped = LabeledGraph(id=g.id, node_count=g.node_count, edges=(),
                                node_attrs=g.node_attrs, edge_attrs=())
        model = small_model("fcn")
        a = encode_nodes(model, g).data
        b = encode_nodes(model, stripped).data
        assert a.tobytes() == b.tobytes()

    def test_gcn_symmetric_two_nodes(self):
        g = LabeledGraph(id="pair", node_count=2, edges=((0, 1),),
                         node_attrs=((1, 0), (1, 0)), edge_attrs=((0,),))
        out = encode_nodes(small_model("gcn"), g).data
        assert np.array_equal(out[0], out[1])

    def test_chebnet_k1_is_structure_free(self):
        rng = np.random.default_rng(2)
        g = graph_for(rng)
        stripped = LabeledGraph(id=g.id, node_count=g.node_count, edges=(),
                                node_attrs=g.node_attrs, edge_attrs=())
        model = small_model("chebnet", cheb_order=1)
        assert np.array_equal(encode_nodes(model, g).data,
                              encode_nodes(model, stripped).data)

    def test_chebnet_recurrence_matches_explicit_polynomial(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = graph_for(rng)
            model = small_model("chebnet", layers=1, cheb_order=4,
                                seed=int(rng.integers(1 << 20)))
            out = encode_nodes(model, g).data
            lhat = laplacian(g, SYM_NORMALIZED).matrix - np.eye(g.node_count)
            h = np.zeros((g.node_count, model.config.hidden_dim))
            for s in range(len(ATTRS)):
                table = model.params[f"embed.{s}"].data
                h += table[[attrs[s] for attrs in g.node_attrs]]
            # explicit Chebyshev polynomials via dense powers
            t_mats = [np.eye(g.node_count), lhat]
            while len(t_mats) < 4:
                t_mats.append(2 * lhat @ t_mats[-1] - t_mats[-2])
            acc = np.zeros_like(h)
            for k in range(4):
                acc += t_mats[k] @ h @ model.params[f"layer0.theta{k}"].data
            assert np.max(np.abs(out - np.maximum(acc, 0.0))) < 1e-8

    def test_gin_sum_aggregation(self):
        # identity-ish check: eps=0, MLP = identity pass-through on first coords
        g = LabeledGraph(id="path3", node_count=3, edges=((0, 1), (1, 2)),
                         node_attrs=((0, 0),) * 3, edge_attrs=((0,), (0,)))
        model = small_model("gin", layers=1, hidden=2)
        model.params["embed.0"].data[:] = 0.0
        model.params["embed.0"].data[0] = [1.0, 0.0]
        model.params["embed.1"].data[:] = 0.0
        model.params["layer0.w1"].data[:] = np.eye(2)
        model.params["layer0.b1"].data[:] = 0.0
        model.params["layer0.w2"].data[:] = np.eye(2)
        model.params["layer0.b2"].data[:] = 0.0
        out = encode_nodes(model, g).data
        # node 1 aggregates two neighbors plus itself: 2 + 1
        assert out[:, 0] == pytest.approx([2.0, 3.0, 2.0])


class TestPermutationEquivariance:
    @pytest.mark.parametrize("arch", ["gcn", "gin", "chebnet", "fagcn", "fcn"])
    def test_encode_nodes_equivariant(self, arch):
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = graph_for(rng)
            model = small_model(arch, seed=7)
            perm = list(rng.permutation(g.node_count))
            out = encode_nodes(model, g).data
            out_p = encode_nodes(model, g.permuted(perm)).data
            rearranged = np.empty_like(out)
            for i, pi in enumerate(perm):
                rearranged[pi] = out[i]
            assert np.max(np.abs(out_p - rearranged)) < 1e-10

    @pytest.mark.parametrize("arch", ["gcn", "gin", "chebnet", "fagcn", "fcn"])
    def test_readout_invariant(self, arch):
        rng = np.random.default_rng(5)
        g = graph_for(rng)
        model = small_model(arch, seed=8)
        perm = list(rng.permutation(g.node_count))
        a = embed_graph(model, g).data
        b = embed_graph(model, g.permuted(perm)).data
        assert np.max(np.abs(a - b)) < 1e-10


class TestReadoutAndHead:
    def test_readout_constant_rows(self):
        h = T.Tensor(np.tile([1.0, 2.0, 3.0], (4, 1)))
        assert np.array_equal(readout(h).data, [1.0, 2.0, 3.0])

    def test_readout_mean(self):
        h = T.Tensor([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(readout(h).data, [1.0, 1.0])

    def test_readout_matches_average_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 5))
        assert np.allclose(readout(T.Tensor(x)).data, x.mean(axis=0), atol=1e-15)

    def test_zero_head_zero_logits(self):
        rng = np.random.default_rng(7)
        g = graph_for(rng)
        model = small_model("gcn", task_count=3)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        assert np.array_equal(classify(model, g).data, np.zeros(3))

    def test_logits_match_matmul_oracle(self):
        rng = np.random.default_rng(8)
        g = graph_for(rng)
        model = small_model("gin", task_count=2)
        hg = embed_graph(model, g).data
        expected = hg @ model.params["head.w"].data + model.params["head.b"].data
        assert np.allclose(classify(model, g).data, expected, atol=1e-12)

    def test_missing_head_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DataError, match="head"):
            classify(small_model("gcn"), graph_for(rng))

    def test_with_head_attaches(self):
        rng = np.random.default_rng(10)
        model = with_head(small_model("gcn"), task_count=4, seed=0)
        assert classify(model, graph_for(rng)).shape == (4,)


class TestGradients:
    @pytest.mark.parametrize("arch", ["gcn", "gin", "chebnet", "fagcn", "fcn"])
    def test_classify_loss_gradcheck(self, arch):
        rng = np.random.default_rng(11)
        g = graph_for(rng)
        model = small_model(arch, hidden=4, task_count=2, seed=12)
        w = T.Tensor(np.random.default_rng(1).normal(size=2))
        rel = finite_difference_check(lambda: T.tsum(classify(model, g) * w),
                                      model.parameters(), h=1e-5)
        assert rel < 1e-5


class TestFilterResponse:
    def test_gcn_endpoints(self):
        assert spectral_filter_response("gcn", 0.0) == 1.0
        assert spectral_filter_response("gcn", 2.0) == -1.0

    def test_fagcn_bands(self):
        assert spectral_filter_response("fagcn", 0.0, eps=0.3, band="low") == pytest.approx(1.3)
        assert spectral_filter_response("fagcn", 2.0, eps=0.3, band="high") == pytest.approx(3.3)

    def test_chebnet_monomial(self):
        for lam in (0.0, 0.7, 2.0):
            assert spectral_filter_response("chebnet", lam, alphas=(0, 1, 0)) == pytest.approx(lam)

    def test_fcn_flat(self):
        assert spectral_filter_response("fcn", 1.7) == 1.0


class TestModelCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        g = graph_for(rng)
        model = small_model("fagcn", task_count=2, seed=13)
        before = classify(model, g).data
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
            assert loaded.params[name].requires_grad
        after = classify(loaded, g).data
        assert before.tobytes() == after.tobytes()

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "config": {}, "params": {}}', encoding="utf-8")
        with pytest.raises(DataError, match="version"):
            load_model(path)


class TestInferAttrSizes:
    def test_maxima_plus_one(self):
        rng = np.random.default_rng(13)
        graphs = tuple(random_attributed_graph(rng, attr_sizes=(5, 3)) for _ in range(5))
        corpus = GraphCorpus(graphs=graphs)
        sizes = infer_attr_sizes(corpus)
        maxima = [0, 0]
        for g in corpus:
            for attrs in g.node_attrs:
                maxima = [max(m, a) for m, a in zip(maxima, attrs)]
        assert sizes == tuple(m + 1 for m in maxima)

    def test_out_of_range_attr_rejected(self):
        g = LabeledGraph(id="bad", node_count=1, edges=(), node_attrs=((9, 0),),
                         edge_attrs=())
        model = small_model("gcn")
        with pytest.raises(DataError, match="embedding range"):
            encode_nodes(model, g)

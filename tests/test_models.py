import json
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from graphmgs import models
from graphmgs import tensor as T
from graphmgs.errors import DataError
from graphmgs.graphs import GraphCorpus, LabeledGraph
from graphmgs.models import (ARCHS, CHEB_ORDER, ENCODE_BLOCK_GRAPHS, ENCODE_SPLIT_WIDTH,
                             FAGCN_EPS, GnnConfig, classify, embed_graph, embed_rows,
                             encode_nodes, infer_attr_sizes, init_model, load_model,
                             prepare, save_model, with_head)
from graphmgs.spectral import SYM_NORMALIZED, laplacian

from conftest import finite_difference_check, random_attributed_graph
from spec import permuted

ATTRS = (4, 2)


def small_model(arch, layers=2, hidden=6, task_count=0, seed=3):
    model = init_model(GnnConfig(arch=arch, layers=layers, hidden_dim=hidden,
                                 attr_sizes=ATTRS), seed=seed)
    return with_head(model, task_count, seed) if task_count else model


def graph_for(rng):
    return random_attributed_graph(rng, n_min=4, n_max=9, attr_sizes=ATTRS)


def mixed_batch(rng):
    """Graphs of 1 to 9 nodes, among them a single node and an edgeless graph."""
    single = LabeledGraph(id="single", node_count=1, edges=(), node_attrs=((3, 1),),
                          edge_attrs=())
    edgeless = LabeledGraph(id="edgeless", node_count=3, edges=(),
                            node_attrs=((0, 1), (2, 0), (1, 1)), edge_attrs=())
    return [graph_for(rng), single, graph_for(rng), edgeless, graph_for(rng)]


class TestLayerFormulas:
    def test_gcn_single_node(self):
        # one node, self-loop only: A~ = D~ = 1, so H' = relu(H theta)
        g = LabeledGraph(id="one", node_count=1, edges=(), node_attrs=((0, 0),),
                         edge_attrs=())
        model = small_model("gcn", layers=1, hidden=1)
        model.params["embed.0"].data[:] = np.array([[2.0], [0.0], [0.0], [0.0]])
        model.params["embed.1"].data[:] = 0.0
        model.params["layer0.theta"].data[:] = np.array([[0.5]])
        out, _ = encode_nodes(model, [g])
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_gcn_matches_dense_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = graph_for(rng)
            model = small_model("gcn", layers=2, seed=int(rng.integers(1 << 20)))
            out = encode_nodes(model, [g])[0].data
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
        a = encode_nodes(model, [g])[0].data
        b = encode_nodes(model, [stripped])[0].data
        assert a.tobytes() == b.tobytes()

    def test_gcn_symmetric_two_nodes(self):
        g = LabeledGraph(id="pair", node_count=2, edges=((0, 1),),
                         node_attrs=((1, 0), (1, 0)), edge_attrs=((0,),))
        out = encode_nodes(small_model("gcn"), [g])[0].data
        assert np.array_equal(out[0], out[1])

    def test_chebnet_recurrence_matches_explicit_polynomial(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = graph_for(rng)
            model = small_model("chebnet", layers=1, seed=int(rng.integers(1 << 20)))
            out = encode_nodes(model, [g])[0].data
            lhat = laplacian(g, SYM_NORMALIZED) - np.eye(g.node_count)
            h = np.zeros((g.node_count, model.config.hidden_dim))
            for s in range(len(ATTRS)):
                table = model.params[f"embed.{s}"].data
                h += table[[attrs[s] for attrs in g.node_attrs]]
            # explicit Chebyshev polynomials via dense powers
            t_mats = [np.eye(g.node_count), lhat]
            while len(t_mats) < CHEB_ORDER:
                t_mats.append(2 * lhat @ t_mats[-1] - t_mats[-2])
            acc = np.zeros_like(h)
            for k in range(CHEB_ORDER):
                acc += t_mats[k] @ h @ model.params[f"layer0.theta{k}"].data
            assert np.max(np.abs(out - np.maximum(acc, 0.0))) < 1e-8

    def test_fagcn_matches_edge_formula(self):
        # per-edge oracle: h'_i = eps h0_i + sum over neighbours j of
        # tanh(G[:, 0] . h_i + G[:, 1] . h_j) / sqrt(d_i d_j) h_j, on both directions
        # of each edge, where the (h, 2) matrix G holds g in R^{2h}
        graphs = mixed_batch(np.random.default_rng(14))
        model = small_model("fagcn", layers=2, seed=15)
        out, offsets = encode_nodes(model, graphs)
        p = {name: t.data for name, t in model.params.items()}
        for g, lo, hi in zip(graphs, offsets[:-1], offsets[1:]):
            x = sum(p[f"embed.{s}"][[attrs[s] for attrs in g.node_attrs]]
                    for s in range(len(ATTRS)))
            h = h0 = np.maximum(x @ p["proj.w"], 0.0)
            deg = g.degrees()
            for l in range(2):
                g_mat = p[f"layer{l}.g"]
                new = FAGCN_EPS * h0
                for u, v in g.edges:
                    for i, j in ((u, v), (v, u)):
                        att = np.tanh(g_mat[:, 0] @ h[i] + g_mat[:, 1] @ h[j])
                        new[i] = new[i] + att / np.sqrt(deg[i] * deg[j]) * h[j]
                h = new
            assert np.max(np.abs(out.data[lo:hi] - h)) < 1e-12, g.id

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
        out = encode_nodes(model, [g])[0].data
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
            out = encode_nodes(model, [g])[0].data
            out_p = encode_nodes(model, [permuted(g, perm)])[0].data
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
        a = embed_graph(model, [g]).data[0]
        b = embed_graph(model, [permuted(g, perm)]).data[0]
        assert np.max(np.abs(a - b)) < 1e-10


class TestReadoutAndHead:
    def test_readout_constant_rows(self):
        h = T.Tensor(np.tile([1.0, 2.0, 3.0], (4, 1)))
        assert np.array_equal(T.segment_mean(h, [0, 4]).data[0], [1.0, 2.0, 3.0])

    def test_readout_mean(self):
        h = T.Tensor([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(T.segment_mean(h, [0, 2]).data[0], [1.0, 1.0])

    def test_readout_matches_average_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 5))
        assert np.allclose(T.segment_mean(T.Tensor(x), [0, 7]).data[0], x.mean(axis=0), atol=1e-15)

    def test_zero_head_zero_logits(self):
        rng = np.random.default_rng(7)
        g = graph_for(rng)
        model = small_model("gcn", task_count=3)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        assert np.array_equal(classify(model, [g]).data[0], np.zeros(3))

    def test_logits_match_matmul_oracle(self):
        rng = np.random.default_rng(8)
        g = graph_for(rng)
        model = small_model("gin", task_count=2)
        hg = embed_graph(model, [g]).data[0]
        expected = hg @ model.params["head.w"].data + model.params["head.b"].data
        assert np.allclose(classify(model, [g]).data[0], expected, atol=1e-12)

    def test_missing_head_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DataError, match="head"):
            classify(small_model("gcn"), [graph_for(rng)])

    def test_with_head_attaches(self):
        rng = np.random.default_rng(10)
        model = with_head(small_model("gcn"), task_count=4, seed=0)
        assert classify(model, [graph_for(rng)]).data[0].shape == (4,)

    @pytest.mark.parametrize("task_count", [0, 2.0, True])
    def test_with_head_task_count_checked(self, task_count):
        with pytest.raises(DataError, match="task_count must be an integer >= 1"):
            with_head(small_model("gcn"), task_count, seed=0)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "3"])
    def test_seed_checked(self, seed):
        # True would give seed 1's parameters; the others would raise from numpy
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            init_model(small_model("gcn").config, seed)
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            with_head(small_model("gcn"), 1, seed)


@pytest.mark.parametrize("field, value", [
    ("arch", "gat"), ("layers", 0), ("layers", 1.5), ("hidden_dim", True), ("hidden_dim", 0),
    ("attr_sizes", ()), ("attr_sizes", (4, 0)), ("attr_sizes", (4, 2.5))])
def test_config_rejects_bad_settings(field, value):
    with pytest.raises(DataError):
        GnnConfig(**{"arch": "gcn", "attr_sizes": ATTRS, field: value})


class TestGradients:
    @pytest.mark.parametrize("arch", ["gcn", "gin", "chebnet", "fagcn", "fcn"])
    def test_classify_loss_gradcheck(self, arch):
        rng = np.random.default_rng(11)
        graphs = mixed_batch(rng)
        model = small_model(arch, hidden=4, task_count=2, seed=12)
        w = T.Tensor(np.random.default_rng(1).normal(size=(len(graphs), 2)))
        rel = finite_difference_check(lambda: T.tsum(classify(model, graphs) * w),
                                      model.parameters(), h=1e-5)
        assert rel < 1e-5


class TestBatching:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_batch_equals_batches_of_one(self, arch):
        graphs = mixed_batch(np.random.default_rng(20))
        model = small_model(arch, task_count=2, seed=21)
        rows, offsets = encode_nodes(model, graphs)
        assert offsets.tolist() == np.cumsum([0] + [g.node_count for g in graphs]).tolist()
        for g, lo, hi in zip(graphs, offsets[:-1], offsets[1:]):
            one, _ = encode_nodes(model, [g])
            assert np.max(np.abs(rows.data[lo:hi] - one.data)) < 1e-12
        singles = np.concatenate([classify(model, [g]).data for g in graphs])
        assert np.max(np.abs(classify(model, graphs).data - singles)) < 1e-12

    @pytest.mark.parametrize("arch", ARCHS)
    def test_training_batch_draws_dropout_like_batches_of_one(self, arch):
        cfg = GnnConfig(arch=arch, layers=3, hidden_dim=6, attr_sizes=ATTRS)
        model = init_model(cfg, seed=22)
        graphs = mixed_batch(np.random.default_rng(23))
        batch = embed_graph(model, graphs, training=True, rng=np.random.default_rng(24)).data
        shared = np.random.default_rng(24)
        singles = np.concatenate([embed_graph(model, [g], training=True, rng=shared).data
                                  for g in graphs])
        assert np.max(np.abs(batch - singles)) < 1e-12
        assert not np.allclose(batch, embed_graph(model, graphs).data)

    def test_tape_nodes_do_not_grow_with_the_batch(self):
        graphs = mixed_batch(np.random.default_rng(26))
        for arch in ARCHS:
            model = small_model(arch, task_count=2)
            counts = []
            for batch in (graphs[:1], graphs):
                with T.tape():
                    classify(model, batch)
                    counts.append(T.tape_size())
            assert counts[0] == counts[1], arch

    def test_gin_layer_records_four_tape_nodes(self):
        # 1 + eps, the aggregate fused into the first linear, a ReLU and the second linear
        graphs = mixed_batch(np.random.default_rng(26))
        counts = []
        for layers in (2, 3):
            with T.tape():
                encode_nodes(small_model("gin", layers=layers), graphs)
                counts.append(T.tape_size())
        assert counts[1] - counts[0] == 4

    def test_empty_graph_in_batch_rejected(self):
        empty = LabeledGraph(id="empty", node_count=0, edges=(), node_attrs=(), edge_attrs=())
        graphs = mixed_batch(np.random.default_rng(25))
        for arch in ARCHS:
            with pytest.raises(DataError, match="empty graph"):
                encode_nodes(small_model(arch), graphs[:2] + [empty] + graphs[2:])

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError, match="empty batch"):
            embed_graph(small_model("gin"), [])

    @pytest.mark.parametrize("other", ["gin", "fcn"])
    def test_input_prepared_for_another_config_rejected(self, other):
        graphs = mixed_batch(np.random.default_rng(27))
        gcn = small_model("gcn")
        own = prepare(gcn.config, graphs)
        assert embed_graph(gcn, own).data.tobytes() == embed_graph(gcn, graphs).data.tobytes()
        foreign = prepare(small_model(other).config, graphs)
        with pytest.raises(DataError, match=f"position 1: input prepared for .*'{other}'"):
            embed_graph(gcn, [own[0], foreign[1]] + own[2:])

    def test_prepared_batch_returned_as_it_is(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("a prepared batch was prepared again")

        class NoOperators(dict):
            __contains__ = __getitem__ = untouched

        graphs = mixed_batch(np.random.default_rng(28))
        for arch in ARCHS:
            model = small_model(arch)
            own = prepare(model.config, graphs)
            want = embed_graph(model, own).data
            with monkeypatch.context() as m:
                m.setattr(models, "_attr_table", untouched)
                m.setattr(models, "_OPERATORS", NoOperators())
                again = prepare(model.config, own)
                assert all(a is b for a, b in zip(again, own)) and len(again) == len(own)
                assert embed_graph(model, own[1:3]).data.tobytes() == want[1:3].tobytes()


def gin_and_graphs(hidden=ENCODE_SPLIT_WIDTH, count=40):
    """An untrained 2-layer GIN and more graphs than two encoder blocks hold."""
    rng = np.random.default_rng(21)
    model = init_model(GnnConfig(arch="gin", layers=2, hidden_dim=hidden, attr_sizes=ATTRS),
                       seed=0)
    return model, [random_attributed_graph(rng) for _ in range(count)]


def _tensors_held(fn) -> list:
    """The tensors a backward closure reaches through its cells and through the
    functions, lists and tuples they hold."""
    held, todo, seen = [], [fn], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, T.Tensor):
            held.append(obj)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return held


class TestWhatBackwardKeeps:
    """The tape holds gradient slots, and each backward the arrays its gradient
    reads: no tensor, so an array no gradient reads goes with its tensor."""

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "dropout"])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_no_backward_holds_a_tensor(self, arch, training):
        model = small_model(arch, layers=3, task_count=2)
        graphs = mixed_batch(np.random.default_rng(40))
        with T.tape():
            logits = classify(model, graphs, training=training, rng=np.random.default_rng(41))
            loss = T.bce_with_logits(logits, np.ones(logits.shape))
            slots = T._open_tape.get()
            assert len(slots) == T.tape_size() > 0
            assert [t for slot in slots for t in _tensors_held(slot.backward)] == []
            T.backward(loss)
        assert all(p.grad is not None for p in model.parameters())

    def test_gin_forward_frees_pre_relu_rows_and_embedding_lookups(self, monkeypatch):
        # the ReLU keeps its output for the mask, and the sum of the lookups is
        # an add, whose gradient reads neither operand
        lookups, pre_relu = [], []
        index_select, relu = T.index_select, T.relu

        def watched_index_select(a, index):
            out = index_select(a, index)
            lookups.append(weakref.ref(out.data))
            return out

        def watched_relu(a):
            pre_relu.append(weakref.ref(a.data))
            return relu(a)

        monkeypatch.setattr(T, "index_select", watched_index_select)
        monkeypatch.setattr(T, "relu", watched_relu)
        model = small_model("gin", layers=3)
        with T.tape():
            out, _ = encode_nodes(model, mixed_batch(np.random.default_rng(42)))
            assert (len(lookups), len(pre_relu)) == (len(ATTRS), 3)
            assert [ref() for ref in lookups + pre_relu] == [None] * 5
            T.backward(T.tsum(out * out))
        assert all(p.grad is not None for p in model.parameters())

    def test_gin_forward_frees_its_aggregate(self, monkeypatch):
        # the first linear keeps the layer's input and rebuilds the aggregate in
        # its backward, once per layer
        aggregates = []
        aggregate = T._aggregate

        def watched_aggregate(*args):
            out = aggregate(*args)
            aggregates.append(weakref.ref(out))
            return out

        monkeypatch.setattr(T, "_aggregate", watched_aggregate)
        model = small_model("gin", layers=3)
        with T.tape():
            out, _ = encode_nodes(model, mixed_batch(np.random.default_rng(44)))
            assert [ref() for ref in aggregates] == [None] * 3
            T.backward(T.tsum(out * out))
        assert len(aggregates) == 6 and [ref() for ref in aggregates] == [None] * 6
        assert all(p.grad is not None for p in model.parameters())

    def test_gin_forward_keeps_two_arrays_per_layer(self):
        # each layer's input (for eps's and w1's gradients, the aggregate being
        # rebuilt from it) and its ReLU output (for the mask and w2's), and the
        # output the caller holds; the slack covers slots, closures, operators
        # and indices
        layers, hidden = 3, 256
        graphs = kept_graphs()
        model = small_model("gin", layers=layers, hidden=hidden)
        array = sum(g.node_count for g in graphs) * hidden * 8
        kept = _kept_by_forward(model, graphs, training=False)
        assert kept <= (2 * layers + 1) * array + array // 2, kept / array

    # (rows, hidden) arrays a layer keeps for its backward, as measured:
    # - gcn and fcn: the ReLU's output, which the next product reads;
    # - gin: its input and its ReLU's output, its aggregate rebuilt;
    # - chebnet: its input and the Chebyshev terms T_1 x and T_2 x;
    # - fagcn: its input, and per graph the attention weights;
    # and with dropout, the float mask and the masked rows beside the output
    KEPT_PER_LAYER = {"eval": {"gcn": 1, "gin": 2, "chebnet": 3, "fagcn": 1, "fcn": 1},
                      "dropout": {"gcn": 3, "gin": 3, "chebnet": 5, "fagcn": 2, "fcn": 3}}

    @pytest.mark.parametrize("mode", ["eval", "dropout"])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_forward_keeps_arrays_per_layer(self, arch, mode):
        # one layer more keeps exactly this many arrays more: a count that
        # falls, as a rebuilt activation makes it, must be lowered here
        hidden, graphs = 256, kept_graphs()
        array = sum(g.node_count for g in graphs) * hidden * 8
        kept = [_kept_by_forward(small_model(arch, layers=layers, hidden=hidden), graphs,
                                 training=mode == "dropout") for layers in (2, 3)]
        per_layer = (kept[1] - kept[0]) / array
        count = self.KEPT_PER_LAYER[mode][arch]
        assert count - 0.5 < per_layer <= count + 0.1, per_layer


def kept_graphs() -> list:
    """Twelve graphs of 12 to 16 nodes: 172 rows in all."""
    rng = np.random.default_rng(43)
    return [random_attributed_graph(rng, n_min=12, n_max=16, attr_sizes=ATTRS)
            for _ in range(12)]


def _kept_by_forward(model, graphs, training: bool) -> int:
    """Bytes that a taped forward pass over graphs leaves allocated, its output
    among them, with the input prepared beforehand."""
    batch = prepare(model.config, graphs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with T.tape():
            out, _ = encode_nodes(model, batch, training=training,
                                  rng=np.random.default_rng(45))
            return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestEmbedRows:
    @pytest.mark.parametrize("count", [None, 3])
    def test_same_rows_at_any_worker_count(self, workers, count):
        count = count or T._worker_count()
        model, graphs = gin_and_graphs()
        workers(1)
        serial = embed_rows(model, graphs)
        workers(count)
        split = embed_rows(model, graphs)
        blocks = np.concatenate([embed_graph(model, graphs[k:k + ENCODE_BLOCK_GRAPHS]).data
                                 for k in range(0, len(graphs), ENCODE_BLOCK_GRAPHS)])
        assert len(graphs) > 2 * ENCODE_BLOCK_GRAPHS
        assert split.tobytes() == serial.tobytes() == blocks.tobytes()

    @pytest.mark.parametrize("width,threads", [(ENCODE_SPLIT_WIDTH - 1, 1),
                                               (ENCODE_SPLIT_WIDTH, 2)])
    def test_only_wide_encoders_split(self, workers, monkeypatch, width, threads):
        workers(2)
        model, graphs = gin_and_graphs(hidden=width)
        seen = set()
        encode = models.embed_graph

        def recording(*args, **kwargs):
            seen.add(threading.get_ident())
            return encode(*args, **kwargs)

        monkeypatch.setattr(models, "embed_graph", recording)
        embed_rows(model, graphs)
        assert len(seen) == threads and threading.get_ident() in seen

    @pytest.mark.parametrize("count", [1, 2])
    def test_records_on_no_open_tape(self, workers, count):
        workers(count)
        x = T.Tensor(np.ones(2), requires_grad=True)
        for width in (ENCODE_SPLIT_WIDTH - 1, ENCODE_SPLIT_WIDTH):
            model, graphs = gin_and_graphs(hidden=width)
            with T.tape():
                T.tsum(x * x)
                before = T.tape_size()
                embed_rows(model, graphs)
                assert T.tape_size() == before

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError, match="empty batch"):
            embed_rows(small_model("gin"), [])


class TestModelCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        g = graph_for(rng)
        model = small_model("fagcn", task_count=2, seed=13)
        before = classify(model, [g]).data
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
            assert loaded.params[name].requires_grad
        after = classify(loaded, [g]).data
        assert before.tobytes() == after.tobytes()

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "config": {}, "params": {}}', encoding="utf-8")
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_version_1_rejected(self, tmp_path):
        # version 1 stored cheb_order, fagcn_eps, dropout and task_count in its config
        model = small_model("chebnet", task_count=1)
        path = tmp_path / "v1.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 1
        payload["config"].update(cheb_order=3, fagcn_eps=0.3, dropout=0.5, task_count=1)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="version 1 unsupported"):
            load_model(path)

    @pytest.mark.parametrize("case, match", [
        ("missing-parameter", "missing \\['layer1.theta'\\]"),
        ("extra-parameter", "unexpected \\['layer2.theta'\\]"),
        ("head-weights-only", "unexpected \\['head.w'\\]"),
        ("head-width", "misshapen \\['head.w'\\]"),
        ("bad-shape", "misshapen \\['embed.0'\\]"),
        ("shape-and-values-disagree", "malformed"),
        ("config-key-missing", "malformed"),
        ("config-key-unknown", "malformed"),
        ("truncated-json", "not JSON"),
        ("not-an-object", "version None")])
    def test_malformed_checkpoint_rejected(self, tmp_path, case, match):
        model = small_model("gcn", task_count=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        params, config = payload["params"], payload["config"]
        if case == "missing-parameter":
            del params["layer1.theta"]
        elif case == "extra-parameter":
            params["layer2.theta"] = params["layer1.theta"]
        elif case == "head-weights-only":
            del params["head.b"]
        elif case == "head-width":
            params["head.b"] = {"shape": [3], "values": [0.0] * 3}
        elif case == "bad-shape":
            params["embed.0"]["shape"] = params["embed.0"]["shape"][::-1]
        elif case == "shape-and-values-disagree":
            params["embed.0"]["values"].pop()
        elif case == "config-key-missing":
            del config["attr_sizes"]
        elif case == "config-key-unknown":
            config["task_count"] = 2
        text = json.dumps([payload] if case == "not-an-object" else payload)
        path.write_text(text[:-1] if case == "truncated-json" else text, encoding="utf-8")
        with pytest.raises(DataError, match=match):
            load_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        path = tmp_path / "model.json"
        save_model(small_model("gin", task_count=1), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["params"]["layer1.w2"]["values"][3] = value
        path.write_text(json.dumps(payload), encoding="utf-8")  # as NaN or Infinity
        with pytest.raises(DataError, match="parameter 'layer1.w2' is not finite"):
            load_model(path)

    def test_headless_roundtrip(self, tmp_path):
        model = small_model("chebnet")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)


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

    def test_inconsistent_slot_count_rejected(self):
        graphs = (LabeledGraph(id="two", node_count=1, edges=(), node_attrs=((1, 0),),
                               edge_attrs=()),
                  LabeledGraph(id="one", node_count=2, edges=(), node_attrs=((1, 0), (2,)),
                               edge_attrs=()))
        with pytest.raises(DataError, match="'one': inconsistent attribute slot count: node 1"):
            infer_attr_sizes(GraphCorpus(graphs=graphs))
        with pytest.raises(DataError, match="'one': inconsistent attribute slot count: node 1"):
            encode_nodes(small_model("gin"), graphs)

    @pytest.mark.parametrize("node_attrs", [(), ((),)], ids=["no-nodes", "no-slots"])
    def test_no_attributes_rejected(self, node_attrs):
        g = LabeledGraph(id="g", node_count=len(node_attrs), edges=(), node_attrs=node_attrs,
                         edge_attrs=())
        with pytest.raises(DataError, match="no node attributes"):
            infer_attr_sizes(GraphCorpus(graphs=(g,)))

    def test_out_of_range_attr_rejected(self):
        # the encoder bounds each slot by its table size, and both readers reject
        # a negative attribute; each error names the graph and the node
        model = small_model("gcn")
        good = LabeledGraph(id="good", node_count=3, edges=((0, 1),),
                            node_attrs=((0, 0), (3, 1), (2, 1)), edge_attrs=((0,),))

        def encode(g):
            encode_nodes(model, [good, g])

        def infer(g):
            infer_attr_sizes(GraphCorpus(graphs=(good, g)))

        for bad, value, readers in [((9, 0), 9, [encode]), ((0, 2), 2, [encode]),
                                    ((-1, 0), -1, [encode, infer]),
                                    ((0, -1), -1, [encode, infer])]:
            g = LabeledGraph(id="bad", node_count=2, edges=(), node_attrs=((1, 1), bad),
                             edge_attrs=())
            for read in readers:
                with pytest.raises(DataError, match=f"graph 'bad': node 1 attribute {value} "
                                                    "out of embedding range"):
                    read(g)

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphmgs import tensor as T
from graphmgs import training
from graphmgs.config import derive_seed
from graphmgs.errors import DataError, NumericError
from graphmgs.fingerprints import make_fingerprints
from graphmgs.graphs import GraphCorpus, LabeledGraph, load_corpus
from graphmgs.models import (ARCHS, ENCODE_SPLIT_WIDTH, GnnConfig, embed_graph, infer_attr_sizes,
                             init_model, prepare, with_head)
from graphmgs.similarity import average_ranks, mgs, spearman, write_pair_csv
from graphmgs.spectral import COMBINATORIAL, spectral_fingerprint
from graphmgs.synthetic import SyntheticSpec, generate_synthetic
from graphmgs.training import (MIN_STRATUM, FinetuneReport, PgmConfig, SkippedBatch,
                               evaluate_mgs, finetune, pgm_loss, pretrain, roc_auc,
                               split_folds)

from conftest import finite_difference_check, random_attributed_graph
from spec import cosine, structural


@pytest.fixture(scope="module")
def tiny_corpus():
    spec = SyntheticSpec(n_graphs=40, size_min=8, size_max=12, homophily=0.4,
                         label_rule="triangle_motif", seed=3, families=8,
                         attr_sizes=(4, 6), edge_attr_sizes=(1,),
                         edge_factor_jitter=0.3, member_edge_jitter=0.3)
    return generate_synthetic(spec)


@pytest.fixture(scope="module")
def tiny_fps(tiny_corpus):
    return make_fingerprints(tiny_corpus, "topological", max_path_len=4)


def tiny_model(corpus, arch="gin", seed=0, task_count=0):
    model = init_model(GnnConfig(arch=arch, layers=2, hidden_dim=16,
                                 attr_sizes=infer_attr_sizes(corpus)), seed=seed)
    return with_head(model, task_count, seed) if task_count else model


class TestPgmLoss:
    def _embeddings(self, rng, count=6, dim=5, requires_grad=False):
        return T.Tensor(rng.normal(size=(count, dim)), requires_grad=requires_grad)

    def test_pearson_affine_alignment(self):
        rng = np.random.default_rng(0)
        embs = self._embeddings(rng)
        sims = _pair_cosines(embs)
        structural = 2.0 * sims + 1.0
        cfg = PgmConfig(surrogate="pearson", batch_size=8, epochs=1)
        loss = pgm_loss(embs, structural, cfg)
        assert loss.item() == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_anti_alignment(self):
        rng = np.random.default_rng(1)
        embs = self._embeddings(rng)
        sims = _pair_cosines(embs)
        cfg = PgmConfig(surrogate="pearson", batch_size=8, epochs=1)
        assert pgm_loss(embs, -sims, cfg).item() == pytest.approx(1.0, abs=1e-12)

    def test_softrank_perfect_alignment_small_tau(self):
        rng = np.random.default_rng(2)
        embs = self._embeddings(rng, count=8)
        sims = _pair_cosines(embs)
        cfg = PgmConfig(surrogate="softrank", batch_size=8, epochs=1,
                        temperature=1e-4 * float(sims.max() - sims.min()))
        loss = pgm_loss(embs, sims, cfg)
        assert loss.item() == pytest.approx(-1.0, abs=1e-3)

    def test_constant_structural_raises(self):
        rng = np.random.default_rng(3)
        embs = self._embeddings(rng)
        cfg = PgmConfig(batch_size=8, epochs=1)
        with pytest.raises(NumericError, match="zero rank variance"):
            pgm_loss(embs, np.ones(15), cfg)

    def test_pearson_affine_invariance_of_structural(self):
        rng = np.random.default_rng(4)
        embs = self._embeddings(rng)
        structural = rng.normal(size=15)
        cfg = PgmConfig(surrogate="pearson", batch_size=8, epochs=1)
        a = pgm_loss(embs, structural, cfg).item()
        b = pgm_loss(embs, 3.0 * structural + 2.0, cfg).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradients_both_modes(self):
        rng = np.random.default_rng(5)
        structural = rng.normal(size=10)
        for mode in ("softrank", "pearson"):
            embs = self._embeddings(rng, count=5, requires_grad=True)
            cfg = PgmConfig(surrogate=mode, batch_size=8, epochs=1, temperature=0.1)
            rel = finite_difference_check(lambda: pgm_loss(embs, structural, cfg), [embs])
            assert rel < 1e-5, mode

    def test_softrank_converges_to_hard_ranks(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=20)
        spread = float(x.max() - x.min())
        soft = T.soft_rank(T.Tensor(x), 1e-4 * spread).data
        assert np.max(np.abs(soft - (average_ranks(x) - 0.5))) < 1e-6


    @pytest.mark.parametrize("mode", ["softrank", "pearson"])
    def test_non_finite_embedding_gives_nan_loss(self, mode):
        rng = np.random.default_rng(7)
        embs = self._embeddings(rng)
        embs.data[2, 0] = np.nan
        loss = pgm_loss(embs, rng.normal(size=15), PgmConfig(surrogate=mode))
        assert np.isnan(loss.item())

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(DataError, match="temperature"):
            PgmConfig(temperature=temperature)

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("scheme", "spectrum"), ("temperature", True), ("temperature", "0.1"),
        ("batch_size", 8.5), ("batch_size", 2), ("epochs", 1.5), ("seed", -1), ("seed", True),
        ("eval_pairs", 1), ("eval_pairs", 2.0)])
    def test_out_of_range_argument_rejected(self, field, value):
        with pytest.raises(DataError, match=field):
            PgmConfig(**{field: value})


def _pair_cosines(embs):
    out = []
    for i in range(len(embs.data)):
        for j in range(i + 1, len(embs.data)):
            out.append(cosine(embs.data[i], embs.data[j]))
    return np.asarray(out)


class TestPretrain:
    def test_zero_epochs_untouched(self, tiny_corpus, tiny_fps):
        model = tiny_model(tiny_corpus, seed=1)
        before = {k: p.data.copy() for k, p in model.params.items()}
        model, report = pretrain(tiny_corpus, model,
                                 PgmConfig(batch_size=8, epochs=0, seed=0), tiny_fps)
        assert report.losses == [] and report.holdout_mgs == []
        for k, p in model.params.items():
            assert p.data.tobytes() == before[k].tobytes()

    def test_numpy_integer_seed_hashes_as_the_int(self, tiny_corpus, tiny_fps):
        # a numpy integer passes the setting checks, so it must hash as the integer
        # it holds, and a config of Python values keeps the hash it always had
        hashes = [pretrain(tiny_corpus, tiny_model(tiny_corpus, seed=1),
                           PgmConfig(batch_size=8, epochs=0, seed=seed), tiny_fps)[1].config_hash
                  for seed in (3, np.int64(3))]
        assert hashes == ["7d93ed935012f017ce12eef6062ddf2e54e51f6de211db04405cb002bdcab9a1"] * 2

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_numpy_integer_seed_report_round_trips_through_json(self, tiny_corpus, tiny_fps,
                                                                epochs):
        _, report = pretrain(tiny_corpus, tiny_model(tiny_corpus, seed=1),
                             PgmConfig(batch_size=8, epochs=epochs, seed=np.int64(3),
                                       eval_pairs=20), tiny_fps)
        record = json.loads(json.dumps(report.to_dict()))
        assert record == report.to_dict()
        assert type(report.seed) is int and record["seed"] == 3

    def test_seeded_determinism_bitwise(self, tiny_corpus, tiny_fps):
        def run():
            model = tiny_model(tiny_corpus, seed=2)
            _, report = pretrain(tiny_corpus, model,
                                 PgmConfig(batch_size=8, epochs=3, seed=9,
                                           eval_pairs=20), tiny_fps)
            return report

        r1, r2 = run(), run()
        assert r1.losses == r2.losses
        assert r1.holdout_mgs == r2.holdout_mgs

    def test_missing_fingerprints_rejected(self, tiny_corpus, tiny_fps):
        partial = dict(tiny_fps)
        partial.popitem()
        model = tiny_model(tiny_corpus, seed=3)
        with pytest.raises(DataError, match="missing"):
            pretrain(tiny_corpus, model, PgmConfig(batch_size=8, epochs=1), partial)

    def test_fingerprints_of_another_scheme_rejected(self, tiny_corpus, tiny_fps):
        model = tiny_model(tiny_corpus, seed=3)
        first = tiny_corpus.graphs[0].id
        with pytest.raises(DataError, match=f"'{first}': topological fingerprint"):
            pretrain(tiny_corpus, model, PgmConfig(batch_size=8, epochs=0, scheme="morgan"),
                     tiny_fps)
        g = tiny_corpus.graphs[5]
        mixed = dict(tiny_fps, **{g.id: spectral_fingerprint(g, k=4)})
        with pytest.raises(DataError, match=f"'{g.id}': spectral fingerprint"):
            pretrain(tiny_corpus, model, PgmConfig(batch_size=8, epochs=1), mixed)

    @pytest.mark.parametrize("params, match", [
        (dict(max_path_len=3), r"max_path_len=4, .* and topological\(max_path_len=3, "),
        (dict(max_path_len=4, nbits=1024), r"of length 2048 and .* of length 1024")],
        ids=["max_path_len", "nbits"])
    def test_mixed_kinds_rejected_before_any_step(self, tiny_corpus, tiny_fps, params, match):
        # the odd graph is held out, so no training batch would hold two kinds
        cfg = PgmConfig(batch_size=8, epochs=1, seed=0)
        _, hold = training.holdout_split(len(tiny_corpus.graphs), cfg.holdout_fraction,
                                         derive_seed(cfg.seed, "pretrain-holdout"))
        odd = tiny_corpus.graphs[max(hold)]
        mixed = dict(tiny_fps, **make_fingerprints([odd], "topological", **params))
        model = tiny_model(tiny_corpus, seed=3)
        before = {k: p.data.copy() for k, p in model.params.items()}
        with pytest.raises(DataError, match=match):
            pretrain(tiny_corpus, model, cfg, mixed)
        for k, p in model.params.items():
            assert p.data.tobytes() == before[k].tobytes()

    def test_mgs_improves_on_tiny_corpus(self, tiny_corpus, tiny_fps):
        model = tiny_model(tiny_corpus, seed=4)
        init, _ = evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=100, seed=5)
        model, report = pretrain(tiny_corpus, model,
                                 PgmConfig(batch_size=8, epochs=20, seed=5,
                                           eval_pairs=20), tiny_fps)
        full, _ = evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=100, seed=5)
        assert full > init

    def test_bits_match_scalar_structural_loop(self, tiny_corpus, tiny_fps, monkeypatch):
        from graphmgs import similarity, training

        def run():
            model = tiny_model(tiny_corpus, seed=10)
            _, report = pretrain(tiny_corpus, model,
                                 PgmConfig(batch_size=8, epochs=3, seed=11,
                                           eval_pairs=20), tiny_fps)
            return report

        matrix = run()

        def scalar_loop(fps, rows, cols):
            return np.asarray([structural(fps[i], fps[j]) for i, j in zip(rows, cols)])

        monkeypatch.setattr(training, "structural_pair_sims", scalar_loop)
        monkeypatch.setattr(similarity, "structural_pair_sims", scalar_loop)
        scalar = run()
        assert len(matrix.losses) == 3
        assert np.asarray(matrix.losses).tobytes() == np.asarray(scalar.losses).tobytes()
        assert (np.asarray(matrix.holdout_mgs).tobytes()
                == np.asarray(scalar.holdout_mgs).tobytes())

    def test_skipped_batch_recorded(self, tiny_corpus, tiny_fps, monkeypatch):
        from graphmgs import training

        real = training.structural_pair_sims
        ids_of = {id(fp): gid for gid, fp in tiny_fps.items()}
        batches = []

        def flat_second_batch(fps, rows, cols):
            # every pair of the second batch equally similar: the loss is undefined
            batches.append(tuple(ids_of[id(fp)] for fp in fps))
            sims = real(fps, rows, cols)
            return np.full_like(sims, 0.5) if len(batches) == 2 else sims

        monkeypatch.setattr(training, "structural_pair_sims", flat_second_batch)
        model = tiny_model(tiny_corpus, seed=12)
        _, report = pretrain(tiny_corpus, model,
                             PgmConfig(batch_size=8, epochs=2, seed=13, eval_pairs=20),
                             tiny_fps)
        assert report.skipped == [SkippedBatch(
            epoch=1, position=1, graph_ids=batches[1],
            reason="pgm loss undefined: zero rank variance in structural similarities")]
        assert report.skipped_batches == 1 and len(batches[1]) == 8
        assert np.all(np.isfinite(report.losses))
        record = report.to_dict()
        assert record["skipped_batches"] == 1
        assert record["skipped"] == [{"epoch": 1, "position": 1, "graph_ids": batches[1],
                                      "reason": report.skipped[0].reason}]

    def test_held_out_pairs_drawn_once(self, tiny_corpus, tiny_fps, monkeypatch):
        from graphmgs import similarity

        draws, scored = [], []

        def counted_draw(*args):
            draws.append(args)
            return similarity.sample_pair_indices(*args)

        def recorded_pair_set(graphs, encoder, fingerprints, rows, cols):
            scored.append((tuple(g.id for g in graphs), rows.tobytes(), cols.tobytes()))
            return similarity.build_pair_set(graphs, encoder, fingerprints, rows, cols)

        monkeypatch.setattr(training, "sample_pair_indices", counted_draw)
        monkeypatch.setattr(training, "build_pair_set", recorded_pair_set)
        cfg = PgmConfig(batch_size=8, epochs=3, seed=9, eval_pairs=20)
        _, report = pretrain(tiny_corpus, tiny_model(tiny_corpus, seed=2), cfg, tiny_fps)
        assert draws == [(4, 6, derive_seed(9, "pretrain-eval"))]  # 4 held-out graphs
        assert len(report.holdout_mgs) == 3
        assert len(scored) == 3 and len(set(scored)) == 1

    def test_held_out_mgs_over_every_pair_matches_oracles(self):
        # ROADMAP D16: when eval_pairs covers every held-out pair, the held-out
        # MGS is the Spearman correlation over np.triu_indices of those graphs
        corpus = generate_synthetic(SyntheticSpec(
            n_graphs=60, size_min=8, size_max=12, homophily=0.4, label_rule="triangle_motif",
            seed=4, families=8, attr_sizes=(4, 6), edge_attr_sizes=(1,),
            edge_factor_jitter=0.3, member_edge_jitter=0.3))
        fps = make_fingerprints(corpus, "topological", max_path_len=4)
        cfg = PgmConfig(batch_size=8, epochs=2, seed=5, eval_pairs=15)
        model, report = pretrain(corpus, tiny_model(corpus, seed=6), cfg, fps)
        _, hold = training.holdout_split(len(corpus), cfg.holdout_fraction,
                                         derive_seed(cfg.seed, "pretrain-holdout"))
        assert len(hold) == 6  # 15 pairs, all of them scored
        held = [corpus.graphs[i] for i in hold]
        emb = embed_graph(model, held).data
        rows, cols = np.triu_indices(len(held), 1)
        want = spearman([structural(fps[held[i].id], fps[held[j].id]) for i, j in zip(rows, cols)],
                        [cosine(emb[i], emb[j]) for i, j in zip(rows, cols)])
        assert report.holdout_mgs[-1] == pytest.approx(want, abs=1e-12)

    def test_too_few_held_out_pairs_rejected_before_any_step(self, tiny_corpus, tiny_fps):
        # 25 graphs hold out 2, which make 1 pair; 26 hold out 3
        small = GraphCorpus(graphs=tiny_corpus.graphs[:25], task_count=1)
        model = tiny_model(small, seed=14)
        before = {k: p.data.copy() for k, p in model.params.items()}
        with pytest.raises(DataError, match="holds out 2 of 25 graphs: 1 pair"):
            pretrain(small, model, PgmConfig(batch_size=8, epochs=1, seed=0), tiny_fps)
        for k, p in model.params.items():
            assert p.data.tobytes() == before[k].tobytes()
        _, report = pretrain(GraphCorpus(graphs=tiny_corpus.graphs[:26], task_count=1), model,
                             PgmConfig(batch_size=8, epochs=1, seed=0), tiny_fps)
        assert len(report.holdout_mgs) == 1


def test_gin_step_keeps_few_activations_per_layer():
    # one pre-training step of a 5-layer GIN whose (rows, width) activations
    # dwarf its weights: a layer keeps 2 such arrays for its backward, its
    # input and its ReLU's output, and rebuilds its aggregate there.  With the
    # embeddings and the step's transients the peak reads 2.84 per layer;
    # keeping the aggregate read 3.51, and a tape of unfused matmul-then-add
    # ops held 8 per layer
    rng = np.random.default_rng(0)
    graphs = [random_attributed_graph(rng, 40, 60) for _ in range(24)]
    layers, width = 5, 32
    model = init_model(GnnConfig(arch="gin", layers=layers, hidden_dim=width,
                                 attr_sizes=(4, 2)), seed=1)
    inputs = prepare(model.config, graphs)
    structural = rng.random(len(graphs) * (len(graphs) - 1) // 2)

    def step():
        with T.tape():
            T.backward(pgm_loss(embed_graph(model, inputs), structural, PgmConfig()))

    step()  # imports and first-call set-up stay out of the traced step
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    activation = sum(g.node_count for g in graphs) * width * 8
    assert peak < 3.2 * layers * activation


class TestEvaluateMgs:
    def test_identity_encoder_crafted_corpus(self):
        # attribute-disjoint single-edge graphs: fingerprints have disjoint
        # bits across different attr pairs, identical bits for the twin pair
        def pair_graph(gid, a, b):
            return LabeledGraph(id=gid, node_count=2, edges=((0, 1),),
                                node_attrs=((a,), (b,)), edge_attrs=((0,),))

        corpus = GraphCorpus(graphs=(pair_graph("g0", 0, 0), pair_graph("g1", 0, 0),
                                     pair_graph("g2", 1, 1), pair_graph("g3", 2, 3)))
        fps = make_fingerprints(corpus, "topological", max_path_len=2)
        model = tiny_model(corpus, seed=6)

        def encoder(picks):
            return np.stack([fps[corpus.graphs[i].id].bits.astype(float) for i in picks])

        from graphmgs.similarity import build_pair_set
        pairs = build_pair_set(corpus, encoder, fps, *np.triu_indices(4, k=1))
        # cosine of the fingerprints themselves is rank-identical to tanimoto
        assert mgs(pairs) == pytest.approx(1.0)

    def test_seed_reproducible(self, tiny_corpus, tiny_fps):
        model = tiny_model(tiny_corpus, seed=7)
        a, _ = evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=50, seed=3)
        b, _ = evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=50, seed=3)
        assert a == b

    def test_csv_written(self, tiny_corpus, tiny_fps, tmp_path):
        model = tiny_model(tiny_corpus, seed=8)
        path = tmp_path / "pairs.csv"
        _, pairs = evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=30, seed=4)
        write_pair_csv(pairs, path)
        assert len(path.read_text().splitlines()) == 31

    @pytest.mark.parametrize("first, second, match", [
        (("topological", dict(max_path_len=4)), ("morgan", dict(radius=2)),
         r"topological\(max_path_len=4, .* and morgan\(radius=2, "),
        (("topological", dict(max_path_len=4)), ("topological", dict(max_path_len=3)),
         r"max_path_len=4, .* and topological\(max_path_len=3, "),
        (("spectral", dict(k=6, kind=COMBINATORIAL)), ("spectral", dict(k=5, kind=COMBINATORIAL)),
         r"kind=combinatorial\) of length 6 and spectral\(k=5, kind=combinatorial\) of length 5")],
        ids=["topological-morgan", "max_path_len", "spectral_k"])
    def test_mixed_kinds_rejected_before_encoding(self, tiny_corpus, monkeypatch,
                                                  first, second, match):
        encoded = []
        monkeypatch.setattr(training, "embed_rows", lambda *args: encoded.append(args))
        half = len(tiny_corpus.graphs) // 2
        fps = {**make_fingerprints(tiny_corpus.graphs[:half], first[0], **first[1]),
               **make_fingerprints(tiny_corpus.graphs[half:], second[0], **second[1])}
        with pytest.raises(DataError, match=match):
            evaluate_mgs(tiny_corpus, tiny_model(tiny_corpus, seed=7), fps, n_pairs=50, seed=3)
        assert encoded == []

    def test_nan_embeddings_rejected(self, tiny_corpus, tiny_fps):
        model = tiny_model(tiny_corpus, seed=9)
        next(iter(model.params.values())).data[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=50, seed=3)


class TestWorkerCount:
    def test_mgs_bits_do_not_depend_on_workers(self, workers):
        # 10 held-out graphs make two encoder blocks, and B = 64 splits the soft rank
        spec = SyntheticSpec(n_graphs=100, size_min=8, size_max=12, homophily=0.4,
                             label_rule="triangle_motif", seed=3, families=8,
                             attr_sizes=(4, 6), edge_attr_sizes=(1,))
        corpus = generate_synthetic(spec)
        fps = make_fingerprints(corpus, "topological", max_path_len=4)
        config = GnnConfig(arch="gin", layers=2, hidden_dim=ENCODE_SPLIT_WIDTH,
                           attr_sizes=infer_attr_sizes(corpus))
        runs = []
        for count in (1, 3):
            workers(count)
            model, report = pretrain(corpus, init_model(config, seed=0),
                                     PgmConfig(batch_size=64, epochs=2, seed=1), fps)
            score, pairs = evaluate_mgs(corpus, model, fps, n_pairs=300, seed=2)
            runs.append((report.losses, report.holdout_mgs, score, pairs.embedding.tobytes()))
        assert runs[0] == runs[1]


class TestRocAuc:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NumericError, match="non-finite"):
            roc_auc([0.9, bad, 0.2, 0.1], [1, 1, 0, 0])

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_example_half(self):
        assert roc_auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(NumericError, match="AUC undefined"):
            roc_auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("labels", [[1, 0, 2], [1, 0, -1], [1, 0, 0.5]])
    def test_label_outside_zero_one_rejected(self, labels):
        with pytest.raises(DataError, match="0 or 1"):
            roc_auc([0.5, 0.1, 0.3], labels)

    def test_bool_labels_accepted(self):
        assert roc_auc([0.5, 0.1, 0.3], [True, False, True]) == 1.0

    def test_brute_force_oracle_1000_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.normal(size=n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
                       for p in pos for q in neg)
            assert roc_auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)),
                                                            abs=1e-12)


class TestFinetune:
    def test_all_labels_missing_rejected(self, tiny_corpus):
        graphs = tuple(LabeledGraph(id=g.id, node_count=g.node_count, edges=g.edges,
                                    node_attrs=g.node_attrs, edge_attrs=g.edge_attrs,
                                    node_labels=g.node_labels, graph_labels=(None,))
                       for g in tiny_corpus)
        corpus = GraphCorpus(graphs=graphs, task_count=1)
        model = tiny_model(corpus, seed=9)
        with pytest.raises(DataError, match="missing"):
            finetune(corpus, model, epochs=1, seed=0)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_numpy_integer_seed_report_round_trips_through_json(self, tiny_corpus, epochs):
        model = tiny_model(tiny_corpus, seed=11, task_count=1)
        _, report = finetune(tiny_corpus, model, epochs=epochs, seed=np.int64(2))
        text = json.dumps(report.to_dict())
        assert json.dumps(json.loads(text)) == text  # NaN AUCs compare as text
        assert type(report.seed) is int and json.loads(text)["seed"] == 2

    def test_unlabeled_corpus_rejected(self):
        g = LabeledGraph(id="u", node_count=2, edges=((0, 1),),
                         node_attrs=((0,), (0,)), edge_attrs=((0,),))
        corpus = GraphCorpus(graphs=(g,), task_count=0)
        with pytest.raises(DataError, match="labels"):
            finetune(corpus, tiny_model(corpus, seed=10), epochs=1, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", -2), ("batch_size", 0), ("batch_size", -3), ("batch_size", 2.5),
        ("epochs", 1.5), ("seed", -1), ("seed", 1.5), ("seed", True)])
    def test_out_of_range_argument_rejected(self, tiny_corpus, field, value):
        model = tiny_model(tiny_corpus, seed=11, task_count=1)
        with pytest.raises(DataError, match=field):
            finetune(tiny_corpus, model, **{"epochs": 1, "seed": 0, field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_split_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed"):
            training.holdout_split(20, 0.1, seed)
        with pytest.raises(DataError, match="seed"):
            split_folds(20, seed)

    def test_seeded_reproducibility(self, tiny_corpus):
        def run():
            model = tiny_model(tiny_corpus, seed=11, task_count=1)
            _, report = finetune(tiny_corpus, model, epochs=3, seed=4)
            return report

        r1, r2 = run(), run()
        assert r1.train_losses == r2.train_losses
        assert np.allclose(r1.valid_aucs, r2.valid_aucs, equal_nan=True)
        assert r1.test_auc == r2.test_auc

    def test_linearly_separable_reaches_train_auc_1(self):
        # label = indicator(graph has a 5/6 attr-1 majority): separable with a
        # fixed margin in the mean-pooled attribute histogram
        rng = np.random.default_rng(12)
        graphs = []
        for i in range(40):
            n = 6
            majority = int(rng.integers(0, 2))
            count_one = 5 if majority else 1
            attrs = [(1,)] * count_one + [(0,)] * (n - count_one)
            edges = tuple((k, k + 1) for k in range(n - 1))
            graphs.append(LabeledGraph(
                id=f"s{i}", node_count=n, edges=edges, node_attrs=tuple(attrs),
                edge_attrs=((0,),) * len(edges), graph_labels=(majority,)))
        corpus = GraphCorpus(graphs=tuple(graphs), task_count=1)
        model = tiny_model(corpus, seed=13, task_count=1)
        model, _ = finetune(corpus, model, epochs=50, seed=1)
        from graphmgs.models import classify
        scores = classify(model, list(corpus)).data[:, 0]
        labels = [g.graph_labels[0] for g in corpus]
        assert roc_auc(scores, labels) == 1.0

    def test_test_labels_read_only_after_training(self, tiny_corpus):
        events = []
        model = tiny_model(tiny_corpus, seed=14, task_count=1)
        finetune(tiny_corpus, model, epochs=3, seed=2,
                 on_label_read=lambda fold, epoch: events.append((fold, epoch)))
        test_events = [e for e in events if e[0] == "test"]
        assert test_events == [("test", None)]
        assert all(e[1] is not None for e in events if e[0] in ("train", "valid"))

    def test_masked_bce_ignores_all_missing_graphs(self, tiny_corpus):
        model1 = tiny_model(tiny_corpus, seed=15, task_count=1)
        _, rep1 = finetune(tiny_corpus, model1, epochs=2, seed=3)

        # append graphs whose labels are all missing: same split indices are
        # not preserved, so compare batch-loss values on identical fold content
        # via a direct loss probe instead
        from graphmgs.models import classify
        g = tiny_corpus.graphs[0]
        logits = classify(model1, [g])
        base = T.bce_with_logits(logits, np.asarray([[1.0]]), np.asarray([[1.0]]))
        with pytest.raises(DataError, match="no unmasked"):
            T.bce_with_logits(classify(model1, [g]), np.asarray([[1.0]]), np.asarray([[0.0]]))
        assert np.isfinite(base.item())

    def test_split_folds_disjoint_cover(self):
        folds = split_folds(37, seed=1)
        allidx = np.concatenate([folds["train"], folds["valid"], folds["test"]])
        assert sorted(allidx.tolist()) == list(range(37))

    def test_one_class_valid_fold_keeps_last_epoch(self):
        # 2 positives in 40 graphs are below MIN_STRATUM, so stratification
        # leaves them where the permutation puts them: one in test, one in
        # train, and a valid fold of negatives only
        seed, epochs = 5, 4
        plain = split_folds(40, derive_seed(seed, "finetune-split"))
        positives = {int(plain["test"][0]), int(plain["train"][0])}
        graphs = []
        for i in range(40):
            label = int(i in positives)
            attrs = [(1,)] * (5 if label else 1 + i % 3)
            attrs += [(0,)] * (6 - len(attrs))
            edges = tuple((k, k + 1) for k in range(5))
            graphs.append(LabeledGraph(
                id=f"r{i}", node_count=6, edges=edges, node_attrs=tuple(attrs),
                edge_attrs=((0,),) * len(edges), graph_labels=(label,)))
        corpus = GraphCorpus(graphs=tuple(graphs), task_count=1)
        folds = split_folds(40, derive_seed(seed, "finetune-split"),
                            [g.graph_labels for g in graphs])
        assert not positives & set(folds["valid"].tolist())
        assert positives & set(folds["test"].tolist())

        model = tiny_model(corpus, seed=16, task_count=1)
        initial = {k: p.data.copy() for k, p in model.params.items()}
        model, report = finetune(corpus, model, epochs=epochs, seed=seed)
        assert len(report.valid_aucs) == epochs and np.all(np.isnan(report.valid_aucs))
        assert report.best_epoch == epochs
        assert report.selection == "last_epoch"
        assert report.to_dict()["selection"] == "last_epoch"
        assert any(not np.array_equal(p.data, initial[k]) for k, p in model.params.items())
        assert np.isfinite(report.test_auc)

    @pytest.mark.parametrize("one_class_valid", [False, True])
    def test_non_finite_validation_scores_raise(self, one_class_valid):
        # only valid-fold graphs carry attribute 2, whose embedding row is NaN:
        # the training loss and the test fold stay finite, the valid scores do not
        seed = 5
        plain = split_folds(40, derive_seed(seed, "finetune-split"))
        # 2 positives are below MIN_STRATUM: one lands in test, none in valid
        positives = ({int(plain["test"][0]), int(plain["train"][0])} if one_class_valid
                     else set(range(0, 40, 2)))
        labels = [(int(i in positives),) for i in range(40)]
        folds = split_folds(40, derive_seed(seed, "finetune-split"), labels)
        valid = set(folds["valid"].tolist())
        assert len({labels[i] for i in valid}) == (1 if one_class_valid else 2)
        graphs = tuple(LabeledGraph(
            id=f"v{i}", node_count=4, edges=((0, 1), (1, 2), (2, 3)),
            node_attrs=((2 if i in valid else i % 2,), (0,), (1,), (i % 2,)),
            edge_attrs=((0,),) * 3, graph_labels=labels[i]) for i in range(40))
        corpus = GraphCorpus(graphs=graphs, task_count=1)
        model = tiny_model(corpus, seed=19, task_count=1)
        model.params["embed.0"].data[2] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            finetune(corpus, model, epochs=2, seed=seed)

    def test_zero_epochs_returns_initial_parameters(self, tiny_corpus):
        model = tiny_model(tiny_corpus, seed=17, task_count=1)
        initial = {k: p.data.copy() for k, p in model.params.items()}
        model, report = finetune(tiny_corpus, model, epochs=0, seed=0)
        assert (report.best_epoch, report.selection) == (0, "last_epoch")
        for k, p in model.params.items():
            assert p.data.tobytes() == initial[k].tobytes()

    def test_valid_auc_selection_recorded(self, tiny_corpus):
        model = tiny_model(tiny_corpus, seed=18, task_count=1)
        _, report = finetune(tiny_corpus, model, epochs=3, seed=6)
        defined = [a for a in report.valid_aucs if not np.isnan(a)]
        assert defined, "the tiny corpus should give a two-class validation fold"
        assert report.selection == "valid_auc"
        assert report.valid_aucs[report.best_epoch - 1] == max(defined)
        assert report.to_dict()["selection"] == "valid_auc"

    def test_stratified_split_guarantee(self):
        # valid and test hold every stratum of at least MIN_STRATUM members
        # whenever there are no more such strata than fold places; a split
        # that already covers them is the plain one
        rng = np.random.default_rng(19)
        for case in range(300):
            n = int(rng.integers(12, 90))
            p_pos, p_missing = rng.uniform(0.0, 0.6), rng.choice([0.0, 0.0, 0.1, 0.3])
            draws = rng.uniform(size=n)
            labels = [(None,) if u < p_missing else (int(u < p_missing + p_pos),)
                      for u in draws]
            seed = int(rng.integers(1 << 30))
            folds = split_folds(n, seed, labels)
            allidx = np.concatenate([folds["train"], folds["valid"], folds["test"]])
            assert sorted(allidx.tolist()) == list(range(n)), case
            assert len(folds["valid"]) == len(folds["test"]) == max(1, n // 10), case
            required = {s for s in set(labels) if labels.count(s) >= MIN_STRATUM}
            covered = all(required <= {labels[i] for i in folds[f]} for f in ("valid", "test"))
            if len(required) <= n // 10:
                assert covered, case
            plain = split_folds(n, seed)
            if all(required <= {labels[i] for i in plain[f]} for f in ("valid", "test")):
                for f in ("train", "valid", "test"):
                    assert folds[f].tolist() == plain[f].tolist(), case

    @pytest.mark.parametrize("n", [20.0, np.int64(-1), True])
    def test_split_folds_n_must_be_a_non_negative_integer(self, n):
        with pytest.raises(DataError, match="split_folds: n"):
            split_folds(n, seed=0)

    def test_split_folds_strata_length_checked(self):
        with pytest.raises(DataError, match="strata"):
            split_folds(20, seed=0, strata=[0] * 19)

    def test_one_task_split_by_its_labels(self, tiny_corpus, monkeypatch):
        seed = 7
        folds = _finetune_folds(tiny_corpus, seed, monkeypatch)
        by_tuple = split_folds(len(tiny_corpus.graphs), derive_seed(seed, "finetune-split"),
                               [g.graph_labels for g in tiny_corpus])
        for f in ("train", "valid", "test"):
            assert folds[f].tolist() == by_tuple[f].tolist()

    def test_several_tasks_stratified_on_the_rarest_class(self, tmp_path, monkeypatch):
        # three tasks with missing labels: most label tuples are rare, but both
        # classes of the task with the fewest minority labels (task 1's 5
        # positives) must reach valid and test, which a split by whole label
        # tuples misses on this corpus
        rng = np.random.default_rng(1)
        path = tmp_path / "tasks.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(60):
                labels = [None if rng.uniform() < p_missing else int(rng.uniform() < p_pos)
                          for p_pos, p_missing in ((0.5, 0.2), (0.15, 0.3), (0.35, 0.4))]
                n = int(rng.integers(3, 7))
                fh.write(json.dumps({
                    "id": f"m{i}", "n": n, "edges": [[k, k + 1] for k in range(n - 1)],
                    "node_attrs": [[int(a)] for a in rng.integers(0, 3, size=n)],
                    "edge_attrs": [[0]] * (n - 1), "graph_labels": labels}) + "\n")
        corpus = load_corpus(path)
        assert corpus.task_count == 3
        known = [[g.graph_labels[t] for g in corpus if g.graph_labels[t] is not None]
                 for t in range(3)]
        minority = [min(k.count(0), k.count(1)) for k in known]
        assert minority[1] == min(minority) == 5
        folds = _finetune_folds(corpus, 0, monkeypatch)
        for f in ("valid", "test"):
            assert {corpus.graphs[i].graph_labels[1] for i in folds[f]} >= {0, 1}, f

    def test_multi_task_test_auc_is_the_mean_over_tasks_with_both_classes(self, monkeypatch):
        # three tasks on one synthetic corpus: its triangle-motif label, edge
        # homophily at or above the median, and a rare task (the 2 graphs with
        # the most edges); about 30% of the labels hidden at a fixed seed
        import dataclasses
        from graphmgs.graphs import homophily_ratio
        from graphmgs.models import classify

        base = generate_synthetic(SyntheticSpec(
            n_graphs=60, size_min=8, size_max=12, homophily=0.4, label_rule="triangle_motif",
            seed=3, families=12, attr_sizes=(4, 6), edge_attr_sizes=(1,),
            edge_factor_jitter=0.3, member_edge_jitter=0.3))
        homophily = np.array([homophily_ratio(g) for g in base])
        edges = np.array([g.edge_count for g in base])
        table = np.stack([[g.graph_labels[0] for g in base],
                          homophily >= np.median(homophily),
                          edges >= np.sort(edges)[-2]], axis=1).astype(int)
        hidden = np.random.default_rng(2).random(table.shape) < 0.3
        assert table[:, 2].sum() == 2 and 0.2 < hidden.mean() < 0.4
        corpus = GraphCorpus(task_count=3, graphs=tuple(
            dataclasses.replace(g, graph_labels=tuple(
                None if miss else int(y) for y, miss in zip(row, hide)))
            for g, row, hide in zip(base, table, hidden)))

        folds = []
        real_split = training.split_folds
        monkeypatch.setattr(training, "split_folds",
                            lambda *args: folds.append(real_split(*args)) or folds[-1])
        model, report = finetune(corpus, tiny_model(corpus, seed=26, task_count=3),
                                 epochs=3, seed=0, batch_size=16)
        test = folds[0]["test"]
        scores = classify(model, prepare(model.config, [corpus.graphs[i] for i in test])).data
        labels = np.where(hidden, -1, table)[test]
        aucs = {}
        for t in range(3):
            known = labels[:, t] >= 0
            if np.unique(labels[known, t]).size == 2:
                aucs[t] = roc_auc(scores[known, t], labels[known, t])
            else:
                with pytest.raises(NumericError, match="at least one positive and one negative"):
                    roc_auc(scores[known, t], labels[known, t])
        # the rare task's known test labels are all one class, so it is left out
        assert sorted(aucs) == [0, 1]
        assert set(labels[labels[:, 2] >= 0, 2].tolist()) == {0}
        assert report.test_auc == np.mean(list(aucs.values()))


def _finetune_folds(corpus, seed, monkeypatch):
    """The folds one epoch of ``finetune`` splits ``corpus`` into."""
    seen = []

    def recording_split(*args):
        seen.append(split_folds(*args))
        return seen[-1]

    monkeypatch.setattr(training, "split_folds", recording_split)
    finetune(corpus, tiny_model(corpus, seed=20, task_count=corpus.task_count),
             epochs=1, seed=seed)
    return seen[0]


# pre-training, fine-tuning and MGS outputs of every architecture on the tiny
# corpus, recorded when each forward pass still built its own inputs
PIPELINE_GOLDEN = json.loads((Path(__file__).parent / "pipeline_golden.json").read_text())


class TestPreparedInput:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_outputs_match_recorded(self, tiny_corpus, tiny_fps, arch):
        model = init_model(GnnConfig(arch=arch, layers=2, hidden_dim=8,
                                     attr_sizes=infer_attr_sizes(tiny_corpus)), seed=21)
        model, pre = pretrain(tiny_corpus, model,
                              PgmConfig(batch_size=8, epochs=2, seed=22, eval_pairs=5), tiny_fps)
        model, ft = finetune(tiny_corpus, model, epochs=2, seed=23, batch_size=8)
        score, _ = evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=60, seed=24)
        got = {"pretrain_losses": pre.losses, "holdout_mgs": pre.holdout_mgs,
               "train_losses": ft.train_losses, "valid_aucs": ft.valid_aucs,
               "test_auc": ft.test_auc, "mgs": score,
               "embeddings": embed_graph(model, tiny_corpus.graphs[:3]).data}
        assert got.keys() == PIPELINE_GOLDEN[arch].keys()
        for key, want in PIPELINE_GOLDEN[arch].items():
            # a tolerance, not exact bits: BLAS rounding differs across hosts
            np.testing.assert_allclose(got[key], want, rtol=0, atol=1e-12, err_msg=key)

    def test_each_graph_prepared_once_per_call(self, tiny_corpus, tiny_fps, monkeypatch):
        from graphmgs import models

        built = []
        gin = models._OPERATORS["gin"]
        monkeypatch.setitem(models._OPERATORS, "gin", lambda g: built.append(g.id) or gin(g))
        model = tiny_model(tiny_corpus, seed=25, task_count=1)
        ids = sorted(g.id for g in tiny_corpus)
        for call in (lambda: pretrain(tiny_corpus, model, PgmConfig(batch_size=8, epochs=3),
                                      tiny_fps),
                     lambda: finetune(tiny_corpus, model, epochs=3, seed=0, batch_size=8)):
            built.clear()
            call()
            assert sorted(built) == ids
        # MGS evaluation prepares the graphs its pairs use, and no others
        built.clear()
        _, pairs = evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=5)
        scored = sorted(set(pairs.ids[pairs.rows]) | set(pairs.ids[pairs.cols]))
        assert sorted(built) == scored and len(scored) < len(ids)


class TestNonFiniteLoss:
    def test_tape_cleared_when_training_raises(self, tiny_corpus, tiny_fps):
        model = tiny_model(tiny_corpus, seed=16, task_count=1)
        next(iter(model.params.values())).data[0, 0] = np.nan
        # training records on its own inner tape, so nothing reaches the caller's
        with T.tape():
            with pytest.raises(NumericError, match="pre-training loss"):
                pretrain(tiny_corpus, model, PgmConfig(batch_size=8, epochs=1, seed=0),
                         tiny_fps)
            assert T.tape_size() == 0
            with pytest.raises(NumericError, match="fine-tuning loss"):
                finetune(tiny_corpus, model, epochs=1, seed=0)
            assert T.tape_size() == 0

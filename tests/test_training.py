import numpy as np
import pytest

from graphmgs import tensor as T
from graphmgs.config import derive_seed
from graphmgs.errors import DataError, NumericError
from graphmgs.fingerprints import make_fingerprints
from graphmgs.graphs import GraphCorpus, LabeledGraph
from graphmgs.models import GnnConfig, infer_attr_sizes, init_model
from graphmgs.similarity import average_ranks, mgs
from graphmgs.synthetic import SyntheticSpec, generate_synthetic
from graphmgs.training import (MIN_STRATUM, FinetuneReport, PgmConfig, SkippedBatch,
                               evaluate_mgs, finetune, pgm_loss, pretrain, roc_auc,
                               split_folds)

from conftest import finite_difference_check


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
    cfg = GnnConfig(arch=arch, layers=2, hidden_dim=16, dropout=0.5,
                    attr_sizes=infer_attr_sizes(corpus), task_count=task_count)
    return init_model(cfg, seed=seed)


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
        ("epochs", -1), ("lr", -1.0), ("lr", 0.0), ("lr", np.nan), ("lr", np.inf),
        ("holdout_fraction", np.nan), ("holdout_fraction", -0.1), ("holdout_fraction", 1.0)])
    def test_out_of_range_argument_rejected(self, field, value):
        with pytest.raises(DataError, match=field):
            PgmConfig(**{field: value})


def _pair_cosines(embs):
    from graphmgs.similarity import cosine_similarity
    out = []
    for i in range(len(embs.data)):
        for j in range(i + 1, len(embs.data)):
            out.append(cosine_similarity(embs.data[i], embs.data[j]))
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
            return np.asarray([similarity.structural_similarity(fps[i], fps[j])
                               for i, j in zip(rows, cols)])

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

        def encoder(graphs):
            return np.stack([fps[g.id].bits.astype(float) for g in graphs])

        from graphmgs.similarity import build_pair_set
        pairs = build_pair_set(corpus, encoder, fps, n_pairs=6, seed=0)
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
        value, pairs = evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=30,
                                    seed=4, csv_path=path)
        assert path.exists()
        assert len(path.read_text().splitlines()) == 31

    def test_nan_embeddings_rejected(self, tiny_corpus, tiny_fps):
        model = tiny_model(tiny_corpus, seed=9)
        next(iter(model.params.values())).data[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            evaluate_mgs(tiny_corpus, model, tiny_fps, n_pairs=50, seed=3)


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

    def test_unlabeled_corpus_rejected(self):
        g = LabeledGraph(id="u", node_count=2, edges=((0, 1),),
                         node_attrs=((0,), (0,)), edge_attrs=((0,),))
        corpus = GraphCorpus(graphs=(g,), task_count=0)
        with pytest.raises(DataError, match="labels"):
            finetune(corpus, tiny_model(corpus, seed=10), epochs=1, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", -2), ("batch_size", 0), ("batch_size", -3), ("lr", -1.0), ("lr", 0.0),
        ("lr", np.nan), ("lr", np.inf)])
    def test_out_of_range_argument_rejected(self, tiny_corpus, field, value):
        model = tiny_model(tiny_corpus, seed=11, task_count=1)
        with pytest.raises(DataError, match=field):
            finetune(tiny_corpus, model, seed=0, **{"epochs": 1, field: value})

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

    def test_split_folds_strata_length_checked(self):
        with pytest.raises(DataError, match="strata"):
            split_folds(20, seed=0, strata=[0] * 19)


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

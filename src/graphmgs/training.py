"""Structure-aligned self-supervised pre-training, fine-tuning, and evaluation.

The pre-training objective maximizes rank correlation between structural
similarity (from fingerprints, constant) and embedding similarity (cosine of
encoder outputs, differentiable), using either a soft-rank surrogate for
Spearman or a plain Pearson surrogate.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, ClassVar, Hashable, Optional, Sequence

import numpy as np

from . import tensor as T
from .config import derive_seed, stable_hash
from .errors import DataError, NumericError, check_int, check_real
from .fingerprints import SCHEMES, TOPOLOGICAL
from .graphs import GraphCorpus
from .models import GnnModel, embed_graph, embed_rows, classify, prepare, with_head
from .similarity import (SimilarityPairSet, average_ranks, build_pair_set, check_comparable,
                         cosine_pair_sims, fingerprints_of, mgs, sample_pair_indices,
                         structural_pair_sims)

SURROGATES = ("softrank", "pearson")


@dataclass(frozen=True)
class PgmConfig:
    surrogate: str = "softrank"
    temperature: float = 0.0       # 0 = auto: 0.05 x IQR of the batch's embedding sims
    batch_size: int = 32
    epochs: int = 100
    scheme: str = TOPOLOGICAL
    seed: int = 0
    eval_pairs: int = 200
    holdout_fraction: ClassVar[float] = 0.1  # share of the corpus held out of pre-training

    def __post_init__(self):
        if self.surrogate not in SURROGATES:
            raise DataError(f"unknown surrogate {self.surrogate!r}")
        if self.scheme not in SCHEMES:
            raise DataError(f"unknown fingerprint scheme {self.scheme!r}")
        for name, minimum in (("batch_size", 3), ("epochs", 0), ("seed", 0), ("eval_pairs", 2)):
            check_int(name, getattr(self, name), minimum)
        check_real("temperature (0 selects auto)", self.temperature, 0.0)


@dataclass(frozen=True)
class SkippedBatch:
    """A pre-training batch that took no step: its epoch (from 1), its position
    in that epoch's shuffled order (from 0), its graphs, and why."""

    epoch: int
    position: int
    graph_ids: tuple
    reason: str


@dataclass
class TrainReport:
    """Per-epoch pre-training trace; epochs are recorded consecutively from 1."""

    losses: list[float] = field(default_factory=list)
    holdout_mgs: list[float] = field(default_factory=list)
    wall_clock: float = 0.0
    seed: int = 0
    config_hash: str = ""
    skipped: list[SkippedBatch] = field(default_factory=list)

    @property
    def skipped_batches(self) -> int:
        return len(self.skipped)

    def to_dict(self) -> dict:
        return {"epochs": len(self.losses), **asdict(self),
                "skipped_batches": self.skipped_batches}


def _pearson_of(x: T.Tensor, y_const: np.ndarray) -> T.Tensor:
    """Differentiable Pearson correlation of a tensor against a constant vector."""
    y = np.asarray(y_const, dtype=np.float64)
    if float(np.var(x.data)) < 1e-30:
        raise NumericError("pgm loss undefined: constant embedding similarities")
    sy = float(np.sqrt(np.sum((y - y.mean()) ** 2)))
    dx = x - T.tsum(x) / len(x.data)
    dy = (y - y.mean()) / sy
    num = T.tsum(dx * dy)
    den = T.sqrt(T.tsum(dx * dx))
    return num / den


def pgm_loss(embeddings: T.Tensor, structural_sims: np.ndarray,
             cfg: PgmConfig) -> T.Tensor:
    """Negative correlation between structural and embedding similarity over
    every pair of rows of a (B, h) embedding matrix, in ``np.triu_indices`` order.

    softrank mode correlates differentiable soft ranks of the embedding
    similarities with exact average ranks of the structural similarities;
    pearson mode correlates the raw vectors.  Gradient flows only through
    the embedding side.
    """
    structural = np.asarray(structural_sims, dtype=np.float64)
    n_pairs = len(embeddings.data) * (len(embeddings.data) - 1) // 2
    if len(structural) != n_pairs:
        raise DataError(f"pgm_loss: {len(structural)} structural sims for {n_pairs} pairs")
    if n_pairs < 3:
        raise DataError("pgm_loss: need at least 3 pairs")
    if np.all(structural == structural[0]):
        raise NumericError("pgm loss undefined: zero rank variance in structural similarities")
    sims = cosine_pair_sims(embeddings, *np.triu_indices(len(embeddings.data), k=1))
    if not np.all(np.isfinite(sims.data)):
        # a non-finite embedding leaves the loss, and the auto temperature, undefined;
        # a NaN loss is what callers check for (pretrain raises on it)
        return T.Tensor(np.nan)
    if cfg.surrogate == "pearson":
        corr = _pearson_of(sims, structural)
    else:
        tau = cfg.temperature
        if tau == 0.0:
            q75, q25 = np.percentile(sims.data, [75, 25])
            spread = q75 - q25
            if spread <= 0.0:
                spread = float(np.max(sims.data) - np.min(sims.data))
            if spread <= 0.0:
                raise NumericError("pgm loss undefined: constant embedding similarities")
            tau = 0.05 * spread
        soft = T.soft_rank(sims, tau)
        corr = _pearson_of(soft, average_ranks(structural))
    return -corr


def holdout_split(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train_indices, holdout_indices) with at least 2 held-out graphs."""
    check_int("holdout_split: seed", seed, 0)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    k = max(2, int(round(fraction * n)))
    if k >= n:
        raise DataError("holdout fraction leaves no training graphs")
    return perm[k:], perm[:k]


def pretrain(corpus: GraphCorpus, model: GnnModel, cfg: PgmConfig,
             fingerprints: dict) -> tuple[GnnModel, TrainReport]:
    """Epochs of within-batch pair correlation maximization with Adam; the
    held-out MGS is evaluated after every epoch on one sample of
    ``cfg.eval_pairs`` pairs of unseen graphs, drawn before the first step.
    A batch whose loss is undefined (``NumericError``) takes no step and is
    recorded in ``report.skipped``; a trailing batch of fewer than 3 graphs
    is left out.  Every fingerprint must be of ``cfg.scheme``, and all of
    one kind (``similarity.check_comparable``)."""
    graphs = list(corpus)
    fps = fingerprints_of(graphs, fingerprints)
    for g, fp in zip(graphs, fps):
        if fp.scheme != cfg.scheme:
            raise DataError(f"graph {g.id!r}: {fp.scheme} fingerprint, but "
                            f"the config's scheme is {cfg.scheme!r}")
    check_comparable(fps)
    report = TrainReport(seed=cfg.seed, config_hash=stable_hash(vars(cfg)))
    if cfg.epochs == 0:
        return model, report

    start = time.perf_counter()
    train_idx, hold_idx = holdout_split(len(graphs), cfg.holdout_fraction,
                                        derive_seed(cfg.seed, "pretrain-holdout"))
    hold_graphs = [graphs[i] for i in hold_idx]
    n_hold_pairs = min(cfg.eval_pairs, len(hold_graphs) * (len(hold_graphs) - 1) // 2)
    if n_hold_pairs < 2:  # before any step changes the caller's model
        raise DataError(f"pre-training holds out {len(hold_graphs)} of {len(graphs)} graphs: "
                        f"{n_hold_pairs} pair, but the held-out MGS needs at least 2")
    hold_pairs = sample_pair_indices(len(hold_graphs), n_hold_pairs,
                                     derive_seed(cfg.seed, "pretrain-eval"))

    state = T.AdamState(model.parameters())
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "pretrain-shuffle"))
    inputs = prepare(model.config, graphs)

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(train_idx)
        batch_losses = []
        for position, lo in enumerate(range(0, len(order), cfg.batch_size)):
            picks = order[lo:lo + cfg.batch_size]
            batch = [graphs[i] for i in picks]
            if len(batch) < 3:
                continue
            structural = structural_pair_sims([fps[i] for i in picks],
                                              *np.triu_indices(len(batch), k=1))
            T.zero_grads(state.params)
            with T.tape():
                try:
                    loss = pgm_loss(embed_graph(model, [inputs[i] for i in picks]),
                                    structural, cfg)
                except NumericError as exc:
                    report.skipped.append(SkippedBatch(
                        epoch, position, tuple(g.id for g in batch), str(exc)))
                    continue
                if not np.isfinite(loss.item()):
                    raise NumericError(
                        f"NaN/inf pre-training loss on batch {[g.id for g in batch]}")
                T.backward(loss)
            T.adam_step(state)
            batch_losses.append(loss.item())
        report.losses.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
        report.holdout_mgs.append(mgs(build_pair_set(
            hold_graphs, lambda picks: embed_rows(model, [inputs[hold_idx[i]] for i in picks]),
            fingerprints, *hold_pairs)))
    report.wall_clock = time.perf_counter() - start
    return model, report


def evaluate_mgs(corpus: GraphCorpus, model: GnnModel, fingerprints: dict,
                 n_pairs: int = 1000, seed: int = 0) -> tuple[float, SimilarityPairSet]:
    """MGS of a trained (or untrained) encoder over ``n_pairs`` pairs of the
    corpus, drawn by ``similarity.sample_pair_indices`` at ``seed``, and the
    scored pairs (``similarity.write_pair_csv`` exports them as a scatter CSV).
    Only the graphs the pairs use are encoded, so only they are prepared."""
    graphs = list(corpus)
    pairs = build_pair_set(graphs, lambda picks: embed_rows(model, [graphs[i] for i in picks]),
                           fingerprints, *sample_pair_indices(len(graphs), n_pairs, seed))
    return mgs(pairs), pairs


def roc_auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC; ties credit one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise DataError(f"roc_auc: shape mismatch {s.shape} vs {y.shape}")
    is_pos, is_neg = y == 1, y == 0
    if not np.all(is_pos | is_neg):
        raise DataError("roc_auc: every label must be 0 or 1")
    if not np.all(np.isfinite(s)):
        raise NumericError("AUC undefined: non-finite score")
    pos = int(np.sum(is_pos))
    neg = int(np.sum(is_neg))
    if pos == 0 or neg == 0:
        raise NumericError("AUC undefined: needs at least one positive and one negative")
    ranks = average_ranks(s)
    rank_sum = float(ranks[is_pos].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


@dataclass
class FinetuneReport:
    """Per-epoch fine-tuning trace.  ``selection`` names the rule that chose
    the returned parameters: ``"valid_auc"`` or ``"last_epoch"`` (see
    ``finetune``)."""

    train_losses: list[float] = field(default_factory=list)
    valid_aucs: list[float] = field(default_factory=list)
    best_epoch: int = 0
    selection: str = ""
    test_auc: float = float("nan")
    wall_clock: float = 0.0
    seed: int = 0
    config_hash: str = ""

    def to_dict(self) -> dict:
        return {"epochs": len(self.train_losses), **asdict(self)}


MIN_STRATUM = 3  # members a stratum needs to be placed in train, valid and test


def split_folds(n: int, seed: int,
                strata: Optional[Sequence[Hashable]] = None) -> dict[str, np.ndarray]:
    """Random 80/10/10 train/valid/test split, stratified when ``strata`` is given.

    The folds are slices of one seeded permutation: test, then valid, then
    train; test and valid each hold ``max(1, n // 10)`` items.  ``strata``
    gives one hashable value per item.  A stratum with at least
    ``MIN_STRATUM`` (3) members is *required*.  Test, then valid, is repaired
    one missing required stratum at a time, in order of first appearance in
    the permutation: the fold's last item whose removal loses it no required
    stratum is swapped with the stratum's last item in whichever other fold
    holds the most of it (train on a tie), so that fold keeps the stratum too.
    A permutation that already covers the required strata is returned as
    drawn, and without ``strata`` the split is the plain permutation's.

    Guarantee: when the number of required strata is at most the fold size,
    valid and test each hold every required stratum.  For one binary task,
    valid and test therefore each hold both classes when each class has at
    least 3 members and ``n >= 20`` (``n >= 30`` when at least 3 labels are
    missing, since a missing label is a stratum of its own).  A stratum with
    fewer members lands where the permutation puts it.
    """
    check_int("split_folds: n", n, 0)
    check_int("split_folds: seed", seed, 0)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, n // 10)
    n_valid = max(1, n // 10)
    if n_test + n_valid >= n:
        raise DataError(f"corpus of {n} graphs is too small to split 80/10/10")
    bounds = {"test": (0, n_test), "valid": (n_test, n_test + n_valid),
              "train": (n_test + n_valid, n)}
    if strata is not None:
        if len(strata) != n:
            raise DataError(f"split_folds: {len(strata)} strata for {n} items")
        _cover_strata(perm, [strata[i] for i in perm], bounds)
    return {name: perm[lo:hi] for name, (lo, hi) in bounds.items()}


def _cover_strata(perm: np.ndarray, labels: list, bounds: dict) -> None:
    """Swap entries of ``perm`` (and of ``labels``, its strata) in place so that
    test and valid hold every required stratum; the rule is in ``split_folds``."""
    counts = Counter(labels)
    required = [s for s in dict.fromkeys(labels) if counts[s] >= MIN_STRATUM]
    for name in ("test", "valid"):
        lo, hi = bounds[name]
        others = [f for f in ("train", "valid", "test") if f != name]
        for s in required:
            here = Counter(labels[lo:hi])
            if here[s]:
                continue
            spare = [p for p in range(lo, hi)
                     if counts[labels[p]] < MIN_STRATUM or here[labels[p]] > 1]
            if not spare:
                break  # every place already holds a different required stratum
            donor = max(others, key=lambda f: labels[slice(*bounds[f])].count(s))
            d = max(p for p in range(*bounds[donor]) if labels[p] == s)
            r = spare[-1]
            perm[d], perm[r] = perm[r], perm[d]
            labels[d], labels[r] = labels[r], labels[d]


def _label_table(graphs, task_count: int) -> np.ndarray:
    """The (graphs, tasks) int64 table of graph labels, -1 where one is missing."""
    table = np.full((len(graphs), task_count), -1, dtype=np.int64)
    for row, g in zip(table, graphs):
        if g.graph_labels is not None:
            row[:] = [-1 if y is None else y for y in g.graph_labels]
    return table


def _split_strata(labels: np.ndarray) -> list:
    """Each graph's label on one task of a label table, the stratum
    ``finetune`` splits by: the task whose smaller class has the fewest known
    labels, among tasks with both classes (the first on a tie), or task 0 when
    no task has both.  A missing label (-1) is a stratum of its own."""
    minority = np.minimum((labels == 0).sum(axis=0), (labels == 1).sum(axis=0))
    # a task with both classes has a minority below the graph count
    return labels[:, np.argmin(np.where(minority > 0, minority, len(labels)))].tolist()


def _fold_auc(model: GnnModel, inputs, labels: np.ndarray) -> float:
    """Mean per-task AUC over tasks with both classes present in the fold, or
    NaN when no task has both; a non-finite score raises ``NumericError``.
    ``labels`` is the fold's rows of the label table."""
    scores = classify(model, inputs).data
    if not np.all(np.isfinite(scores)):
        raise NumericError("AUC undefined: non-finite score")
    aucs = []
    for t, y in enumerate(labels.T):
        known = y >= 0
        if np.unique(y[known]).size == 2:
            aucs.append(roc_auc(scores[known, t], y[known]))
    return float(np.mean(aucs)) if aucs else float("nan")


def finetune(corpus: GraphCorpus, model: GnnModel, epochs: int = 100,
             seed: int = 0, batch_size: int = 32,
             on_label_read: Optional[Callable[[str, Optional[int]], None]] = None,
             ) -> tuple[GnnModel, FinetuneReport]:
    """Supervised fine-tuning with masked binary cross-entropy over observed
    labels.  A head whose task count is not the corpus's is replaced by a
    fresh one (``models.with_head``), as is a missing head.

    The split is ``split_folds`` stratified on one task, a missing label
    counting as a value of its own: the task whose smaller class has the
    fewest known labels, among tasks with both classes, or task 0 when no task
    has both.  So valid and test hold both classes of that task under the
    ``split_folds`` guarantee; other tasks have no such guarantee.  With one
    task this is the split by its labels.  The returned parameters are chosen
    by one of two rules, recorded in ``report.selection``:

    - ``"valid_auc"``: the first epoch with the highest validation AUC, when
      at least one epoch has a defined validation AUC;
    - ``"last_epoch"``: otherwise the last epoch's (``best_epoch == epochs``),
      so training is kept when every validation fold is one class; with
      ``epochs=0`` these are the initial parameters.

    ``on_label_read(fold, epoch)`` is invoked on every fold label access
    (epoch None for the final test evaluation), so tests can verify that
    test labels are never touched during training.  The split itself reads
    every graph's labels once, before training, to stratify.
    """
    check_int("epochs", epochs, 0)
    check_int("seed", seed, 0)
    check_int("batch_size", batch_size, 1)
    if corpus.task_count < 1:
        raise DataError("finetune needs a corpus with graph labels")
    graphs = list(corpus)
    labels = _label_table(graphs, corpus.task_count)
    if not (labels >= 0).any():
        raise DataError("finetune: all graph labels are missing")
    if "head.w" not in model.params or model.params["head.w"].data.shape[1] != corpus.task_count:
        model = with_head(model, corpus.task_count, derive_seed(seed, "head-init"))

    start = time.perf_counter()
    folds = split_folds(len(graphs), derive_seed(seed, "finetune-split"),
                        _split_strata(labels))
    inputs = prepare(model.config, graphs)

    def fold_labels(fold: str, epoch: Optional[int]) -> np.ndarray:
        if on_label_read is not None:
            on_label_read(fold, epoch)
        return labels[folds[fold]]

    report = FinetuneReport(seed=seed, config_hash=stable_hash(
        {"epochs": epochs, "batch_size": batch_size, "seed": seed,
         "model": asdict(model.config)}))
    state = T.AdamState(model.parameters())
    shuffle_rng = np.random.default_rng(derive_seed(seed, "finetune-shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(seed, "finetune-dropout"))
    best_auc = -np.inf
    best_params = None
    best_epoch = 0

    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(folds["train"]))
        train_labels = fold_labels("train", epoch)
        epoch_losses = []
        for lo in range(0, len(order), batch_size):
            picks = order[lo:lo + batch_size]
            # all-missing graphs contribute nothing
            picks = picks[(train_labels[picks] >= 0).any(axis=1)]
            if not len(picks):
                continue
            rows = train_labels[picks]
            known = rows >= 0
            T.zero_grads(state.params)
            with T.tape():
                logits = classify(model, [inputs[folds["train"][k]] for k in picks],
                                  training=True, rng=dropout_rng)
                loss = T.bce_with_logits(logits, np.where(known, rows, 0), known)
                if not np.isfinite(loss.item()):
                    raise NumericError("NaN/inf fine-tuning loss")
                T.backward(loss)
            T.adam_step(state)
            epoch_losses.append(loss.item())
        report.train_losses.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
        # NaN when the valid fold is single-class: no signal this epoch
        valid_auc = _fold_auc(model, [inputs[i] for i in folds["valid"]],
                              fold_labels("valid", epoch))
        report.valid_aucs.append(valid_auc)
        if valid_auc > best_auc:
            best_auc = valid_auc
            best_epoch = epoch
            best_params = {name: p.data.copy() for name, p in model.params.items()}

    if best_params is None:  # no epoch had a defined validation AUC: keep the last
        report.best_epoch, report.selection = epochs, "last_epoch"
    else:
        for name, p in model.params.items():
            p.data = best_params[name]
        report.best_epoch, report.selection = best_epoch, "valid_auc"
    report.test_auc = _fold_auc(model, [inputs[i] for i in folds["test"]],
                                fold_labels("test", None))
    if np.isnan(report.test_auc):
        raise NumericError("AUC undefined: no task has both classes in the test fold")
    report.wall_clock = time.perf_counter() - start
    return model, report

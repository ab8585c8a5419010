"""The benchmark's workloads and the measured pipeline pass each one runs.

Every call into ``graphmgs`` goes through a module attribute (for example
``training.pretrain``), so a tracer that replaces those attributes sees it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from graphmgs import config, fingerprints, models, spectral, synthetic, tensor, training
from graphmgs.errors import DataError, NumericError

from calibration import Meter

STAGES = ("fingerprint_s", "pretrain_s", "mgs_eval_s", "finetune_s")


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict                    # SyntheticSpec fields except the seed
    scheme: str                     # "topological", "morgan" or "spectral"
    fp_params: dict
    archs: tuple[str, ...]
    layers: int
    hidden_dim: int
    pretrain_epochs: int = 0
    batch_size: int = 32
    holdout_pairs: int = 200        # PgmConfig.eval_pairs: held-out MGS per epoch
    mgs_pairs: int = 1000           # evaluate_mgs pairs per architecture
    finetune_epochs: int = 0

    def params(self) -> dict:
        """Everything that defines the inputs and the work, for stable_hash."""
        return asdict(self)


# BENCHMARK.json and README.md give the reason for each workload and its sizes
WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-repro",
        corpus=dict(n_graphs=200, size_min=10, size_max=16, homophily=0.3,
                    label_rule="triangle_motif"),
        scheme="topological", fp_params=dict(max_path_len=7, nbits=2048),
        archs=("gin",), layers=2, hidden_dim=64,
        pretrain_epochs=5, batch_size=32, mgs_pairs=5000, finetune_epochs=5),
    Workload(
        name="wide-batch-pretrain",
        corpus=dict(n_graphs=142, size_min=10, size_max=16, homophily=0.3,
                    label_rule="triangle_motif", families=40),
        scheme="morgan", fp_params=dict(radius=2, nbits=2048),
        archs=("gin",), layers=5, hidden_dim=300,
        pretrain_epochs=1, batch_size=128, mgs_pairs=1000),
    Workload(
        name="spectral-eval",
        corpus=dict(n_graphs=300, size_min=16, size_max=32, homophily=0.3,
                    label_rule="triangle_motif"),
        scheme="spectral", fp_params=dict(k=6, kind="combinatorial"),
        archs=("gcn", "gin", "chebnet", "fagcn", "fcn"), layers=5, hidden_dim=300,
        mgs_pairs=20000),
)}


def tiny(w: Workload) -> Workload:
    """The same stages at a size that runs in about a second (checks, smoke test)."""
    corpus = dict(w.corpus, n_graphs=40,
                  size_max=min(w.corpus["size_max"], w.corpus["size_min"] + 4))
    if "families" in corpus:
        corpus["families"] = 10
    return replace(w, corpus=corpus, layers=2, hidden_dim=16,
                   pretrain_epochs=min(w.pretrain_epochs, 2), batch_size=12,
                   holdout_pairs=6, mgs_pairs=min(w.mgs_pairs, 200),
                   finetune_epochs=min(w.finetune_epochs, 3))


@dataclass
class Setup:
    corpus: object
    models: dict                    # arch -> initial GnnModel


def set_up(w: Workload, seed: int) -> Setup:
    """What ``setup_s`` times: generate the corpus and initialise the encoders."""
    corpus = synthetic.generate_synthetic(synthetic.SyntheticSpec(seed=seed, **w.corpus))
    attr_sizes = models.infer_attr_sizes(corpus)
    inits = {arch: models.init_model(
                 models.GnnConfig(arch=arch, layers=w.layers, hidden_dim=w.hidden_dim,
                                  attr_sizes=attr_sizes),
                 config.derive_seed(seed, f"init-{arch}"))
             for arch in w.archs}
    return Setup(corpus=corpus, models=inits)


def fresh_copy(model):
    """The initial parameters again, so every pass trains from the same start."""
    return models.GnnModel(config=model.config, params={
        name: tensor.Tensor(p.data.copy(), requires_grad=True)
        for name, p in model.params.items()})


@dataclass
class Ops:
    """Operations attempted and failed, for ``failed_ops_frac``."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and why:
            self.errors.append(why)


@dataclass
class PassResult:
    times: dict                     # metric -> seconds scaled to the reference speed
    raw_times: dict                 # metric -> seconds as measured
    outputs: dict                   # values the checks compare
    ok: bool = True


FINGERPRINT_CHUNKS = 16  # a calibration unit follows each chunk


def fingerprint_corpus(w: Workload, corpus, meter: Meter) -> dict:
    graphs = list(corpus)
    size = -(-len(graphs) // FINGERPRINT_CHUNKS)
    out = {}
    for lo in range(0, len(graphs), size):
        chunk = graphs[lo:lo + size]
        if w.scheme == "spectral":
            out.update(meter.measure("fingerprint_s", lambda: {
                g.id: spectral.spectral_fingerprint(g, **w.fp_params) for g in chunk}))
        else:
            out.update(meter.measure("fingerprint_s", lambda: fingerprints.make_fingerprints(
                chunk, w.scheme, **w.fp_params)))
    return out


def _pretrain_batches(n_train: int, batch_size: int) -> int:
    return sum(1 for lo in range(0, n_train, batch_size)
               if min(batch_size, n_train - lo) >= 3)


def run_pass(w: Workload, seed: int, setup: Setup, ops: Ops) -> PassResult:
    """One measured pass of the workload's pipeline after set-up.

    A stage that raises ends the pass and counts as one failed operation.
    """
    meter = Meter()
    out = {}

    def stage(metric, fn):
        try:
            value = fn()
        except (DataError, NumericError) as exc:
            ops.add(1, 1, f"{metric}: {type(exc).__name__}: {exc}")
            raise
        ops.add(1)
        return value

    def timed(metric, fn):
        return stage(metric, lambda: meter.measure(metric, fn))

    ok = True
    try:
        fps = stage("fingerprint_s", lambda: fingerprint_corpus(w, setup.corpus, meter))
        out["fingerprints"] = fps
        if w.pretrain_epochs:
            model = fresh_copy(setup.models[w.archs[0]])
            cfg = training.PgmConfig(surrogate="softrank", batch_size=w.batch_size,
                                     epochs=w.pretrain_epochs, scheme=w.scheme,
                                     seed=seed, eval_pairs=w.holdout_pairs)
            model, report = timed("pretrain_s",
                                  lambda: training.pretrain(setup.corpus, model, cfg, fps))
            n_hold = max(2, int(round(cfg.holdout_fraction * len(setup.corpus))))
            batches = w.pretrain_epochs * _pretrain_batches(len(setup.corpus) - n_hold,
                                                            w.batch_size)
            ops.add(batches, report.skipped_batches,
                    f"{report.skipped_batches} pre-training batches skipped")
            out["holdout_mgs"] = report.holdout_mgs[-1]
            trained = {w.archs[0]: model}
        else:
            trained = setup.models
        arch_mgs = {}
        for arch, m in trained.items():
            arch_mgs[arch], _ = timed("mgs_eval_s", lambda: training.evaluate_mgs(
                setup.corpus, m, fps, n_pairs=w.mgs_pairs,
                seed=config.derive_seed(seed, "corpus-mgs")))
        out["arch_mgs"] = arch_mgs
        out["corpus_mgs"] = float(np.mean(list(arch_mgs.values())))
        if w.finetune_epochs:
            model = trained[w.archs[0]]
            model, ft = timed("finetune_s", lambda: training.finetune(
                setup.corpus, model, epochs=w.finetune_epochs, seed=seed,
                batch_size=w.batch_size))
            nan_epochs = sum(1 for a in ft.valid_aucs if math.isnan(a))
            ops.add(w.finetune_epochs, nan_epochs,
                    f"{nan_epochs} fine-tune epochs with undefined validation AUC")
            out["test_auc"] = ft.test_auc
    except (DataError, NumericError):
        ok = False
    # the stages cover the whole pass, so their sum is its wall time
    times = dict(meter.scaled, wall_s=sum(meter.scaled.values()))
    raw_times = dict(meter.raw, wall_s=sum(meter.raw.values()))
    return PassResult(times=times, raw_times=raw_times, outputs=out, ok=ok)

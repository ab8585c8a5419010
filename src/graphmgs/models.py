"""Graph encoders: GCN, GIN, ChebNet, FAGCN, and a structure-blind FCN baseline.

Every architecture maps categorical node attributes through summed embedding
tables, stacks ``layers`` propagation layers, mean-pools to a graph embedding,
and optionally applies a linear classification head.  A batch of graphs is
one matrix of stacked node rows (graph k owns rows offsets[k]:offsets[k+1]),
and a single graph is a batch of one.  Weight matmuls act on all rows at once
and each graph's dense propagation operator on its own rows (FAGCN weights its
operator's entries by edge attention first), so a forward pass records a
fixed number of tape nodes per layer, whatever the batch.  A product that is
added to goes through ``tensor.linear``, and GIN's first linear takes its
aggregate (A + (1 + eps) I) h through ``linear``'s ``blocks`` and
``self_weight``, so a GIN layer records four nodes (1 + eps, the aggregate
with the first linear, a ReLU and the second linear) and keeps two (rows,
hidden) arrays for its backward: its input, for eps's gradient and to
rebuild the aggregate for w1's, and the ReLU's output, for the ReLU's mask
and w2's gradient.  The aggregate, the pre-ReLU rows, the embedding lookups
and, with dropout, the rows before the mask are freed as the forward pass
moves on.

The encoder reads graphs as ``prepare`` gives them: each graph's int64
attribute rows and its dense operator, both read-only.  Every input check
runs there, once per graph.  ``encode_nodes``, ``embed_graph`` and
``classify`` prepare a list of graphs on entry and pass input prepared for
their config through, so training prepares its corpus once per call and takes
batches of it by index.  Nothing is cached: prepared input lives as long as
its caller holds it.

``embed_rows`` encodes any number of graphs forward only, for MGS evaluation,
and decides how: in blocks of ``ENCODE_BLOCK_GRAPHS`` and, for a wide encoder,
across workers.  Each block is computed as it would be on one thread, so its
rows do not depend on the worker count.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .config import json_default
from .errors import DataError, check_int
from .graphs import GraphCorpus, LabeledGraph
from .spectral import normalized_adjacency

ARCHS = ("gcn", "gin", "chebnet", "fagcn", "fcn")
CHEB_ORDER = 3   # ChebNet terms T_0 .. T_{K-1} per layer
FAGCN_EPS = 0.3  # FAGCN's weight on the projected input in every layer
DROPOUT = 0.5    # inverted-dropout rate after every layer but the last, in training

# graphs per embed_graph call in embed_rows: on spectral-eval, blocks of 32 read the
# same peak RSS as 8 and a slower mgs_eval_s (1.61 s against 1.39 s, 3 runs each on a
# 2-vCPU host)
ENCODE_BLOCK_GRAPHS = 8

# embedding width from which embed_rows encodes its blocks on every worker.
# Below it an encoder's small matmuls leave it Python-bound, and two threads
# taking turns on the GIL run slower than one.  MGS of 5,000 pairs over 200
# graphs of 10-16 nodes (25 blocks), untrained encoders, median ms at 1 -> 2
# workers on a 2-vCPU AMD EPYC with 1 BLAS thread:
#   GIN 2x64 6.5 -> 7.7, 2x96 7.8 -> 7.9, 2x128 10.5 -> 9.3, 2x300 27.1 -> 17.6;
#   GIN 5x64 9.6 -> 10.6, 5x96 13.0 -> 12.3, 5x128 19.0 -> 14.4;
#   GCN 2x64 6.1 -> 7.0, 2x96 7.5 -> 8.0, 2x128 8.1 -> 7.7, 5x128 13.0 -> 11.1.
ENCODE_SPLIT_WIDTH = 128


@dataclass(frozen=True)
class GnnConfig:
    arch: str
    layers: int = 5
    hidden_dim: int = 300
    attr_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise DataError(f"unknown architecture {self.arch!r}")
        check_int("layers", self.layers, 1)
        check_int("hidden_dim", self.hidden_dim, 1)
        if not self.attr_sizes:
            raise DataError("attr_sizes must list one alphabet size per attribute slot")
        for size in self.attr_sizes:
            check_int("every attribute alphabet size", size, 1)


@dataclass
class GnnModel:
    config: GnnConfig
    params: dict[str, T.Tensor] = field(default_factory=dict)

    def parameters(self) -> list[T.Tensor]:
        return list(self.params.values())


def infer_attr_sizes(corpus: GraphCorpus) -> tuple[int, ...]:
    """Embedding-table sizes: per-slot attribute maximum + 1 across the corpus.
    Every node must have the first node's slot count and no negative attribute."""
    graphs = [g for g in corpus if g.node_count]
    slots = len(graphs[0].node_attrs[0]) if graphs else 0
    if slots == 0:
        raise DataError("corpus has no node attributes to embed")
    return tuple(int(m) + 1 for m in _attr_table(graphs, (np.inf,) * slots).max(axis=0))


def _attr_table(graphs: list, sizes) -> np.ndarray:
    """The node attributes of ``graphs`` as one read-only int64 table, a row per
    node in graph order and a column per slot: every graph has nodes, and each
    node one attribute a per slot s, 0 <= a < sizes[s]."""
    for g in graphs:
        if g.node_count == 0:
            raise DataError(f"graph {g.id!r}: cannot encode an empty graph")
        for v, attrs in enumerate(g.node_attrs):
            if len(attrs) != len(sizes):
                raise DataError(f"graph {g.id!r}: inconsistent attribute slot count: "
                                f"node {v} has {len(attrs)}, not {len(sizes)}")
    flat = itertools.chain.from_iterable(attrs for g in graphs for attrs in g.node_attrs)
    table = np.fromiter(flat, dtype=np.int64).reshape(-1, len(sizes))
    bad = (table < 0) | (table >= sizes)
    if bad.any():
        row, s = np.argwhere(bad)[0]
        ends = np.cumsum([g.node_count for g in graphs])
        k = int(np.searchsorted(ends, row, side="right"))
        g, v = graphs[k], row - ends[k] + graphs[k].node_count
        raise DataError(f"graph {g.id!r}: node {v} attribute {table[row, s]} out of "
                        f"embedding range [0, {sizes[s]}) of slot {s}")
    table.flags.writeable = False
    return table


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(config: GnnConfig, seed: int) -> GnnModel:
    """Seeded encoder parameters (Glorot uniform weights, zero biases), with no
    classification head: ``with_head`` attaches one."""
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    h = config.hidden_dim
    params: dict[str, T.Tensor] = {}

    def add(name, arr):
        params[name] = T.Tensor(arr, requires_grad=True)

    for s, size in enumerate(config.attr_sizes):
        add(f"embed.{s}", _glorot(rng, size, h, (size, h)))
    if config.arch == "fagcn":
        add("proj.w", _glorot(rng, h, h, (h, h)))
    for l in range(config.layers):
        if config.arch in ("gcn", "fcn"):
            add(f"layer{l}.theta", _glorot(rng, h, h, (h, h)))
        elif config.arch == "gin":
            add(f"layer{l}.eps", np.asarray(0.0))
            add(f"layer{l}.w1", _glorot(rng, h, h, (h, h)))
            add(f"layer{l}.b1", np.zeros(h))
            add(f"layer{l}.w2", _glorot(rng, h, h, (h, h)))
            add(f"layer{l}.b2", np.zeros(h))
        elif config.arch == "chebnet":
            for k in range(CHEB_ORDER):
                add(f"layer{l}.theta{k}", _glorot(rng, h, h, (h, h)))
        elif config.arch == "fagcn":
            # attention g in R^{2h} as the (h, 2) matrix [g[:h], g[h:]]: receiver, sender
            add(f"layer{l}.g",
                (rng.uniform(-1.0, 1.0, size=2 * h) / np.sqrt(2 * h)).reshape(2, h).T.copy())
    return GnnModel(config=config, params=params)


def _cheb_operator(g: LabeledGraph) -> np.ndarray:
    """ChebNet's 2 L_norm / lambda_max - I with lambda_max fixed at 2, which is
    -D^{-1/2} A D^{-1/2}; subtracting from 0.0 keeps its zero entries +0.0."""
    return 0.0 - normalized_adjacency(g.adjacency())


# the dense per-graph operator each propagating architecture multiplies by: GCN's
# D~^{-1/2} (A+I) D~^{-1/2}, GIN's A, ChebNet's scaled Laplacian, and FAGCN's
# D^{-1/2} A D^{-1/2} (zero rows for isolated nodes), which is minus ChebNet's
_OPERATORS = {"gcn": lambda g: normalized_adjacency(g.adjacency() + np.eye(g.node_count)),
              "gin": LabeledGraph.adjacency,
              "chebnet": _cheb_operator, "fagcn": lambda g: -_cheb_operator(g)}


def prepare(config: GnnConfig, graphs) -> list[tuple]:
    """The encoder's input for ``config``: each graph becomes the triple of
    ``config``, its rows of ``_attr_table`` and its read-only operator from
    ``_OPERATORS`` (None for FCN); a triple made for ``config`` passes through,
    and one made for another config raises ``DataError``.  A batch of triples
    only is returned as it is, with no table built and no operator called, as
    ``embed_graph`` gets each block of ``embed_rows``.  Every input check runs
    here: an empty batch, an empty graph, a node with another slot count and
    an attribute outside its embedding table raise ``DataError``."""
    batch = list(graphs)
    if not batch:
        raise DataError("cannot encode an empty batch of graphs")
    raw = [k for k, g in enumerate(batch) if isinstance(g, LabeledGraph)]
    for k, item in enumerate(batch):
        if not isinstance(item, LabeledGraph) and item[0] is not config and item[0] != config:
            raise DataError(f"batch position {k}: input prepared for {item[0]}, not {config}")
    if not raw:
        return batch
    fresh = [batch[k] for k in raw]
    table = _attr_table(fresh, config.attr_sizes)
    blocks = np.split(table, np.cumsum([g.node_count for g in fresh]))
    for k, g, rows in zip(raw, fresh, blocks):
        op = _OPERATORS[config.arch](g) if config.arch in _OPERATORS else None
        if op is not None:
            op.flags.writeable = False
        batch[k] = config, rows, op
    return batch


def encode_nodes(model: GnnModel, graphs, training: bool = False,
                 rng: Optional[np.random.Generator] = None) -> tuple[T.Tensor, np.ndarray]:
    """Stacked node embeddings (N x hidden) of a batch of graphs, or of its
    ``prepare``d input, after the full layer stack, and the G + 1 ``offsets``
    that bound each graph's rows."""
    cfg = model.config
    batch = prepare(cfg, graphs)
    if training and rng is None:
        raise DataError("training-mode forward with dropout needs an rng")
    offsets = np.cumsum([0] + [len(rows) for _, rows, _ in batch])
    masks = []
    if training:
        # inverted dropout for every layer but the last, drawn graph by graph and
        # layer by layer within a graph: the rng stream of one-at-a-time encoding
        drawn = [[(rng.random((len(rows), cfg.hidden_dim)) >= DROPOUT)
                  / (1.0 - DROPOUT) for _ in range(cfg.layers - 1)] for _, rows, _ in batch]
        masks = [np.concatenate(layer) for layer in zip(*drawn)]
    p = model.params
    # summed attribute embeddings, one index_select per slot
    attrs = np.concatenate([rows for _, rows, _ in batch])
    h = T.index_select(p["embed.0"], attrs[:, 0])
    for s in range(1, len(cfg.attr_sizes)):
        h = h + T.index_select(p[f"embed.{s}"], attrs[:, s])
    ops = [op for _, _, op in batch]
    if cfg.arch == "fagcn":
        # residual propagation around a projected input; isolated rows stay eps*h0
        h = h0 = T.relu(h @ p["proj.w"])

    for l in range(cfg.layers):
        if cfg.arch == "gcn":
            h = T.relu(T.block_diag_matmul(ops, offsets, h @ p[f"layer{l}.theta"]))
        elif cfg.arch == "fcn":
            h = T.relu(h @ p[f"layer{l}.theta"])
        elif cfg.arch == "gin":
            mid = T.relu(T.linear(h, p[f"layer{l}.w1"], p[f"layer{l}.b1"], blocks=ops,
                                  offsets=offsets, self_weight=p[f"layer{l}.eps"] + 1.0))
            h = T.linear(mid, p[f"layer{l}.w2"], p[f"layer{l}.b2"])
        elif cfg.arch == "chebnet":
            xk_prev, xk = None, h
            out = xk @ p[f"layer{l}.theta0"]
            for k in range(1, CHEB_ORDER):
                lx = T.block_diag_matmul(ops, offsets, xk)
                xk_prev, xk = xk, (lx if k == 1 else 2.0 * lx - xk_prev)
                out = T.linear(xk, p[f"layer{l}.theta{k}"], out)
            h = T.relu(out)
        else:
            # edge attention tanh(g . [h_i || h_j]) = tanh(G[:, 0] . h_i + G[:, 1] . h_j)
            # weights the entry 1/sqrt(d_i d_j) of receiver i and sender j
            scores = h @ p[f"layer{l}.g"]
            h = FAGCN_EPS * h0 + T.block_diag_attention(ops, offsets, scores, h)
        if l < len(masks):
            h = h * masks[l]
    return h, offsets


def embed_graph(model: GnnModel, graphs, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> T.Tensor:
    """Graph embeddings (G x hidden) of a batch: each graph's node rows, mean-pooled."""
    return T.segment_mean(*encode_nodes(model, graphs, training=training, rng=rng))


def embed_rows(model: GnnModel, graphs) -> np.ndarray:
    """Forward-only graph embeddings (G x hidden) of a list of graphs, or of
    its ``prepare``d input: ``embed_graph`` over blocks of at most
    ``ENCODE_BLOCK_GRAPHS``.  From ``ENCODE_SPLIT_WIDTH`` up the blocks are
    split into one run of whole blocks per worker (``tensor._split``); below
    it they run as one run on the calling thread.  Every run has a fresh
    ``contextvars`` context, so it records on no open tape."""
    batch = prepare(model.config, graphs)
    unit = ENCODE_BLOCK_GRAPHS if model.config.hidden_dim >= ENCODE_SPLIT_WIDTH else len(batch)

    def run(lo, hi):
        return [embed_graph(model, batch[k:k + ENCODE_BLOCK_GRAPHS]).data
                for k in range(lo, hi, ENCODE_BLOCK_GRAPHS)]

    return np.concatenate([emb for part in T._split(len(batch), unit, run) for emb in part])


def classify(model: GnnModel, graphs, training: bool = False,
             rng: Optional[np.random.Generator] = None) -> T.Tensor:
    """Per-task logits h_G W + b (G x tasks); ``head.w`` has one column per task."""
    if "head.w" not in model.params:
        raise DataError("model has no classification head")
    hg = embed_graph(model, graphs, training=training, rng=rng)
    return T.linear(hg, model.params["head.w"], model.params["head.b"])


def with_head(model: GnnModel, task_count: int, seed: int) -> GnnModel:
    """Attach (or replace) a linear head, keeping encoder parameters shared."""
    check_int("task_count", task_count, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    h = model.config.hidden_dim
    params = dict(model.params)
    params["head.w"] = T.Tensor(_glorot(rng, h, task_count, (h, task_count)),
                                requires_grad=True)
    params["head.b"] = T.Tensor(np.zeros(task_count), requires_grad=True)
    return GnnModel(config=model.config, params=params)


MODEL_CHECKPOINT_VERSION = 2


def save_model(model: GnnModel, path) -> None:
    """Checkpoint: config header + named parameter tensors (JSON)."""
    payload = {
        "version": MODEL_CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": {
            name: {"shape": list(p.data.shape), "values": p.data.reshape(-1).tolist()}
            for name, p in model.params.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, default=json_default)


def load_model(path) -> GnnModel:
    """A ``save_model`` checkpoint.  Its parameters must be exactly those that
    ``init_model`` gives its config, with their shapes, plus an optional head
    (``head.w`` of shape (hidden_dim, t) and ``head.b`` of shape (t,), t >= 1),
    every value finite; anything else, or another version, raises
    ``DataError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise DataError(f"model checkpoint {str(path)!r} is not JSON: {exc}") from exc
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != MODEL_CHECKPOINT_VERSION:
        raise DataError(f"model checkpoint version {version!r} unsupported")
    try:
        fields = payload["config"]
        config = GnnConfig(**dict(fields, attr_sizes=tuple(fields["attr_sizes"])))
        want = {name: p.data.shape for name, p in init_model(config, 0).params.items()}
        if not isinstance(payload["params"], dict):
            raise TypeError(f"params must be an object, not {type(payload['params']).__name__}")
        arrays = {name: np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
                  for name, entry in payload["params"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model checkpoint: {exc}") from exc
    got = {name: arr.shape for name, arr in arrays.items()}
    tasks = got.get("head.b", ())
    if len(tasks) == 1 and tasks[0] >= 1:
        want.update({"head.w": (config.hidden_dim, *tasks), "head.b": tasks})
    if got != want:
        raise DataError("model checkpoint parameters differ from a "
                        f"{config.arch} encoder's: missing {sorted(want.keys() - got.keys())}, "
                        f"unexpected {sorted(got.keys() - want.keys())}, misshapen "
                        f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise DataError(f"model checkpoint parameter {name!r} is not finite")
    return GnnModel(config=config, params={
        name: T.Tensor(arr, requires_grad=True) for name, arr in arrays.items()})

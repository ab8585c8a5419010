"""Graph data model, JSONL corpus IO, and graph-level statistics."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph with categorical node/edge attributes.

    Edges are stored as sorted (u, v) pairs with u < v.  ``node_labels``
    carries per-node class ids (used for the homophily ratio), and
    ``graph_labels`` carries graph-level binary task labels where ``None``
    marks a missing label.
    """

    id: str
    node_count: int
    edges: tuple[tuple[int, int], ...]
    node_attrs: tuple[tuple[int, ...], ...]
    edge_attrs: tuple[tuple[int, ...], ...]
    node_labels: Optional[tuple[int, ...]] = None
    graph_labels: Optional[tuple[Optional[int], ...]] = None

    def __post_init__(self):
        if self.node_count < 0:
            raise DataError(f"graph {self.id!r}: negative node_count")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise DataError(f"graph {self.id!r}: self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise DataError(f"graph {self.id!r}: edge ({u},{v}) index out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DataError(f"graph {self.id!r}: duplicate edge ({u},{v})")
            seen.add(key)
        if len(self.node_attrs) != self.node_count:
            raise DataError(f"graph {self.id!r}: node_attrs length != node_count")
        if len(self.edge_attrs) != len(self.edges):
            raise DataError(f"graph {self.id!r}: edge_attrs length != edge count")
        if self.node_labels is not None and len(self.node_labels) != self.node_count:
            raise DataError(f"graph {self.id!r}: node_labels length != node_count")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count), dtype=np.float64)
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def permuted(self, perm: Sequence[int]) -> "LabeledGraph":
        """Relabel nodes so old node i becomes new node perm[i]."""
        perm = list(perm)
        if sorted(perm) != list(range(self.node_count)):
            raise DataError(f"graph {self.id!r}: invalid permutation")
        new_attrs = [()] * self.node_count
        for i, a in enumerate(self.node_attrs):
            new_attrs[perm[i]] = a
        new_labels = None
        if self.node_labels is not None:
            lab = [0] * self.node_count
            for i, y in enumerate(self.node_labels):
                lab[perm[i]] = y
            new_labels = tuple(lab)
        order = sorted(range(len(self.edges)),
                       key=lambda k: (min(perm[self.edges[k][0]], perm[self.edges[k][1]]),
                                      max(perm[self.edges[k][0]], perm[self.edges[k][1]])))
        new_edges = []
        new_eattrs = []
        for k in order:
            u, v = self.edges[k]
            pu, pv = perm[u], perm[v]
            new_edges.append((min(pu, pv), max(pu, pv)))
            new_eattrs.append(self.edge_attrs[k])
        return LabeledGraph(
            id=self.id,
            node_count=self.node_count,
            edges=tuple(new_edges),
            node_attrs=tuple(new_attrs),
            edge_attrs=tuple(new_eattrs),
            node_labels=new_labels,
            graph_labels=self.graph_labels,
        )


@dataclass(frozen=True)
class GraphCorpus:
    """Immutable sequence of graphs sharing one task layout."""

    graphs: tuple[LabeledGraph, ...]
    task_count: int = 0
    name: str = ""
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for g in self.graphs:
            if g.id in index:
                raise DataError(f"duplicate graph id {g.id!r}")
            index[g.id] = g
            if g.graph_labels is not None and len(g.graph_labels) != self.task_count:
                raise DataError(
                    f"graph {g.id!r}: {len(g.graph_labels)} task labels, corpus has {self.task_count}")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def by_id(self, graph_id: str) -> LabeledGraph:
        return self._index[graph_id]


def _graph_from_record(rec: dict, line_no: int) -> LabeledGraph:
    try:
        gid = str(rec["id"])
        n = int(rec["n"])
        edges = tuple((min(int(u), int(v)), max(int(u), int(v))) for u, v in rec["edges"])
        node_attrs = tuple(tuple(int(x) for x in row) for row in rec["node_attrs"])
        edge_attrs = tuple(tuple(int(x) for x in row) for row in rec["edge_attrs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"line {line_no}: malformed graph record ({exc})") from exc
    node_labels = None
    if rec.get("node_labels") is not None:
        node_labels = tuple(int(y) for y in rec["node_labels"])
    graph_labels = None
    if rec.get("graph_labels") is not None:
        graph_labels = tuple(None if y is None else int(y) for y in rec["graph_labels"])
        for y in graph_labels:
            if y not in (0, 1, None):
                raise DataError(f"line {line_no}: graph label {y} not in {{0,1,null}}")
    return LabeledGraph(id=gid, node_count=n, edges=edges, node_attrs=node_attrs,
                        edge_attrs=edge_attrs, node_labels=node_labels,
                        graph_labels=graph_labels)


def load_corpus(path, name: str = "") -> GraphCorpus:
    """Load a JSONL corpus: one graph object per line, UTF-8, LF endings.

    Record schema:
      {"id": str, "n": int, "edges": [[u,v],...], "node_attrs": [[int,...],...],
       "edge_attrs": [[int,...],...], "node_labels": [int,...]?, "graph_labels": [0|1|null,...]?}
    """
    graphs = []
    task_count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            g = _graph_from_record(rec, line_no)
            if g.graph_labels is not None:
                if task_count == 0:
                    task_count = len(g.graph_labels)
                elif len(g.graph_labels) != task_count:
                    raise DataError(
                        f"line {line_no}: graph {g.id!r} has {len(g.graph_labels)} task labels, "
                        f"expected {task_count}")
            graphs.append(g)
    return GraphCorpus(graphs=tuple(graphs), task_count=task_count, name=name)


def save_corpus(corpus: GraphCorpus, path) -> None:
    """Write a corpus in the JSONL format accepted by load_corpus."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g in corpus:
            rec = {
                "id": g.id,
                "n": g.node_count,
                "edges": [[u, v] for u, v in g.edges],
                "node_attrs": [list(a) for a in g.node_attrs],
                "edge_attrs": [list(a) for a in g.edge_attrs],
            }
            if g.node_labels is not None:
                rec["node_labels"] = list(g.node_labels)
            if g.graph_labels is not None:
                rec["graph_labels"] = [y for y in g.graph_labels]
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _labels_for_homophily(g: LabeledGraph, label_attr: Optional[int]) -> Sequence[int]:
    if label_attr is not None:
        if not g.node_attrs or any(label_attr >= len(a) for a in g.node_attrs):
            raise DataError(f"graph {g.id!r}: attribute column {label_attr} missing")
        return [a[label_attr] for a in g.node_attrs]
    if g.node_labels is None:
        raise DataError(f"graph {g.id!r}: missing node labels")
    return g.node_labels


def homophily_ratio(g: LabeledGraph, label_attr: Optional[int] = None) -> float:
    """Fraction of edges joining same-label endpoints.

    By default node_labels are the class source; pass ``label_attr`` to use a
    node-attribute column instead (e.g. atom type on molecular graphs).
    """
    if g.edge_count == 0:
        raise DataError(f"graph {g.id!r}: homophily undefined (zero edges)")
    labels = _labels_for_homophily(g, label_attr)
    same = sum(1 for u, v in g.edges if labels[u] == labels[v])
    return same / g.edge_count


def corpus_homophily(corpus: GraphCorpus, label_attr: Optional[int] = None,
                     edge_weighted: bool = True) -> float:
    """Aggregate homophily over a corpus.

    Edge-weighted by default: (total same-label edges) / (total edges).
    With ``edge_weighted=False`` returns the unweighted mean of per-graph ratios.
    """
    if len(corpus) == 0:
        raise DataError("corpus homophily undefined on empty corpus")
    if not edge_weighted:
        ratios = [homophily_ratio(g, label_attr) for g in corpus]
        return float(sum(ratios) / len(ratios))
    same_total = 0
    edge_total = 0
    for g in corpus:
        if g.edge_count == 0:
            raise DataError(f"graph {g.id!r}: homophily undefined (zero edges)")
        labels = _labels_for_homophily(g, label_attr)
        same_total += sum(1 for u, v in g.edges if labels[u] == labels[v])
        edge_total += g.edge_count
    return same_total / edge_total

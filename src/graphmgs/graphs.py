"""Graph data model, JSONL corpus IO, and graph-level statistics."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, check_int


def degrees_of(n: int, edges) -> np.ndarray:
    """Node degrees (int64) of an n-node graph from its edge list."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1)
    return np.bincount(ends, minlength=n).astype(np.int64, copy=False)


def adjacency_of(n: int, edges) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix (float64) of an n-node graph."""
    a = np.zeros((n, n), dtype=np.float64)
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def same_label_count(edges, labels) -> int:
    """Edges whose two endpoints carry equal labels."""
    return sum(1 for u, v in edges if labels[u] == labels[v])


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph with categorical node/edge attributes.

    Edges are stored as sorted (u, v) pairs with u < v.  ``node_labels``
    carries per-node class ids (used for the homophily ratio), and
    ``graph_labels`` carries graph-level binary task labels where ``None``
    marks a missing label.  Endpoints, attributes and labels are ints, not
    bools, floats or numpy integers, as ``load_corpus`` reads them.
    """

    id: str
    node_count: int
    edges: tuple[tuple[int, int], ...]
    node_attrs: tuple[tuple[int, ...], ...]
    edge_attrs: tuple[tuple[int, ...], ...]
    node_labels: Optional[tuple[int, ...]] = None
    graph_labels: Optional[tuple[Optional[int], ...]] = None

    def __post_init__(self):
        check_int(f"graph {self.id!r}: node_count", self.node_count, 0)
        _check_ints(self)
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise DataError(f"graph {self.id!r}: self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise DataError(f"graph {self.id!r}: edge ({u},{v}) index out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DataError(f"graph {self.id!r}: duplicate edge ({u},{v})")
            if u > v:
                raise DataError(f"graph {self.id!r}: edge ({u},{v}) must be stored as "
                                f"({v},{u}), u < v")
            seen.add(key)
        if len(self.node_attrs) != self.node_count:
            raise DataError(f"graph {self.id!r}: node_attrs length != node_count")
        if len(self.edge_attrs) != len(self.edges):
            raise DataError(f"graph {self.id!r}: edge_attrs length != edge count")
        if self.node_labels is not None and len(self.node_labels) != self.node_count:
            raise DataError(f"graph {self.id!r}: node_labels length != node_count")
        for y in self.graph_labels or ():
            if y not in (0, 1, None):
                raise DataError(f"graph {self.id!r}: graph label {y!r} not in {{0, 1, None}}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return degrees_of(self.node_count, self.edges)

    def adjacency(self) -> np.ndarray:
        return adjacency_of(self.node_count, self.edges)


@dataclass(frozen=True)
class GraphCorpus:
    """Immutable sequence of graphs sharing one task layout."""

    graphs: tuple[LabeledGraph, ...]
    task_count: int = 0
    name: str = ""

    def __post_init__(self):
        check_int("corpus task_count", self.task_count, 0)
        seen = set()
        for g in self.graphs:
            if g.id in seen:
                raise DataError(f"duplicate graph id {g.id!r}")
            seen.add(g.id)
            if g.graph_labels is not None and len(g.graph_labels) != self.task_count:
                raise DataError(
                    f"graph {g.id!r}: {len(g.graph_labels)} task labels, corpus has {self.task_count}")

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


def _json_int(value, field: str) -> int:
    """A JSON integer; floats, booleans and strings raise TypeError."""
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError(f"{field}: expected an integer, got {value!r}")
    return value


def _check_ints(g: LabeledGraph) -> None:
    """``_json_int``'s rule for every endpoint, attribute and label of g but
    a missing graph label, ``None``, with ``DataError`` naming the graph and
    the field of the first value that breaks it; most graphs take one pass."""
    flat = itertools.chain.from_iterable
    labels = [y for y in g.graph_labels or () if y is not None]
    if set(map(type, flat((*g.edges, *g.node_attrs, *g.edge_attrs,
                           g.node_labels or (), labels)))) <= {int}:
        return
    try:
        for field, values in (("edges", flat(g.edges)), ("node_attrs", flat(g.node_attrs)),
                              ("edge_attrs", flat(g.edge_attrs)),
                              ("node_labels", g.node_labels or ()), ("graph_labels", labels)):
            for v in values:
                _json_int(v, field)
    except TypeError as exc:
        raise DataError(f"graph {g.id!r}: {exc}") from exc


def _graph_from_record(rec: dict, line_no: int) -> LabeledGraph:
    """The graph of one JSONL record; ``LabeledGraph`` checks that endpoints,
    attributes and node labels are integers."""
    try:
        gid = rec["id"]
        if type(gid) not in (str, int):  # bool is a subclass of int
            raise TypeError(f"id: expected a string or an integer, got {gid!r}")
        gid = str(gid)
        n = _json_int(rec["n"], "n")
        edges = tuple((min(u, v), max(u, v)) for u, v in rec["edges"])
        node_attrs = tuple(map(tuple, rec["node_attrs"]))
        edge_attrs = tuple(map(tuple, rec["edge_attrs"]))
        node_labels = None
        if rec.get("node_labels") is not None:
            node_labels = tuple(rec["node_labels"])
        graph_labels = None
        if rec.get("graph_labels") is not None:
            graph_labels = tuple(None if y is None else _json_int(y, "graph_labels")
                                 for y in rec["graph_labels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"line {line_no}: malformed graph record ({exc})") from exc
    try:
        return LabeledGraph(id=gid, node_count=n, edges=edges, node_attrs=node_attrs,
                            edge_attrs=edge_attrs, node_labels=node_labels,
                            graph_labels=graph_labels)
    except DataError as exc:
        raise DataError(f"line {line_no}: {exc}") from exc


def load_corpus(path, name: str = "") -> GraphCorpus:
    """Load a JSONL corpus: one graph object per line, UTF-8, LF endings.

    Record schema:
      {"id": str|int, "n": int, "edges": [[u,v],...], "node_attrs": [[int,...],...],
       "edge_attrs": [[int,...],...], "node_labels": [int,...]?, "graph_labels": [0|1|null,...]?}
    """
    graphs = []
    task_count = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise DataError(f"line {line_no}: invalid JSON ({exc})") from exc
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


def _same_label_edges(g: LabeledGraph, label_attr: Optional[int]) -> int:
    """Same-label edges of a graph that has edges, by node_labels or by the
    node-attribute column ``label_attr``."""
    if label_attr is not None:
        check_int("label_attr", label_attr, 0)
    if g.edge_count == 0:
        raise DataError(f"graph {g.id!r}: homophily undefined (zero edges)")
    if label_attr is not None:
        if not g.node_attrs or any(label_attr >= len(a) for a in g.node_attrs):
            raise DataError(f"graph {g.id!r}: attribute column {label_attr} missing")
        return same_label_count(g.edges, [a[label_attr] for a in g.node_attrs])
    if g.node_labels is None:
        raise DataError(f"graph {g.id!r}: missing node labels")
    return same_label_count(g.edges, g.node_labels)


def homophily_ratio(g: LabeledGraph, label_attr: Optional[int] = None) -> float:
    """Fraction of edges joining same-label endpoints.

    By default node_labels are the class source; pass ``label_attr`` to use a
    node-attribute column instead (e.g. atom type on molecular graphs).
    """
    return _same_label_edges(g, label_attr) / g.edge_count


def corpus_homophily(corpus: GraphCorpus, label_attr: Optional[int] = None) -> float:
    """Edge-weighted homophily of a corpus: (total same-label edges) / (total edges)."""
    if len(corpus) == 0:
        raise DataError("corpus homophily undefined on empty corpus")
    same_total = sum(_same_label_edges(g, label_attr) for g in corpus)
    return same_total / sum(g.edge_count for g in corpus)

"""Synthetic attributed-graph corpora with controlled homophily and
structure-dependent task labels (desk-scale benchmark data).

Graphs are organized into families: each family has a template graph,
per-slot attribute profiles, and members derived by edge/attribute mutation.
Families play the role molecular scaffolds play in real corpora — they give
graph pairs a wide structural-similarity spectrum (near-duplicates within a
family, low similarity across families) instead of uniform dissimilarity.

A ``SyntheticSpec`` holds the settings a caller chooses.  The rest are fixed
module constants: ``CLASSES`` (2 node classes), ``LABEL_ATTR_NOISE`` (0.1),
``EDGE_FACTOR`` (1.5), ``EDGE_MUTATION`` (0.15), ``ATTR_MUTATION`` (0.15) and
``ATTR_CONCENTRATION`` (0.4), next to the rewiring bounds ``REWIRE_LIMIT``
and ``HOMOPHILY_TOL``.  The one rule of ``LABEL_RULES``, ``triangle_motif``,
labels a graph 1 when its triangle count is at least the corpus median.

Categorical attributes are drawn by one rule, the one ``Generator.choice``
follows for a probability vector ``p``: with ``cdf = p.cumsum(); cdf /=
cdf[-1]``, a draw is ``cdf.searchsorted(u, side="right")`` for one
``u = rng.random()``.  So each profile's CDF is built once, when its family is
made, and the draws are those of ``rng.choice(len(p), p=p)``, one for one,
without the checks and the cumulative sum that call repeats each time.  Draws
that follow one another with nothing drawn in between (a family's node
attribute table, a member's edge attribute table) take their uniforms from one
``rng.random((rows, slots))`` call, which yields the same doubles in row-major
order.  In the same way, a spanning tree's n - 1 parent picks come from one
``rng.integers(0, np.arange(1, n))`` call, which yields the draws of the scalar
calls ``rng.integers(0, i)`` for i = 1 .. n - 1, in order.  The golden corpus
digests in ``tests/test_synthetic.py`` hold every corpus to its draws.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, NumericError, check_int, check_real
from .graphs import GraphCorpus, LabeledGraph, adjacency_of, degrees_of, same_label_count

TRIANGLE_MOTIF = "triangle_motif"
LABEL_RULES = (TRIANGLE_MOTIF,)

REWIRE_LIMIT = 10 ** 4
HOMOPHILY_TOL = 0.05

CLASSES = 2
# slot 0 of every node's attributes is a noisy copy of its class label;
# this ties observable features to the planted homophily structure
LABEL_ATTR_NOISE = 0.1
EDGE_FACTOR = 1.5  # a family template has about EDGE_FACTOR x n edges
EDGE_MUTATION = 0.15  # fraction of the template's edges each member moves
ATTR_MUTATION = 0.15  # chance a member redraws a node attribute of slot 1+
# Dirichlet concentration of the per-family attribute profiles (slots 1+)
ATTR_CONCENTRATION = 0.4


@dataclass(frozen=True)
class SyntheticSpec:
    n_graphs: int
    size_min: int
    size_max: int
    homophily: float
    label_rule: str
    attr_sizes: tuple[int, ...] = (4, 8)
    edge_attr_sizes: tuple[int, ...] = (3,)
    seed: int = 0
    # per-family density spread: family edge factor ~ U(factor-j, factor+j)
    edge_factor_jitter: float = 0.0
    # family structure: 0 means every graph is its own family
    families: int = 0
    # member-level density spread: each member adds/removes up to this
    # fraction of the template's edges.  Density varies within a family, so
    # attribute profiles cannot proxy it: only structure-aware encoders can
    # track the resulting similarity ranks.
    member_edge_jitter: float = 0.0

    def __post_init__(self):
        for name, minimum in (("n_graphs", 1), ("size_min", 3), ("size_max", 3),
                              ("families", 0), ("seed", 0)):
            check_int(name, getattr(self, name), minimum)
        for s in (*self.attr_sizes, *self.edge_attr_sizes):
            check_int("every attribute alphabet size", s, 1)
        if self.label_rule not in LABEL_RULES:
            raise DataError(f"unknown label rule {self.label_rule!r}")
        if self.size_max < self.size_min:
            raise DataError("graph sizes must satisfy 3 <= size_min <= size_max")
        check_real("homophily", self.homophily, 0.0, 1.0)
        if not self.attr_sizes or self.attr_sizes[0] < CLASSES:
            raise DataError("attr_sizes[0] must cover the label classes")
        for name in ("edge_factor_jitter", "member_edge_jitter"):
            check_real(name, getattr(self, name), 0.0)
        if self.families > self.n_graphs:
            raise DataError("families must be in [0, n_graphs]")


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice`` builds from the probability vector ``p``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _profile_cdfs(rng: np.random.Generator, sizes) -> list[np.ndarray]:
    """The CDF of one Dirichlet attribute profile per alphabet size."""
    return [_cdf(rng.dirichlet(np.full(s, ATTR_CONCENTRATION))) for s in sizes]


def _categorical(cdf: np.ndarray, u):
    """The symbol(s) ``Generator.choice(len(p), p=p)`` returns for the
    uniform draw(s) ``u``, given the CDF of ``p`` (see the module docstring)."""
    return cdf.searchsorted(u, side="right")


def _categorical_table(rng: np.random.Generator, cdfs: list[np.ndarray],
                       rows: int) -> list[list[int]]:
    """``rows`` rows of one symbol per CDF, the symbols that scalar draws
    would give row by row, from one ``rng.random`` call."""
    u = rng.random((rows, len(cdfs)))
    codes = np.empty(u.shape, dtype=np.int64)
    for s, cdf in enumerate(cdfs):
        codes[:, s] = _categorical(cdf, u[:, s])
    return codes.tolist()


def _has_edge(edges: list[tuple[int, int]], e: tuple[int, int]) -> bool:
    """``e in edges`` for the sorted edge list, by bisection."""
    i = bisect.bisect_left(edges, e)
    return i < len(edges) and edges[i] == e


def _random_pair(rng: np.random.Generator, n: int) -> Optional[tuple[int, int]]:
    """Two drawn nodes as a sorted pair, or None when the draws coincide."""
    u = int(rng.integers(0, n))
    v = int(rng.integers(0, n))
    return None if u == v else (min(u, v), max(u, v))


def _random_edge(rng: np.random.Generator, edges: list[tuple[int, int]]) -> tuple[int, int]:
    return edges[rng.integers(0, len(edges))]


def _move_edge(edges: list[tuple[int, int]], deg: np.ndarray,
               old: Optional[tuple[int, int]] = None,
               new: Optional[tuple[int, int]] = None) -> None:
    """Remove edge ``old`` and add edge ``new`` (either may be None), keeping
    the edge list sorted and the degrees ``deg`` current."""
    if old is not None:
        del edges[bisect.bisect_left(edges, old)]
        deg[old[0]] -= 1
        deg[old[1]] -= 1
    if new is not None:
        bisect.insort(edges, new)
        deg[new[0]] += 1
        deg[new[1]] += 1


def _random_simple_graph(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    """Connected random graph, as a sorted edge list: random spanning tree
    plus random extra edges."""
    order = rng.permutation(n)
    # node order[i] joins order[j], j drawn from [0, i), for i = 1 .. n-1
    picks = rng.integers(0, np.arange(1, n))
    edges = {(min(u, v), max(u, v)) for u, v in zip(order[1:].tolist(), order[picks].tolist())}
    while len(edges) < m:
        pair = _random_pair(rng, n)
        if pair is not None:
            edges.add(pair)
    return sorted(edges)


def _rewire_to_homophily(rng: np.random.Generator, n: int,
                         edges: list[tuple[int, int]], labels: tuple[int, ...],
                         target: float) -> list[tuple[int, int]]:
    """Swap edges for non-edges until the same-label edge fraction is within
    HOMOPHILY_TOL of the target; degree >= 1 is preserved."""
    m = len(edges)
    same = same_label_count(edges, labels)
    deg = degrees_of(n, edges)
    for _ in range(REWIRE_LIMIT):
        if abs(same / m - target) <= HOMOPHILY_TOL:
            return edges
        u, v = _random_edge(rng, edges)
        if rng.random() < 0.5:
            # full swap: replace (u,v) with a random non-edge
            new = _random_pair(rng, n)
            if new is None or _has_edge(edges, new) or deg[u] == 1 or deg[v] == 1:
                continue
        else:
            # endpoint rewire: keep b, re-point its edge from a to y; works
            # even when b is a leaf, only the abandoned endpoint needs deg > 1
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            if deg[a] == 1:
                continue
            y = int(rng.integers(0, n))
            if y == b or y == a:
                continue
            new = (min(b, y), max(b, y))
            if _has_edge(edges, new):
                continue
        delta = int(labels[new[0]] == labels[new[1]]) - int(labels[u] == labels[v])
        if abs((same + delta) / m - target) < abs(same / m - target):
            _move_edge(edges, deg, (u, v), new)
            same += delta
    if abs(same / m - target) <= HOMOPHILY_TOL:
        return edges
    raise NumericError(
        f"rewiring failed to reach homophily {target} within {REWIRE_LIMIT} proposals")


def _mutate_edges(rng: np.random.Generator, n: int, edges: list[tuple[int, int]],
                  count: int) -> list[tuple[int, int]]:
    edges = list(edges)
    deg = degrees_of(n, edges)
    done = 0
    attempts = 0
    while done < count and attempts < 50 * max(count, 1):
        attempts += 1
        u, v = _random_edge(rng, edges)
        if deg[u] == 1 or deg[v] == 1:
            continue
        new = _random_pair(rng, n)
        if new is None or _has_edge(edges, new):
            continue
        _move_edge(edges, deg, (u, v), new)
        done += 1
    return edges


def _resize_edges(rng: np.random.Generator, n: int, edges: list[tuple[int, int]],
                  delta: int) -> list[tuple[int, int]]:
    edges = list(edges)
    deg = degrees_of(n, edges)
    attempts = 0
    while delta != 0 and attempts < 50 * abs(delta) + 100:
        attempts += 1
        if delta > 0:
            new = _random_pair(rng, n)
            if new is None or _has_edge(edges, new):
                continue
            _move_edge(edges, deg, new=new)
            delta -= 1
        else:
            if len(edges) <= n:
                break
            u, v = _random_edge(rng, edges)
            if deg[u] == 1 or deg[v] == 1:
                continue
            _move_edge(edges, deg, old=(u, v))
            delta += 1
    return edges


@dataclass
class _Family:
    n: int
    edges: list
    labels: tuple[int, ...]
    attr_cdfs: list  # slots 1+, see _profile_cdfs
    edge_cdfs: list
    node_attrs: list


def _make_family(rng: np.random.Generator, spec: SyntheticSpec) -> _Family:
    n = int(rng.integers(spec.size_min, spec.size_max + 1))
    factor = EDGE_FACTOR
    if spec.edge_factor_jitter > 0.0:
        factor += rng.uniform(-spec.edge_factor_jitter, spec.edge_factor_jitter)
    m = min(int(round(factor * n)), n * (n - 1) // 2)
    m = max(m, n - 1)
    edges = _random_simple_graph(rng, n, m)
    if spec.homophily == 1.0:
        labels = (0,) * n
    else:
        # balanced classes keep any target homophily reachable by rewiring
        shuffled = np.asarray([i % CLASSES for i in range(n)], dtype=np.int64)
        rng.shuffle(shuffled)
        labels = tuple(int(y) for y in shuffled)
        edges = _rewire_to_homophily(rng, n, edges, labels, spec.homophily)
    attr_cdfs = _profile_cdfs(rng, spec.attr_sizes[1:])
    edge_cdfs = _profile_cdfs(rng, spec.edge_attr_sizes)
    node_attrs = _categorical_table(rng, attr_cdfs, n)
    return _Family(n=n, edges=edges, labels=labels, attr_cdfs=attr_cdfs,
                   edge_cdfs=edge_cdfs, node_attrs=node_attrs)


def _member_graph(rng: np.random.Generator, spec: SyntheticSpec,
                  fam: _Family) -> tuple[tuple, tuple, tuple]:
    """A family member's sorted edges, node attributes and edge attributes."""
    n = fam.n
    edges = _mutate_edges(rng, n, fam.edges, int(round(EDGE_MUTATION * len(fam.edges))))
    if spec.member_edge_jitter > 0.0:
        delta = int(round(rng.uniform(-spec.member_edge_jitter,
                                      spec.member_edge_jitter) * len(fam.edges)))
        edges = _resize_edges(rng, n, edges, delta)
    if spec.homophily < 1.0:
        edges = _rewire_to_homophily(rng, n, edges, fam.labels, spec.homophily)
    node_attrs = []
    for v in range(n):
        if rng.random() < LABEL_ATTR_NOISE:
            first = int(rng.integers(0, spec.attr_sizes[0]))
        else:
            first = fam.labels[v]
        rest = list(fam.node_attrs[v])
        for s, cdf in enumerate(fam.attr_cdfs):
            if rng.random() < ATTR_MUTATION:
                rest[s] = int(_categorical(cdf, rng.random()))
        node_attrs.append(tuple([first] + rest))
    edge_attrs = tuple(map(tuple, _categorical_table(rng, fam.edge_cdfs, len(edges))))
    return tuple(edges), tuple(node_attrs), edge_attrs


def _triangle_count(n: int, edges) -> float:
    a = adjacency_of(n, edges)
    return float(np.trace(a @ a @ a) / 6.0)


def generate_synthetic(spec: SyntheticSpec) -> GraphCorpus:
    """Corpus of random labeled graphs at the target homophily, with binary
    graph labels from the triangle-motif rule (>= corpus median)."""
    rng = np.random.default_rng(spec.seed)
    n_families = spec.families if spec.families > 0 else spec.n_graphs
    families = [_make_family(rng, spec) for _ in range(n_families)]
    members = [families[gi % n_families] for gi in range(spec.n_graphs)]
    parts = [_member_graph(rng, spec, fam) for fam in members]
    stats = np.asarray([_triangle_count(fam.n, edges)
                        for fam, (edges, _, _) in zip(members, parts)])
    median = float(np.median(stats))
    graphs = tuple(
        LabeledGraph(id=f"syn-{gi:04d}", node_count=fam.n, edges=edges,
                     node_attrs=node_attrs, edge_attrs=edge_attrs, node_labels=fam.labels,
                     graph_labels=(1 if s >= median else 0,))
        for gi, (fam, (edges, node_attrs, edge_attrs), s)
        in enumerate(zip(members, parts, stats)))
    return GraphCorpus(graphs=graphs, task_count=1,
                       name=f"synthetic-{spec.label_rule}-h{spec.homophily:g}")

"""Synthetic attributed-graph corpora with controlled homophily and
structure-dependent task labels (desk-scale benchmark data).

Graphs are organized into families: each family has a template graph,
per-slot attribute profiles, and members derived by edge/attribute mutation.
Families play the role molecular scaffolds play in real corpora — they give
graph pairs a wide structural-similarity spectrum (near-duplicates within a
family, low similarity across families) instead of uniform dissimilarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .graphs import GraphCorpus, LabeledGraph
from .spectral import laplacian, symmetric_eigenvalues

TRIANGLE_MOTIF = "triangle_motif"
SPECTRAL_THRESHOLD = "spectral_threshold"
LABEL_RULES = (TRIANGLE_MOTIF, SPECTRAL_THRESHOLD)

REWIRE_LIMIT = 10 ** 4
HOMOPHILY_TOL = 0.05


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
    classes: int = 2
    # slot 0 of every node's attributes is a noisy copy of its class label;
    # this ties observable features to the planted homophily structure
    label_attr_noise: float = 0.1
    edge_factor: float = 1.5
    # per-family density spread: family edge factor ~ U(factor-j, factor+j)
    edge_factor_jitter: float = 0.0
    # family structure: 0 means every graph is its own family
    families: int = 0
    edge_mutation: float = 0.15
    attr_mutation: float = 0.15
    # member-level density spread: each member adds/removes up to this
    # fraction of the template's edges.  Density varies within a family, so
    # attribute profiles cannot proxy it: only structure-aware encoders can
    # track the resulting similarity ranks.
    member_edge_jitter: float = 0.0
    # Dirichlet concentration of the per-family attribute profiles (slots 1+)
    attr_concentration: float = 0.4

    def __post_init__(self):
        if self.label_rule not in LABEL_RULES:
            raise DataError(f"unknown label rule {self.label_rule!r}")
        if self.size_min < 3 or self.size_max < self.size_min:
            raise DataError("graph sizes must satisfy 3 <= size_min <= size_max")
        if not 0.0 <= self.homophily <= 1.0:
            raise DataError(f"homophily target {self.homophily} outside [0,1]")
        if self.classes < 1 or not self.attr_sizes or self.attr_sizes[0] < self.classes:
            raise DataError("attr_sizes[0] must cover the label classes")
        if self.n_graphs < 1:
            raise DataError("n_graphs must be >= 1")
        if self.families < 0 or self.families > self.n_graphs:
            raise DataError("families must be in [0, n_graphs]")


def _random_simple_graph(rng: np.random.Generator, n: int, m: int) -> set[tuple[int, int]]:
    """Connected random graph: random spanning tree plus random extra edges."""
    order = rng.permutation(n)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return edges


def _same_count(edges, labels) -> int:
    return sum(1 for u, v in edges if labels[u] == labels[v])


def _degrees(n: int, edges) -> np.ndarray:
    deg = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _rewire_to_homophily(rng: np.random.Generator, n: int,
                         edges: set[tuple[int, int]], labels: np.ndarray,
                         target: float) -> set[tuple[int, int]]:
    """Swap edges for non-edges until the same-label edge fraction is within
    HOMOPHILY_TOL of the target; degree >= 1 is preserved."""
    m = len(edges)
    same = _same_count(edges, labels)
    deg = _degrees(n, edges)
    for _ in range(REWIRE_LIMIT):
        if abs(same / m - target) <= HOMOPHILY_TOL:
            return edges
        edge_list = sorted(edges)
        u, v = edge_list[rng.integers(0, m)]
        removed_same = 1 if labels[u] == labels[v] else 0
        if rng.random() < 0.5:
            # full swap: replace (u,v) with a random non-edge (x,y)
            x = int(rng.integers(0, n))
            y = int(rng.integers(0, n))
            if x == y:
                continue
            x, y = min(x, y), max(x, y)
            if (x, y) in edges:
                continue
            if deg[u] == 1 or deg[v] == 1:
                continue
            delta = (1 if labels[x] == labels[y] else 0) - removed_same
            if abs((same + delta) / m - target) < abs(same / m - target):
                edges.remove((u, v))
                edges.add((x, y))
                deg[u] -= 1
                deg[v] -= 1
                deg[x] += 1
                deg[y] += 1
                same += delta
        else:
            # endpoint rewire: keep b, re-point its edge from a to y; works
            # even when b is a leaf, only the abandoned endpoint needs deg > 1
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            if deg[a] == 1:
                continue
            y = int(rng.integers(0, n))
            if y == b or y == a:
                continue
            new_edge = (min(b, y), max(b, y))
            if new_edge in edges:
                continue
            delta = (1 if labels[b] == labels[y] else 0) - removed_same
            if abs((same + delta) / m - target) < abs(same / m - target):
                edges.remove((u, v))
                edges.add(new_edge)
                deg[a] -= 1
                deg[y] += 1
                same += delta
    if abs(same / m - target) <= HOMOPHILY_TOL:
        return edges
    raise NumericError(
        f"rewiring failed to reach homophily {target} within {REWIRE_LIMIT} proposals")


def _mutate_edges(rng: np.random.Generator, n: int, edges: set[tuple[int, int]],
                  count: int) -> set[tuple[int, int]]:
    edges = set(edges)
    deg = _degrees(n, edges)
    done = 0
    attempts = 0
    while done < count and attempts < 50 * max(count, 1):
        attempts += 1
        edge_list = sorted(edges)
        u, v = edge_list[rng.integers(0, len(edge_list))]
        if deg[u] == 1 or deg[v] == 1:
            continue
        x = int(rng.integers(0, n))
        y = int(rng.integers(0, n))
        if x == y:
            continue
        x, y = min(x, y), max(x, y)
        if (x, y) in edges:
            continue
        edges.remove((u, v))
        edges.add((x, y))
        deg[u] -= 1
        deg[v] -= 1
        deg[x] += 1
        deg[y] += 1
        done += 1
    return edges


@dataclass
class _Family:
    n: int
    edges: set
    labels: np.ndarray
    attr_profiles: list
    edge_profiles: list
    node_attrs: list


def _make_family(rng: np.random.Generator, spec: SyntheticSpec) -> _Family:
    n = int(rng.integers(spec.size_min, spec.size_max + 1))
    factor = spec.edge_factor
    if spec.edge_factor_jitter > 0.0:
        factor += rng.uniform(-spec.edge_factor_jitter, spec.edge_factor_jitter)
    m = min(int(round(factor * n)), n * (n - 1) // 2)
    m = max(m, n - 1)
    edges = _random_simple_graph(rng, n, m)
    if spec.homophily == 1.0:
        labels = np.zeros(n, dtype=np.int64)
    else:
        # balanced classes keep any target homophily reachable by rewiring
        labels = np.asarray([i % spec.classes for i in range(n)], dtype=np.int64)
        rng.shuffle(labels)
        edges = _rewire_to_homophily(rng, n, edges, labels, spec.homophily)
    attr_profiles = [rng.dirichlet(np.full(s, spec.attr_concentration))
                     for s in spec.attr_sizes[1:]]
    edge_profiles = [rng.dirichlet(np.full(s, spec.attr_concentration))
                     for s in spec.edge_attr_sizes]
    node_attrs = [[int(rng.choice(len(p), p=p)) for p in attr_profiles]
                  for _ in range(n)]
    return _Family(n=n, edges=edges, labels=labels, attr_profiles=attr_profiles,
                   edge_profiles=edge_profiles, node_attrs=node_attrs)


def _resize_edges(rng: np.random.Generator, n: int, edges: set[tuple[int, int]],
                  delta: int) -> set[tuple[int, int]]:
    edges = set(edges)
    deg = _degrees(n, edges)
    attempts = 0
    while delta != 0 and attempts < 50 * abs(delta) + 100:
        attempts += 1
        if delta > 0:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            u, v = min(u, v), max(u, v)
            if (u, v) in edges:
                continue
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
            delta -= 1
        else:
            if len(edges) <= n:
                break
            edge_list = sorted(edges)
            u, v = edge_list[rng.integers(0, len(edge_list))]
            if deg[u] == 1 or deg[v] == 1:
                continue
            edges.remove((u, v))
            deg[u] -= 1
            deg[v] -= 1
            delta += 1
    return edges


def _member_graph(rng: np.random.Generator, spec: SyntheticSpec, fam: _Family,
                  gid: str) -> LabeledGraph:
    n = fam.n
    edges = _mutate_edges(rng, n, fam.edges,
                          int(round(spec.edge_mutation * len(fam.edges))))
    if spec.member_edge_jitter > 0.0:
        delta = int(round(rng.uniform(-spec.member_edge_jitter,
                                      spec.member_edge_jitter) * len(fam.edges)))
        edges = _resize_edges(rng, n, edges, delta)
    if spec.homophily < 1.0:
        edges = _rewire_to_homophily(rng, n, edges, fam.labels, spec.homophily)
    node_attrs = []
    for v in range(n):
        if rng.random() < spec.label_attr_noise:
            first = int(rng.integers(0, spec.attr_sizes[0]))
        else:
            first = int(fam.labels[v])
        rest = list(fam.node_attrs[v])
        for s, profile in enumerate(fam.attr_profiles):
            if rng.random() < spec.attr_mutation:
                rest[s] = int(rng.choice(len(profile), p=profile))
        node_attrs.append(tuple([first] + rest))
    sorted_edges = sorted(edges)
    edge_attrs = [tuple(int(rng.choice(len(p), p=p)) for p in fam.edge_profiles)
                  for _ in sorted_edges]
    return LabeledGraph(
        id=gid, node_count=n, edges=tuple(sorted_edges),
        node_attrs=tuple(node_attrs), edge_attrs=tuple(edge_attrs),
        node_labels=tuple(int(y) for y in fam.labels))


def _triangle_count(g: LabeledGraph) -> float:
    a = g.adjacency()
    return float(np.trace(a @ a @ a) / 6.0)


def _lambda_max(g: LabeledGraph) -> float:
    return float(symmetric_eigenvalues(laplacian(g))[-1])


def generate_synthetic(spec: SyntheticSpec) -> GraphCorpus:
    """Corpus of random labeled graphs at the target homophily, with binary
    graph labels from the chosen structural rule (>= corpus median)."""
    rng = np.random.default_rng(spec.seed)
    n_families = spec.families if spec.families > 0 else spec.n_graphs
    families = [_make_family(rng, spec) for _ in range(n_families)]
    raw = [_member_graph(rng, spec, families[gi % n_families], f"syn-{gi:04d}")
           for gi in range(spec.n_graphs)]

    stat_fn = _triangle_count if spec.label_rule == TRIANGLE_MOTIF else _lambda_max
    stats = np.asarray([stat_fn(g) for g in raw])
    median = float(np.median(stats))
    graphs = []
    for g, s in zip(raw, stats):
        label = 1 if s >= median else 0
        graphs.append(LabeledGraph(
            id=g.id, node_count=g.node_count, edges=g.edges, node_attrs=g.node_attrs,
            edge_attrs=g.edge_attrs, node_labels=g.node_labels, graph_labels=(label,)))
    return GraphCorpus(graphs=tuple(graphs), task_count=1,
                       name=f"synthetic-{spec.label_rule}-h{spec.homophily:g}")

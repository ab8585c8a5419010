import numpy as np
import pytest

from graphmgs import tensor as T


@pytest.fixture
def workers(monkeypatch):
    """``workers(k)`` makes ``tensor._split`` see k CPUs."""
    def set_count(count):
        monkeypatch.setattr(T, "_worker_count", lambda: count)

    return set_count


def finite_difference_check(fn, tensors, h=1e-5):
    """Max relative error between tape gradients of fn() and central differences."""
    for t in tensors:
        t.grad = None
    with T.tape():
        T.backward(fn())
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
             for t in tensors]
    max_rel = 0.0
    for t, g in zip(tensors, grads):
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = fn().item()
            flat[i] = orig - h
            lm = fn().item()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            rel = abs(numeric - gf[i]) / max(abs(numeric), abs(gf[i]), 1e-8)
            max_rel = max(max_rel, rel)
        t.grad = None
    return max_rel


def random_attributed_graph(rng, n_min=3, n_max=12, attr_sizes=(4, 2),
                            edge_attr_sizes=(3,), labels=False):
    """Random connected simple graph with categorical attributes."""
    from graphmgs.graphs import LabeledGraph

    n = int(rng.integers(n_min, n_max + 1))
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = int(order[i]), int(order[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = tuple(sorted(edges))
    return LabeledGraph(
        id=f"rand-{rng.integers(1 << 30)}", node_count=n, edges=edges,
        node_attrs=tuple(tuple(int(rng.integers(0, s)) for s in attr_sizes)
                         for _ in range(n)),
        edge_attrs=tuple(tuple(int(rng.integers(0, s)) for s in edge_attr_sizes)
                         for _ in edges),
        node_labels=tuple(int(x) for x in rng.integers(0, 2, size=n)) if labels else None)

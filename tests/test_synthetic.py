import hashlib
from dataclasses import replace

import numpy as np
import pytest

from graphmgs.errors import DataError
from graphmgs.synthetic import (ATTR_CONCENTRATION, TRIANGLE_MOTIF, SyntheticSpec, _categorical,
                                _categorical_table, _cdf, generate_synthetic)

# the corpus specs of the benchmark workloads (perfbench/workloads.py)
DESK = dict(n_graphs=200, size_min=10, size_max=16, homophily=0.3, label_rule=TRIANGLE_MOTIF)
WIDE = dict(n_graphs=142, size_min=10, size_max=16, homophily=0.3, label_rule=TRIANGLE_MOTIF,
            families=40)
SPECTRAL = dict(n_graphs=300, size_min=16, size_max=32, homophily=0.3,
                label_rule=TRIANGLE_MOTIF)
# the jittered tests/test_training.py fixture
FIXTURE = dict(n_graphs=40, size_min=8, size_max=12, homophily=0.4, label_rule=TRIANGLE_MOTIF,
               seed=3, families=8, attr_sizes=(4, 6), edge_attr_sizes=(1,),
               edge_factor_jitter=0.3, member_edge_jitter=0.3)
SMALL = dict(n_graphs=30, size_min=6, size_max=12, label_rule=TRIANGLE_MOTIF)

# sha256 of each corpus's canonical repr, recorded before the generator was
# refactored; a change to the generator must leave every existing corpus as is
GOLDEN = {
    "desk-0": (dict(DESK, seed=0),
               "43e35ab7edcf64d0f9d9dd567fbfe71b445bf4b989c10f4ba52ecb65f14a01ad"),
    "desk-1": (dict(DESK, seed=1),
               "f5c956bfb796afe860334accc5854edfa8a08cc23eee30e3ed942d8c255a5a7f"),
    "desk-2": (dict(DESK, seed=2),
               "bdd8edbe490115d6affa8881529a67453dc1f7400d30496510f1b15d450da3b1"),
    "wide-0": (dict(WIDE, seed=0),
               "509687930607661a11b69bbd693dff9f2777639b1dc77c06c3da30e9707b6006"),
    "wide-1": (dict(WIDE, seed=1),
               "5c3a488e312825eb7f35063c93afe065fa1dbc5f655a420a03a4dad13239656f"),
    "wide-2": (dict(WIDE, seed=2),
               "545335942540988d79cb7a2ca57d3ec6e085c489ae5fb9709b98e822f8253b58"),
    "spectral-0": (dict(SPECTRAL, seed=0),
                   "0a14872e4c52804a2603e0316e93ed655c60a44953b4b37a141844a09bd7c55b"),
    "spectral-1": (dict(SPECTRAL, seed=1),
                   "45ab9fcaae8a1ccb6ad803e3f7272579763cdc750dd68f63271fa61909772c9f"),
    "spectral-2": (dict(SPECTRAL, seed=2),
                   "e02990d19bad058e74b8070f8b49b60b2cbb0912f1297f49a673bad919cf826c"),
    "fixture": (FIXTURE,
                "49af36ea8bde51d7b5cbb22fcacb4b5a5282043e82d03643c624b4eb2c93e403"),
    "h1": (dict(SMALL, homophily=1.0, seed=4),
           "4bb98d9e208c9da05f6f1646ab247324c76fd83d281d54b004cebd83b5b4c349"),
    "h0": (dict(SMALL, homophily=0.0, seed=5),
           "9232c2569b6da3b1a5734e9fce299714e5650d99abb684031a3849956aca7fd6"),
    "multi-slot": (dict(SMALL, homophily=0.5, seed=6, families=5, attr_sizes=(3, 5, 2),
                        edge_attr_sizes=(4, 2)),
                   "b3d403c4032423d0380453484c3f7bce42fea7f8e0f632fc73014653b07a550f"),
    # zero-width slot-1+ attribute tables
    "one-slot": (dict(SMALL, homophily=0.3, seed=7, attr_sizes=(3,)),
                 "40f1c914fad34bd6f942c560b2e7d1e7a3a41a87baaebde65a2782df1f865a32"),
    # no edge attributes, so no edge draws
    "no-edge-attrs": (dict(SMALL, homophily=0.4, seed=7, families=6, edge_attr_sizes=()),
                      "8dcc38fe1a96b1279478337de6b0e71004d860575a2626cd0bfbd22a994a7b69"),
    # a one-symbol alphabet, with both jitters and every graph its own family
    "three-slot": (dict(SMALL, homophily=0.35, seed=7, attr_sizes=(2, 1, 5),
                        edge_attr_sizes=(2,), edge_factor_jitter=0.3, member_edge_jitter=0.2),
                   "60ff05a1c1ce9af7008bd5ae91099940b5052acdb35bd8cf911bcb540d2ca4fb"),
}


def canonical(corpus) -> str:
    return repr((corpus.name, corpus.task_count, [
        (g.id, g.node_count, g.edges, g.node_attrs, g.edge_attrs, g.node_labels, g.graph_labels)
        for g in corpus]))


@pytest.mark.parametrize("spec,digest", GOLDEN.values(), ids=GOLDEN)
def test_corpus_matches_golden_digest(spec, digest):
    corpus = generate_synthetic(SyntheticSpec(**spec))
    assert hashlib.sha256(canonical(corpus).encode()).hexdigest() == digest


def triangle_oracle(g) -> int:
    """Triangles by brute force over node triples, from the edge list."""
    edges = set(g.edges)
    n = g.node_count
    return sum(1 for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
               if (a, b) in edges and (a, c) in edges and (b, c) in edges)


class TestTriangleMotifLabels:
    def test_labels_are_triangle_count_at_or_above_median(self):
        for seed in range(3):
            corpus = generate_synthetic(SyntheticSpec(**dict(FIXTURE, seed=seed)))
            counts = np.asarray([triangle_oracle(g) for g in corpus])
            median = np.median(counts)
            labels = [g.graph_labels for g in corpus]
            assert labels == [(int(c >= median),) for c in counts], f"seed {seed}"
            assert {y for (y,) in labels} == {0, 1}


BASE = SyntheticSpec(**FIXTURE)


# the values in use (0.0, 0.3, (4, 8), (4, 6), (3,), (1,)) stay valid: the golden specs set them
@pytest.mark.parametrize("field,value", [
    ("edge_factor_jitter", float("nan")), ("edge_factor_jitter", -0.1),
    ("member_edge_jitter", float("nan")), ("member_edge_jitter", -0.1),
    ("attr_sizes", (4, 0)), ("attr_sizes", ()), ("attr_sizes", (1, 6)),
    ("edge_attr_sizes", (0,)), ("edge_attr_sizes", (3, -1)),
    ("label_rule", "spectral_threshold"),
    # counts, seeds and alphabet sizes are integers, never bools
    ("n_graphs", True), ("n_graphs", 30.0), ("size_min", 6.0), ("size_max", 12.5),
    ("size_max", False), ("families", 2.0), ("families", True), ("seed", 1.5),
    ("seed", True), ("seed", -1), ("attr_sizes", (4, 2.5)), ("attr_sizes", (4.0, 6)),
    ("edge_attr_sizes", (True,)), ("edge_attr_sizes", (3.0,)),
    # homophily and the jitters are finite reals, never bools or strings
    ("homophily", True), ("homophily", "0.3"), ("homophily", float("nan")), ("homophily", 1.5),
    ("edge_factor_jitter", True), ("member_edge_jitter", "0.1"),
])
def test_spec_rejects_degenerate_settings(field, value):
    with pytest.raises(DataError):
        replace(BASE, **{field: value})


def test_spec_accepts_numpy_integers():
    spec = replace(BASE, n_graphs=np.int64(40), seed=np.int64(3), attr_sizes=(np.int64(4), 6))
    assert canonical(generate_synthetic(spec)) == canonical(generate_synthetic(BASE))


# probability vectors: Dirichlet profiles as the generator draws them, one
# symbol, and exact zeros inside and at the end
NAMED_PROFILES = {
    **{f"dirichlet-{k}": np.random.default_rng(k).dirichlet(np.full(k, ATTR_CONCENTRATION))
       for k in (2, 3, 8, 17)},
    "one-symbol": np.array([1.0]),
    "inner-zero": np.array([0.5, 0.0, 0.5]),
    "outer-zeros": np.array([0.0, 0.25, 0.75, 0.0]),
    "decimal": np.array([0.1, 0.2, 0.3, 0.4]),
}
PROFILES = list(NAMED_PROFILES.values())


@pytest.mark.parametrize("p", PROFILES, ids=NAMED_PROFILES)
def test_categorical_draws_match_generator_choice(p):
    cdf = _cdf(p)
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2000):
        assert _categorical(cdf, ours.random()) == theirs.choice(len(p), p=p)
    assert ours.random() == theirs.random()  # and the stream is left in step


def test_categorical_never_draws_a_zero_probability_symbol():
    # a uniform that lands on a CDF step goes past it, as in Generator.choice
    cdf = _cdf(np.array([0.0, 0.5, 0.0, 0.5]))
    assert _categorical(cdf, np.array([0.0, 0.25, 0.5, 0.75])).tolist() == [1, 1, 3, 3]


def test_categorical_draws_interleaved_with_other_draws():
    cdfs = [_cdf(p) for p in PROFILES]
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for i in range(3000):
        p, cdf = PROFILES[i % len(PROFILES)], cdfs[i % len(PROFILES)]
        if i % 3 == 0:
            assert ours.integers(0, 7) == theirs.integers(0, 7)
        if i % 5 == 0:
            assert ours.random() == theirs.random()
        assert _categorical(cdf, ours.random()) == theirs.choice(len(p), p=p)


@pytest.mark.parametrize("rows,profiles", [(9, PROFILES[:3]), (1, PROFILES[4:]),
                                           (6, []), (0, PROFILES[:2])],
                         ids=["3-slots", "1-row", "zero-width", "zero-rows"])
def test_whole_table_draw_equals_row_by_row_draws(rows, profiles):
    cdfs = [_cdf(p) for p in profiles]
    table, by_row, by_choice = (np.random.default_rng(21) for _ in range(3))
    got = _categorical_table(table, cdfs, rows)
    assert got == [[int(_categorical(cdf, by_row.random())) for cdf in cdfs]
                   for _ in range(rows)]
    assert got == [[int(by_choice.choice(len(p), p=p)) for p in profiles]
                   for _ in range(rows)]
    assert table.random() == by_row.random() == by_choice.random()


def test_one_integers_call_over_bounds_equals_scalar_draws():
    """The spanning tree's parent picks (see the synthetic module docstring)."""
    for n in (2, 3, 16, 40):
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        assert ours.integers(0, np.arange(1, n)).tolist() == [
            int(theirs.integers(0, i)) for i in range(1, n)]
        assert ours.random() == theirs.random()

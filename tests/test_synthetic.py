import numpy as np

from graphmgs.synthetic import SPECTRAL_THRESHOLD, SyntheticSpec, generate_synthetic


def lambda_max_oracle(g):
    """Largest eigenvalue of D - A, built from the edge list."""
    lap = np.zeros((g.node_count, g.node_count))
    for u, v in g.edges:
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return float(np.linalg.eigvalsh(lap)[-1])


class TestSpectralThresholdLabels:
    def test_labels_are_lambda_max_at_or_above_median(self):
        for seed in range(3):
            spec = SyntheticSpec(n_graphs=30, size_min=6, size_max=14, homophily=0.4,
                                 label_rule=SPECTRAL_THRESHOLD, seed=seed, families=6,
                                 edge_factor_jitter=0.3, member_edge_jitter=0.3)
            corpus = generate_synthetic(spec)
            lam = np.asarray([lambda_max_oracle(g) for g in corpus])
            median = np.median(lam)
            labels = [g.graph_labels for g in corpus]
            assert labels == [(int(x >= median),) for x in lam], f"seed {seed}"
            assert {y for (y,) in labels} == {0, 1}

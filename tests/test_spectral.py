import numpy as np
import pytest

from graphmgs.errors import DataError
from graphmgs.fingerprints import make_fingerprints
from graphmgs.graphs import LabeledGraph
from graphmgs.similarity import check_comparable
from graphmgs.spectral import (COMBINATORIAL, SpectralFingerprint, laplacian,
                               normalized_adjacency, spectral_fingerprint,
                               symmetric_eigenvalues)

from conftest import random_attributed_graph
from spec import permuted


def plain_graph(n, edges, gid="g"):
    return LabeledGraph(id=gid, node_count=n, edges=tuple(edges),
                        node_attrs=tuple((0,) for _ in range(n)),
                        edge_attrs=tuple((0,) for _ in edges))


def path_graph(n):
    return plain_graph(n, [(i, i + 1) for i in range(n - 1)], gid=f"P{n}")


def cycle_graph(n):
    return plain_graph(n, [(i, (i + 1) % n) if i + 1 < n else (0, n - 1)
                           for i in range(n)], gid=f"C{n}")


def complete_graph(n):
    return plain_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)],
                       gid=f"K{n}")


# closed-form combinatorial spectra
def path_spectrum(n):
    return np.sort([2 - 2 * np.cos(np.pi * k / n) for k in range(n)])


def cycle_spectrum(n):
    return np.sort([2 - 2 * np.cos(2 * np.pi * k / n) for k in range(n)])


def complete_spectrum(n):
    return np.sort([0.0] + [float(n)] * (n - 1))


class TestLaplacian:
    def test_single_edge_combinatorial(self):
        lap = laplacian(plain_graph(2, [(0, 1)]))
        assert np.array_equal(lap, [[1, -1], [-1, 1]])

    def test_triangle_normalized_spectrum(self):
        # I - D^{-1/2} A D^{-1/2}, the operator behind ChebNet and FAGCN
        a = complete_graph(3).adjacency()
        lap = np.eye(3) - normalized_adjacency(a)
        assert np.allclose(lap, np.eye(3) - 0.5 * a)
        eig = symmetric_eigenvalues(lap)
        assert np.allclose(eig, [0.0, 1.5, 1.5], atol=1e-10)

    def test_isolated_node(self):
        lap = laplacian(plain_graph(1, []))
        assert lap.shape == (1, 1) and lap[0, 0] == 0.0

    def test_row_sums_zero_combinatorial(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_attributed_graph(rng)
            assert np.allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-12)

    def test_unknown_kind(self):
        # the combinatorial Laplacian is the only one
        for kind in ("sym_normalized", "rw"):
            with pytest.raises(DataError, match=f"unknown laplacian kind '{kind}'"):
                spectral_fingerprint(plain_graph(2, [(0, 1)]), 6, kind=kind)


class TestNonFiniteMatrix:
    def test_nan_diagonal_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            symmetric_eigenvalues(np.array([[np.nan, 1.0], [1.0, 0.0]]))

    def test_inf_off_diagonal_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            symmetric_eigenvalues(np.array([[0.0, np.inf], [np.inf, 0.0]]))


class TestSymmetricEigenvalues:
    def test_two_by_two(self):
        eig = symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig, [1.0, 3.0], atol=1e-10)

    def test_diagonal_passthrough(self):
        eig = symmetric_eigenvalues(np.diag([5.0, 1.0, 3.0]))
        assert np.allclose(eig, [1.0, 3.0, 5.0])

    def test_c4_spectrum(self):
        eig = symmetric_eigenvalues(laplacian(cycle_graph(4)))
        assert np.allclose(eig, [0.0, 2.0, 2.0, 4.0], atol=1e-10)

    def test_non_symmetric_rejected(self):
        with pytest.raises(DataError, match="symmetric"):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("family,builder,closed_form", [
        ("path", path_graph, path_spectrum),
        ("cycle", cycle_graph, cycle_spectrum),
        ("complete", complete_graph, complete_spectrum),
    ])
    def test_closed_forms_to_n50(self, family, builder, closed_form):
        for n in range(3, 51, 4):
            eig = symmetric_eigenvalues(laplacian(builder(n)))
            assert np.max(np.abs(eig - closed_form(n))) < 1e-8, f"{family} n={n}"

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            g = random_attributed_graph(rng)
            perm = list(rng.permutation(g.node_count))
            e1 = symmetric_eigenvalues(laplacian(g))
            e2 = symmetric_eigenvalues(laplacian(permuted(g, perm)))
            assert np.max(np.abs(e1 - e2)) < 1e-8

    def test_component_count_equals_zero_multiplicity(self):
        # two triangles + an isolated node: 3 components
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        g = plain_graph(7, edges)
        eig = symmetric_eigenvalues(laplacian(g))
        assert int(np.sum(np.abs(eig) < 1e-8)) == 3

    def test_normalized_range(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_attributed_graph(rng)
            eig = symmetric_eigenvalues(np.eye(g.node_count)
                                        - normalized_adjacency(g.adjacency()))
            assert eig.min() > -1e-8 and eig.max() < 2.0 + 1e-8


class TestSpectralFingerprint:
    def test_k3_top2(self):
        fp = spectral_fingerprint(complete_graph(3), k=2)
        assert np.allclose(fp.eigenvalues, [3.0, 3.0], atol=1e-10)

    def test_padding_single_node(self):
        fp = spectral_fingerprint(plain_graph(1, []), k=3)
        assert fp.eigenvalues == (0.0, 0.0, 0.0)

    def test_c4_top3(self):
        fp = spectral_fingerprint(cycle_graph(4), k=3)
        assert np.allclose(fp.eigenvalues, [4.0, 2.0, 2.0], atol=1e-10)

    def test_descending_and_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_attributed_graph(rng)
            fp = spectral_fingerprint(g, k=6)
            vals = np.asarray(fp.eigenvalues)
            assert np.all(np.diff(vals) <= 1e-12) and np.all(vals >= 0.0)

    def test_k_validated(self):
        for k in (0, True, 2.5, "3"):
            with pytest.raises(DataError, match="k must be an integer >= 1"):
                spectral_fingerprint(complete_graph(3), k=k)

    @pytest.mark.parametrize("eigenvalues", [(), np.empty(0)], ids=["none", "empty-array"])
    def test_constructor_checks_eigenvalue_count(self, eigenvalues):
        with pytest.raises(DataError, match="expected at least one eigenvalue"):
            SpectralFingerprint(eigenvalues=eigenvalues)

    @pytest.mark.parametrize("eigenvalues", [(3.0,), (3.0, 2.0, 1.0)], ids=["fewer", "more"])
    def test_eigenvalue_count_sets_the_kind(self, eigenvalues):
        # the length of a kind is its eigenvalue count, whatever params claims
        two = SpectralFingerprint(eigenvalues=(3.0, 2.0), params=(("k", 2),))
        other = SpectralFingerprint(eigenvalues=eigenvalues, params=(("k", 2),))
        assert other.kind == ("spectral", (("k", 2),), len(eigenvalues))
        with pytest.raises(DataError, match=rf"of length 2 and spectral\(k=2\) of length "
                                            rf"{len(eigenvalues)}"):
            check_comparable([two, other])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1.0", None, 1j])
    def test_constructor_checks_eigenvalues_are_finite_reals(self, bad):
        with pytest.raises(DataError, match="expected at least one eigenvalue, all finite"):
            SpectralFingerprint(eigenvalues=(3.0, bad))

    def test_equal_fingerprints_compare_and_hash_equal(self):
        # eigenvalues given as an array are kept as a tuple of floats
        a = SpectralFingerprint(eigenvalues=np.array([2.0, 1.0]), params=(("k", 2),))
        b = SpectralFingerprint(eigenvalues=(2.0, 1), params=(("k", 2),))
        assert a.eigenvalues == (2.0, 1.0) and all(type(v) is float for v in a.eigenvalues)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != SpectralFingerprint(eigenvalues=(2.0, 0.5), params=(("k", 2),))

    @pytest.mark.parametrize("kind", [COMBINATORIAL])
    def test_make_fingerprints_matches_per_graph(self, kind):
        rng = np.random.default_rng(9)
        graphs = [random_attributed_graph(rng, n_min=1, n_max=10) for _ in range(30)]
        fps = make_fingerprints(graphs, "spectral", k=6, kind=kind)
        assert list(fps) == [g.id for g in graphs]
        for g in graphs:
            want = spectral_fingerprint(g, k=6, kind=kind)
            assert fps[g.id] == want
            assert (np.asarray(fps[g.id].eigenvalues).tobytes()
                    == np.asarray(want.eigenvalues).tobytes())
            assert fps[g.id].scheme == "spectral"
            assert fps[g.id].params == (("k", 6), ("kind", kind))

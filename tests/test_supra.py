import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh

from stgl import (DirectedInput, InsufficientSpatialEigenvectors, SupraSystem,
                  TimeEvolvingGraph, build_supra, gen_benchmark1, static_blocks,
                  supra, supra_cluster, symmetrize)
from stgl.supra import VARIANTS, classify_folded, supra_spectrum

from util import (random_teg, reference_build_supra,
                  reference_random_walk_laplacian, solver_side_sort,
                  supra_laplacian)


def undirected_teg(seed, **kwargs):
    g = random_teg(seed, **kwargs)
    return g if not g.directed else symmetrize(g)


class TestSymmetrize:
    def test_idempotent_on_symmetric(self):
        g = undirected_teg(0)
        again = symmetrize(g)
        for W, V in zip(g.snapshots, again.snapshots):
            assert abs(W - V).max() <= 1e-15

    def test_halves_one_way_edges(self):
        W = np.array([[0.0, 2.0], [0.0, 0.0]])
        g = TimeEvolvingGraph([W, W], directed=True)
        sym = symmetrize(g)
        assert not sym.directed
        np.testing.assert_allclose(sym.snapshots[0].toarray(), [[0.0, 1.0], [1.0, 0.0]])


def unsorted_rows_graph():
    """A two-view graph built from a first snapshot that stores each row's
    indices in descending order."""
    W = undirected_teg(1, n_max=12).snapshots[0]
    for r in range(W.shape[0]):
        row = slice(W.indptr[r], W.indptr[r + 1])
        W.indices[row], W.data[row] = W.indices[row][::-1], W.data[row][::-1]
    g = TimeEvolvingGraph((W, W.toarray()))
    assert g.snapshots[0].has_sorted_indices
    assert not np.array_equal(g.snapshots[0].indices, W.indices)
    return g


def bitwise_cases():
    """Every graph the bitwise comparison runs on, as a param named for it."""
    loop = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 3.0]])
    lone = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
    cases = [(f"benchmark1-{seed}", gen_benchmark1(seed)[0]) for seed in range(3)]
    cases += [(f"random-{seed}", undirected_teg(seed)) for seed in range(60)]
    cases += [(f"static-M{M}", static_blocks(n=12, M=M, seed=M)[0]) for M in (2, 10)]
    cases += [("self-loops", TimeEvolvingGraph([loop, 2 * loop])),
              ("lone-self-loop", TimeEvolvingGraph([lone, loop])),
              ("one-vertex", TimeEvolvingGraph([[[1.0]], [[0.0]], [[2.5]]])),
              ("unsorted-rows", unsorted_rows_graph())]
    return [pytest.param(graph, id=name) for name, graph in cases]


def as_int64(system):
    """H's CSR arrays and ``scale``, each as int64 (floats by their bits)."""
    H = system.H
    return (H.shape, H.indptr.astype(np.int64), H.indices.astype(np.int64),
            H.data.view(np.int64), system.scale.view(np.int64))


class TestBuildSupra:
    @pytest.mark.parametrize("graph", bitwise_cases())
    def test_bitwise_equal_to_the_reference(self, graph):
        for variant in ("unnormalized", "normalized"):
            for a in (0.0, 1e-4, 0.05, 0.7, 10.0, 1e300):
                got = as_int64(build_supra(graph, a, variant))
                want = as_int64(reference_build_supra(graph, a, variant))
                assert got[0] == want[0]
                for mine, theirs in zip(got[1:], want[1:]):
                    assert np.array_equal(mine, theirs), (variant, a)

    @pytest.mark.parametrize("variant", ["unnormalized", "normalized"])
    def test_peak_below_four_times_H(self, variant):
        # one pass holds W's arrays and one view's temporaries, where the
        # chained scipy construction copied the whole matrix at every step
        # (a 16.0 MB peak for an H of 2.6 MB, normalized variant)
        graph = gen_benchmark1(0)[0]
        tracemalloc.start()
        try:
            H = build_supra(graph, 0.05, variant).H
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (H.data.nbytes + H.indices.nbytes + H.indptr.nbytes)

    def test_directed_input_rejected(self):
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = TimeEvolvingGraph([W, W], directed=True)
        with pytest.raises(DirectedInput):
            build_supra(g, 0.1)

    def test_negative_coupling_rejected(self):
        g = undirected_teg(1)
        with pytest.raises(ValueError):
            build_supra(g, -1.0)

    @pytest.mark.parametrize("variant", ["unnormalized", "normalized"])
    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_non_finite_coupling_rejected(self, a, variant):
        g = undirected_teg(1)
        with pytest.raises(ValueError):
            build_supra(g, a, variant)

    def test_single_vertex_two_views(self):
        g = TimeEvolvingGraph([np.array([[1.0]])] * 2)
        system = build_supra(g, 0.7, "unnormalized")
        # Laplacian sign convention: off-diagonal blocks are -a I, coupling
        # degree on the diagonal; a single self-loop contributes nothing
        np.testing.assert_allclose(supra_laplacian(system).toarray(),
                                   [[0.7, -0.7], [-0.7, 0.7]], atol=1e-15)

    def test_adjacent_blocks_are_minus_a_identity(self):
        g = undirected_teg(2, n_max=6, M_max=4)
        a = 0.37
        system = build_supra(g, a, "unnormalized")
        L = supra_laplacian(system).toarray()
        n, M = g.n, g.M
        for t in range(M - 1):
            block = L[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n]
            np.testing.assert_allclose(block, -a * np.eye(n), atol=1e-15)

    def test_non_adjacent_blocks_zero(self):
        g = undirected_teg(3, n_max=5, M_max=5)
        system = build_supra(g, 0.2, "unnormalized")
        L = supra_laplacian(system).toarray()
        n = g.n
        for s in range(g.M):
            for t in range(g.M):
                if abs(s - t) > 1:
                    assert np.all(L[s * n:(s + 1) * n, t * n:(t + 1) * n] == 0.0)

    def test_symmetric_real_spectrum_unnormalized(self):
        for seed in range(5):
            g = undirected_teg(seed, n_max=8, M_max=4)
            system = build_supra(g, 0.4, "unnormalized")
            L = supra_laplacian(system).toarray()
            assert np.abs(L - L.T).max() <= 1e-10
            vals = np.linalg.eigvals(L)
            assert np.abs(vals.imag).max() <= 1e-10

    def test_normalized_variant_real_spectrum(self):
        for seed in range(5):
            g = undirected_teg(seed, n_max=8, M_max=4)
            system = build_supra(g, 0.4, "normalized")
            L_rw = reference_random_walk_laplacian(g, 0.4)
            vals = np.linalg.eigvals(L_rw)
            assert np.abs(vals.imag).max() <= 1e-8
            # the similarity-transformed solve matches the actual matrix
            H_vals = np.sort(eigvalsh(system.H.toarray()))
            np.testing.assert_allclose(np.sort(vals.real), H_vals, atol=1e-8)
            # and scaling H back gives that matrix
            assert np.abs(supra_laplacian(system).toarray() - L_rw).max() <= 1e-12

    def test_zero_coupling_decouples(self):
        g = undirected_teg(7, n_max=6, M_max=4)
        system = build_supra(g, 0.0, "unnormalized")
        expected = []
        for W in g.snapshots:
            Wd = W.toarray()
            expected.extend(eigvalsh(np.diag(Wd.sum(axis=1)) - Wd))
        got = np.sort(eigvalsh(supra_laplacian(system).toarray()))
        np.testing.assert_allclose(got, np.sort(expected), atol=1e-8)

    def test_second_eigenvalue_monotone_in_coupling(self):
        g, _ = static_blocks(n=12, blocks=2, M=3, p_in=0.9, p_out=0.2, seed=9)
        previous = -np.inf
        for a in [0.0, 0.01, 0.1, 0.5, 1.0, 5.0]:
            system = build_supra(g, a, "unnormalized")
            lam2 = np.sort(eigvalsh(supra_laplacian(system).toarray()))[1]
            assert lam2 >= previous - 1e-10
            previous = lam2

    def test_unknown_variant(self):
        g = undirected_teg(4)
        with pytest.raises(ValueError):
            build_supra(g, 0.1, "rw")


class TestSupraCluster:
    def test_recovers_static_blocks(self):
        g, truth = static_blocks(n=30, blocks=2, M=3, p_in=0.9, p_out=0.02,
                                 seed=1)
        for variant in ("unnormalized", "normalized"):
            system = build_supra(g, 0.5, variant)
            res = supra_cluster(system, 2, seed=0)
            for t in range(3):
                from stgl import adjusted_rand_index
                assert adjusted_rand_index(res.labels[t], truth[t]) == 1.0

    def test_deterministic(self):
        g, _ = static_blocks(n=20, blocks=2, M=3, seed=2)
        system = build_supra(g, 0.3)
        a = supra_cluster(system, 2, seed=5)
        b = supra_cluster(system, 2, seed=5)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("k, match", [(2.0, "k must be an integer, got 2.0"),
                                          (True, "k must be an integer, got True"),
                                          (0, "k must be at least 1, got 0"),
                                          (-1, "k must be at least 1, got -1")])
    def test_bad_k_rejected_before_the_solve(self, monkeypatch, k, match):
        g, _ = static_blocks(seed=0)
        system = build_supra(g, 0.5)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before k was checked")

        monkeypatch.setattr(supra, "supra_spectrum", no_solve)
        with pytest.raises(ValueError, match=match):
            supra_cluster(system, k)

    @pytest.mark.parametrize("restarts, match", [
        (2.0, "restarts must be an integer, got 2.0"),
        (True, "restarts must be an integer, got True"),
        (0, "at least one k-means restart, got 0")])
    def test_bad_restarts_rejected_before_the_solve(self, monkeypatch, restarts,
                                                    match):
        system = build_supra(static_blocks(seed=0)[0], 0.5)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before restarts was checked")

        monkeypatch.setattr(supra, "supra_spectrum", no_solve)
        with pytest.raises(ValueError, match=match):
            supra_cluster(system, 2, restarts=restarts)


class TestSupraSystem:
    def test_rows_not_a_multiple_of_M_rejected(self):
        # 5 rows cannot fold into 2 views
        with pytest.raises(ValueError, match="H must be 2-d with a positive "
                                             "multiple of M=2 rows"):
            SupraSystem(M=2, H=np.eye(5), scale=np.ones(5))

    @pytest.mark.parametrize("M, match", [(0, "M must be at least 1, got 0"),
                                          (2.0, "M must be an integer, got 2.0"),
                                          (True, "M must be an integer, got True")])
    def test_M_not_a_positive_integer_rejected(self, M, match):
        with pytest.raises(ValueError, match=match):
            SupraSystem(M=M, H=np.eye(4), scale=np.ones(4))

    def test_non_square_H_rejected(self):
        with pytest.raises(ValueError, match=r"H must be square, got shape \(4, 6\)"):
            SupraSystem(M=2, H=np.ones((4, 6)), scale=np.ones(4))

    @pytest.mark.parametrize("scale", [np.ones(3), np.ones(5), np.ones((4, 1))],
                             ids=["short", "long", "2-d"])
    def test_scale_of_another_length_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must have length 4"):
            SupraSystem(M=2, H=np.eye(4), scale=scale)


@pytest.fixture()
def spectrum_calls(monkeypatch):
    """Spy on ``supra.supra_spectrum``; records the vectors of every call."""
    calls = []
    real = supra.supra_spectrum

    def spy(system, j):
        vals, vecs = real(system, j)
        calls.append(vecs)
        return vals, vecs

    monkeypatch.setattr(supra, "supra_spectrum", spy)
    return calls


class TestOnePass:
    def test_one_solve_with_at_most_M_temporal(self, spectrum_calls):
        for seed in range(12):
            g = undirected_teg(seed, n_max=30, M_max=5)
            for variant in ("unnormalized", "normalized"):
                for a in (1e-4, 0.05, 1.0, 10.0):
                    system = build_supra(g, a, variant)
                    for k in (1, 2, 3, 5):
                        spectrum_calls.clear()
                        try:
                            supra_cluster(system, k, seed=0, restarts=1)
                        except InsufficientSpatialEigenvectors:
                            # short only when the solve spanned the whole space
                            assert spectrum_calls[0].shape[1] == system.size
                        assert len(spectrum_calls) == 1
                        folded = spectrum_calls[0].T.reshape(-1, g.M, g.n)
                        tags = [classify_folded(f) for f in folded]
                        assert tags.count("temporal") <= g.M

    @pytest.mark.parametrize("variant", ["unnormalized", "normalized"])
    def test_short_single_pass_raises(self, spectrum_calls, variant):
        # N = 4: one constant and one temporal vector leave three others
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        system = build_supra(TimeEvolvingGraph([W, W]), 0.5, variant)
        with pytest.raises(InsufficientSpatialEigenvectors):
            supra_cluster(system, 4)
        assert len(spectrum_calls) == 1


class TestSpectrumOrderedOnce:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("graph", [lambda: gen_benchmark1(0)[0],
                                       lambda: static_blocks(seed=0)[0]],
                             ids=["benchmark1", "planted"])
    def test_bitwise_equal_to_solver_side_sort(self, graph, variant):
        # sorting every solve at the solver as well changes no output bit
        g = graph()
        for a in (0.0, 1e-4, 0.05, 10.0):
            system = build_supra(g, a, variant)
            j = 3 + g.M + 3  # the solve of supra_cluster at k = 3
            got = [x.tobytes() for x in supra_spectrum(system, j)]
            with solver_side_sort():
                assert [x.tobytes() for x in supra_spectrum(system, j)] == got

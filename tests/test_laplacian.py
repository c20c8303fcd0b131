import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from stgl import (ConvergenceFailure, TimeEvolvingGraph, adjusted_rand_index,
                  assemble_system, eigendecompose, laplacian, laplacian_spectrum,
                  propagate_densities, spectral_cluster, static_blocks)
from stgl.laplacian import symmetric_eigenpairs
from stgl.supra import classify_folded

from util import (arpack_two_converged, build_system, random_teg,
                  reference_symmetrized, transfer_operator_C)


@pytest.fixture()
def lanczos_calls(monkeypatch):
    """Records the size of every system handed to the Lanczos solver."""
    calls = []
    real = laplacian.eigsh

    def spy(A, *args, **kwargs):
        calls.append(A.shape[0])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(laplacian, "eigsh", spy)
    return calls


class TestAssembly:
    def test_single_vertex_two_views(self):
        g = TimeEvolvingGraph.from_dense([np.array([[1.0]])] * 2, directed=True)
        system = build_system(g, self_loops=False)
        np.testing.assert_array_equal(system.C.toarray(),
                                      [[0.0, 1.0], [1.0, 0.0]])

    def test_two_views_no_halving(self):
        g = random_teg(5, n_max=6, M_max=2)
        assert g.M == 2
        ops = propagate_densities(g)
        system = assemble_system(ops)
        K1 = ops.transition_dense(1)
        mu1, mu2 = ops.densities
        T1 = np.diag(1.0 / mu2) @ ops.transition_dense(1).T @ np.diag(mu1)
        C = system.C.toarray()
        n = g.n
        np.testing.assert_allclose(C[:n, n:], K1, atol=1e-14)
        np.testing.assert_allclose(C[n:, :n], T1, atol=1e-14)
        np.testing.assert_allclose(C[:n, :n], 0.0, atol=0)
        np.testing.assert_allclose(C[n:, n:], 0.0, atol=0)

    def test_interior_blocks_are_halved(self):
        g = random_teg(2, n_max=5, M_max=4)
        while g.M < 3:
            g = random_teg(g.n + 17, n_max=5, M_max=4)
        ops = propagate_densities(g)
        system = assemble_system(ops)
        n = g.n
        C = system.C.toarray()
        K2 = ops.transition_dense(2)
        np.testing.assert_allclose(C[n:2 * n, 2 * n:3 * n], 0.5 * K2, atol=1e-14)

    def test_row_stochastic(self):
        for seed in range(20):
            system = build_system(random_teg(seed))
            rows = np.asarray(system.C.sum(axis=1)).ravel()
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_A_exactly_symmetric(self):
        for seed in range(10):
            system = build_system(random_teg(seed))
            assert (system.A - system.A.T).count_nonzero() == 0

    def test_B_positive_diagonal(self):
        system = build_system(random_teg(1))
        assert system.B_diag.min() > 0

    def test_block_tridiagonal_sparsity(self):
        g = random_teg(8, n_max=6, M_max=5)
        system = build_system(g)
        n, M = g.n, g.M
        C = system.C.toarray()
        for s in range(M):
            for t in range(M):
                if abs(s - t) != 1:
                    block = C[s * n:(s + 1) * n, t * n:(t + 1) * n]
                    assert np.all(block == 0.0)

    def test_dual_route_agreement(self):
        # the library's covariance route B^-1 A against the Koopman and
        # reweighted Perron-Frobenius route assembled in tests/util.py
        for seed in range(10):
            g = random_teg(seed, n_max=10, M_max=4)
            ops = propagate_densities(g)
            system = assemble_system(ops)
            C_op = transfer_operator_C(ops).toarray()
            diff = np.abs(system.C.toarray() - C_op)
            assert diff.max() <= 1e-12


class TestEigendecompose:
    def test_two_by_two_analytic(self):
        g = TimeEvolvingGraph.from_dense([np.array([[1.0]])] * 2, directed=True)
        system = build_system(g, self_loops=False)
        emb = eigendecompose(system, 2)
        np.testing.assert_allclose(emb.eigenvalues, [1.0], atol=1e-12)
        full = eigendecompose(system, 2, full_spectrum=True)
        np.testing.assert_allclose(full.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_spectrum_symmetric_about_zero(self):
        for seed in range(10):
            system = build_system(random_teg(seed, n_max=8, M_max=4))
            emb = eigendecompose(system, system.size, full_spectrum=True)
            vals = np.sort(emb.eigenvalues)
            np.testing.assert_allclose(vals, -vals[::-1], atol=1e-8)

    def test_eigenvalues_real_and_contained(self):
        for seed in range(10):
            system = build_system(random_teg(seed, n_max=10))
            H = system.symmetrized()
            asym = abs(H - H.T)
            assert asym.nnz == 0 or asym.data.max() <= 1e-12
            emb = eigendecompose(system, min(6, system.size))
            assert np.all(emb.eigenvalues <= 1 + 1e-10)
            assert np.all(emb.eigenvalues >= -1e-10)

    def test_residuals(self):
        for seed in range(10):
            system = build_system(random_teg(seed, n_max=8, M_max=4))
            emb = eigendecompose(system, min(5, system.size))
            C = system.C
            for j, lam in enumerate(emb.eigenvalues):
                v = emb.vectors[:, j]
                resid = np.abs(C @ v - lam * v).max()
                assert resid <= 1e-8 * np.abs(v).max()

    def test_B_orthonormality(self):
        system = build_system(random_teg(11, n_max=8, M_max=4))
        emb = eigendecompose(system, min(6, system.size))
        V = emb.vectors
        gram = V.T @ (system.B_diag[:, None] * V)
        np.testing.assert_allclose(gram, np.eye(V.shape[1]), atol=1e-10)

    def test_matches_reference_decomposition(self):
        for seed in range(15):
            g = random_teg(seed, n_max=5, M_max=3)
            H_ref, _ = reference_symmetrized(g)
            ref = np.sort(np.linalg.eigvalsh(H_ref))[::-1]
            system = build_system(g)
            emb = eigendecompose(system, system.size, full_spectrum=True)
            np.testing.assert_allclose(emb.eigenvalues, ref, atol=1e-8)

    def test_sign_flip_pairing(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_teg(int(rng.integers(1000)), n_max=6, M_max=4)
            system = build_system(g)
            emb = eigendecompose(system, min(4, system.size))
            C = system.C
            n, M = g.n, g.M
            signs = np.repeat([(-1.0) ** t for t in range(M)], n)
            j = int(rng.integers(len(emb)))
            lam, v = emb.eigenvalues[j], emb.vectors[:, j]
            flipped = signs * v
            resid = np.abs(C @ flipped + lam * flipped).max()
            assert resid <= 1e-8 * np.abs(flipped).max()

    def test_m2_reduction(self):
        # for M = 2, every eigenpair satisfies K1 T1 f1 = lambda^2 f1
        for seed in range(10):
            g = random_teg(seed, n_max=8, M_max=2)
            ops = propagate_densities(g)
            system = assemble_system(ops)
            emb = eigendecompose(system, system.size)
            n = g.n
            K1 = ops.transition_dense(1)
            T1 = np.diag(1.0 / ops.densities[1]) @ K1.T @ np.diag(ops.densities[0])
            for j, lam in enumerate(emb.eigenvalues):
                f1 = emb.vectors[:n, j]
                resid = np.abs(K1 @ (T1 @ f1) - lam ** 2 * f1).max()
                assert resid <= 1e-8 * max(1.0, np.abs(f1).max())

    def test_forward_backward_block_equations(self):
        # top nonconstant eigenpair on a well-separated static benchmark
        g, _ = static_blocks(n=40, blocks=2, M=3, p_in=0.95, p_out=0.001, seed=5)
        ops = propagate_densities(g)
        system = assemble_system(ops)
        emb = eigendecompose(system, 4)
        j = next(i for i, tag in enumerate(emb.tags) if tag != "constant")
        lam, v = emb.eigenvalues[j], emb.vectors[:, j]
        assert lam > 0.99
        n, M = g.n, g.M
        f = [v[t * n:(t + 1) * n] for t in range(M)]
        K = [ops.transition_dense(t + 1) for t in range(M - 1)]
        T = [np.diag(1.0 / ops.densities[t + 1]) @ K[t].T @ np.diag(ops.densities[t])
             for t in range(M - 1)]
        scale = np.abs(f[0]).max()
        assert np.abs(K[0] @ f[1] - lam * f[0]).max() <= 0.05 * scale
        for t in range(1, M - 1):
            mid = 0.5 * T[t - 1] @ f[t - 1] + 0.5 * K[t] @ f[t + 1]
            assert np.abs(mid - lam * f[t]).max() <= 0.05

    def test_k_request_validation(self):
        system = build_system(random_teg(0, n_max=4, M_max=2))
        with pytest.raises(ValueError):
            eigendecompose(system, 0)
        with pytest.raises(ValueError):
            eigendecompose(system, system.size + 1)

    def test_iterative_path_matches_dense(self, monkeypatch, lanczos_calls):
        # force the Lanczos branch with a tiny dense cutoff
        g = random_teg(21, n_max=20, M_max=4)
        system = build_system(g)
        k = min(4, system.size - 2)
        dense = eigendecompose(system, k)
        assert lanczos_calls == []
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        sparse_path = eigendecompose(system, k)
        assert lanczos_calls == [system.size]
        np.testing.assert_allclose(sparse_path.eigenvalues,
                                   dense.eigenvalues, atol=1e-8)
        C = system.C
        for j, lam in enumerate(sparse_path.eigenvalues):
            v = sparse_path.vectors[:, j]
            assert np.abs(C @ v - lam * v).max() <= 1e-8 * np.abs(v).max()

    def test_iterative_path_is_deterministic(self, monkeypatch, lanczos_calls):
        # an unrelated Lanczos solve in between must not change the result
        g, _ = static_blocks(n=100, blocks=4, M=5, seed=0)
        system = build_system(g)
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        first = eigendecompose(system, 10)
        other = sparse.random(60, 60, density=0.2, random_state=1)
        eigsh(other + other.T, k=3)
        second = eigendecompose(system, 10)
        assert lanczos_calls == [system.size, system.size]
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.vectors, second.vectors)

    def test_krylov_basis_covering_the_space_is_dense(self, monkeypatch,
                                                      lanczos_calls):
        # with 3k >= N a 3k-vector Krylov basis would span the whole space
        system = build_system(random_teg(21, n_max=20, M_max=4))
        H, N = system.symmetrized(), system.size
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        symmetric_eigenpairs(H, -(-N // 3))
        assert lanczos_calls == []
        symmetric_eigenpairs(H, -(-N // 3) - 1)
        assert lanczos_calls == [N]

    def test_lanczos_above_cutoff_matches_dense(self, monkeypatch, lanczos_calls):
        # a system above the default cutoff takes the Lanczos branch and
        # reproduces the dense eigenvalues, tags and partition
        g, truth = static_blocks(n=200, blocks=4, M=5, seed=0)
        lanczos = spectral_cluster(g, 4, truth=truth)
        N = lanczos.system.size
        assert laplacian.DENSE_EIG_CUTOFF < N
        assert lanczos_calls == [N]
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 10 * N)
        dense = spectral_cluster(g, 4, truth=truth)
        assert lanczos_calls == [N]
        np.testing.assert_allclose(lanczos.embedding.eigenvalues,
                                   dense.embedding.eigenvalues, rtol=0, atol=1e-12)
        assert lanczos.embedding.tags == dense.embedding.tags
        assert adjusted_rand_index(lanczos.clustering.labels,
                                   dense.clustering.labels) == 1.0

    def test_lanczos_failure_reports_converged_pairs(self, monkeypatch):
        monkeypatch.setattr(laplacian, "eigsh", arpack_two_converged)
        system = build_system(static_blocks(n=100, blocks=4, M=5, seed=0)[0])
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        with pytest.raises(ConvergenceFailure) as err:
            symmetric_eigenpairs(system.symmetrized(), 7)
        assert err.value.converged == 2
        assert err.value.requested == 7


class TestTemporalDeflation:
    def test_per_view_constants_are_invariant(self):
        # H Q = Q T holds exactly, and T carries the closed-form temporal
        # eigenvalues cos(pi k / (M - 1))
        views = set()
        for seed in range(40):
            g = random_teg(seed, n_max=12)
            views.add(g.M)
            system = build_system(g)
            H = system.symmetrized()
            Q, T = system.temporal_basis()
            assert np.linalg.norm(H @ Q - Q @ T) <= 1e-12
            np.testing.assert_allclose(Q.T @ Q, np.eye(g.M), atol=1e-12)
            expected = np.cos(np.pi * np.arange(g.M) / (g.M - 1))
            assert np.abs(np.linalg.eigvalsh(T)[::-1] - expected).max() <= 1e-12
            emb = eigendecompose(system, system.size, full_spectrum=True)
            temporal = [ev for ev, tag in zip(emb.eigenvalues, emb.tags)
                        if tag != "spatial"]
            assert np.abs(np.array(temporal) - expected).max() <= 1e-12
        assert views == {2, 3, 4, 5, 6}

    def test_exact_tags_fold_constant_per_view(self):
        for seed in range(10):
            system = build_system(random_teg(seed, n_max=8))
            emb = eigendecompose(system, system.size, full_spectrum=True)
            assert emb.tags.count("constant") == 1
            assert emb.tags.count("temporal") == system.M - 1
            for folded, tag in zip(emb.folded, emb.tags):
                spread = np.ptp(folded, axis=1).max()
                if tag == "spatial":
                    # B-orthogonal to every per-view constant
                    weights = system.B_diag.reshape(system.M, system.n)
                    assert np.abs((weights * folded).sum(axis=1)).max() <= 1e-10
                else:
                    assert spread <= 1e-12 * np.abs(folded).max()


class TestLaplacianSpectrum:
    def test_values_in_range_and_symmetric_about_one(self):
        for seed in range(10):
            system = build_system(random_teg(seed, n_max=8, M_max=4))
            spec = laplacian_spectrum(system)
            assert spec.min() >= -1e-10
            assert spec.max() <= 2 + 1e-10
            np.testing.assert_allclose(np.sort(spec), np.sort(2.0 - spec),
                                       atol=1e-8)

    def test_extremes(self):
        g = TimeEvolvingGraph.from_dense([np.array([[1.0]])] * 2, directed=True)
        system = build_system(g, self_loops=False)
        np.testing.assert_allclose(laplacian_spectrum(system), [0.0, 2.0],
                                   atol=1e-12)


class TestFoldAndClassify:
    def test_constant_vector(self):
        assert classify_folded(np.ones((3, 4))) == "constant"

    def test_temporal_vector(self):
        folded = np.outer([1.0, 2.0, -1.0], np.ones(5))
        assert classify_folded(folded) == "temporal"

    def test_spatial_vector(self):
        folded = np.vstack([np.linspace(-1, 1, 6) for _ in range(3)])
        assert classify_folded(folded) == "spatial"



class TestCouplingGraph:
    def test_directed_edge_becomes_undirected(self):
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = TimeEvolvingGraph.from_dense([W, W], directed=True)
        ops = propagate_densities(g)
        A = assemble_system(ops).A
        assert (A - A.T).count_nonzero() == 0
        # edge (v0 -> v1) at view 1 couples copy 0@1 with copy 1@2
        assert A[[0], [3]] > 0 and A[[3], [0]] > 0

    def test_no_intra_layer_edges(self):
        g = random_teg(4, n_max=6, M_max=4)
        A = build_system(g).A.toarray()
        n = g.n
        for t in range(g.M):
            assert np.all(A[t * n:(t + 1) * n, t * n:(t + 1) * n] == 0.0)

    def test_edge_iff_transition_support(self):
        g = random_teg(9, n_max=6, M_max=3)
        ops = propagate_densities(g)
        A = assemble_system(ops).A.toarray()
        n = g.n
        for t in range(g.M - 1):
            S = ops.transition_dense(t + 1)
            block = A[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n]
            assert np.array_equal(block != 0, S != 0)

    def test_self_loops_couple_copies_across_views(self):
        from stgl import gen_line_graph
        g = gen_line_graph()
        A = build_system(g).A.toarray()
        n = g.n
        for t in range(g.M - 1):
            block = A[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n]
            assert np.all(np.diag(block) > 0)

import contextlib
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from stgl import (ConvergenceFailure, SpectralEmbedding, TimeEvolvingGraph,
                  ZeroOutDegree, adjusted_rand_index, assemble_system,
                  eigendecompose, gen_benchmark1, gen_benchmark2, gen_line_graph,
                  kmeans, laplacian, propagate_densities, select_spatial,
                  spectral_cluster, static_blocks)
from stgl.laplacian import eigenpair_order, symmetric_eigenpairs
from stgl.supra import classify_folded

from util import (arpack_two_converged, build_system, clique_coupling_graph,
                  fix_signs_by_column, random_teg, rank_one_coupling_graph,
                  reference_coupling, reference_eigendecompose,
                  reference_symmetrized, solver_side_sort, sort_eigenpairs_by_loop,
                  sparse_symmetrized, system_A, system_C, transfer_operator_C)


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
        g = TimeEvolvingGraph([np.array([[1.0]])] * 2, directed=True)
        system = build_system(g, self_loops=False)
        np.testing.assert_array_equal(system_C(system).toarray(),
                                      [[0.0, 1.0], [1.0, 0.0]])

    def test_two_views_no_halving(self):
        g = random_teg(5, n_max=6, M_max=2)
        assert g.M == 2
        ops = propagate_densities(g)
        system = assemble_system(ops)
        K1 = ops.transitions[0].toarray()
        mu1, mu2 = ops.densities
        T1 = np.diag(1.0 / mu2) @ ops.transitions[0].toarray().T @ np.diag(mu1)
        C = system_C(system).toarray()
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
        C = system_C(system).toarray()
        K2 = ops.transitions[1].toarray()
        np.testing.assert_allclose(C[n:2 * n, 2 * n:3 * n], 0.5 * K2, atol=1e-14)

    def test_row_stochastic(self):
        for seed in range(20):
            system = build_system(random_teg(seed))
            rows = np.asarray(system_C(system).sum(axis=1)).ravel()
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_A_exactly_symmetric(self):
        for seed in range(10):
            system = build_system(random_teg(seed))
            A = system_A(system)
            assert (A - A.T).count_nonzero() == 0

    def test_B_positive_diagonal(self):
        system = build_system(random_teg(1))
        assert system.B_diag.min() > 0

    def test_block_tridiagonal_sparsity(self):
        g = random_teg(8, n_max=6, M_max=5)
        system = build_system(g)
        n, M = g.n, g.M
        C = system_C(system).toarray()
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
            diff = np.abs(system_C(system).toarray() - C_op)
            assert diff.max() <= 1e-12


class TestEigendecompose:
    def test_two_by_two_analytic(self):
        g = TimeEvolvingGraph([np.array([[1.0]])] * 2, directed=True)
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
            assert np.abs(H - H.T).max() <= 1e-12
            emb = eigendecompose(system, min(6, system.size))
            assert np.all(emb.eigenvalues <= 1 + 1e-10)
            assert np.all(emb.eigenvalues >= -1e-10)

    def test_residuals(self):
        for seed in range(10):
            system = build_system(random_teg(seed, n_max=8, M_max=4))
            emb = eigendecompose(system, min(5, system.size))
            C = system_C(system)
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
            C = system_C(system)
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
            K1 = ops.transitions[0].toarray()
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
        K = [ops.transitions[t].toarray() for t in range(M - 1)]
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

    @pytest.mark.parametrize("k_request, match", [
        (2.0, "k_request must be an integer, got 2.0"),
        (True, "k_request must be an integer, got True")])
    def test_k_request_must_be_an_integer(self, k_request, match):
        # a float used to fail as a slice index, and True was taken as 1
        system = build_system(static_blocks(seed=0)[0])
        with pytest.raises(ValueError, match=match):
            eigendecompose(system, k_request)

    def test_iterative_path_matches_dense(self, monkeypatch, lanczos_calls):
        # force the Lanczos branch with a tiny dense cutoff
        g = random_teg(21, n_max=20, M_max=4)
        system = build_system(g)
        k = min(4, system.size - 2)
        dense = eigendecompose(system, k)
        assert lanczos_calls == []
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        sparse_path = eigendecompose(system, k)
        # one Lanczos solve, on the odd-view Gram matrix of the coupling
        assert lanczos_calls == [system.n * (system.M // 2)]
        np.testing.assert_allclose(sparse_path.eigenvalues,
                                   dense.eigenvalues, atol=1e-8)
        C = system_C(system)
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
        assert lanczos_calls == [system.n * (system.M // 2)] * 2
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
        N = g.M * g.n
        assert laplacian.DENSE_EIG_CUTOFF < N
        assert lanczos_calls == [g.n * (g.M // 2)]
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 10 * N)
        dense = spectral_cluster(g, 4, truth=truth)
        assert lanczos_calls == [g.n * (g.M // 2)]
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


class TestEigenpairOrder:
    @pytest.mark.parametrize("largest", [True, False], ids=["largest", "smallest"])
    @pytest.mark.parametrize("cutoff", [laplacian.DENSE_EIG_CUTOFF, 1],
                             ids=["dense", "lanczos"])
    def test_solver_returns_ascending_sign_fixed_pairs(self, largest, cutoff,
                                                       monkeypatch, lanczos_calls):
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", cutoff)
        for seed in range(10):
            H = build_system(random_teg(seed, n_max=30)).symmetrized()
            N = H.shape[0]
            k = max(1, N // 4)  # 3k < N: a cutoff of 1 takes Lanczos
            vals, vecs = symmetric_eigenpairs(H, k, largest=largest)
            assert np.all(np.diff(vals) >= 0)
            exact = np.linalg.eigvalsh(H)
            np.testing.assert_allclose(vals, exact[N - k:] if largest else exact[:k],
                                       rtol=0, atol=1e-10)
            mag = np.abs(vecs)
            first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
            assert np.all(vecs[first, np.arange(k)] > 0)
        assert len(lanczos_calls) == (10 if cutoff == 1 else 0)

    def test_sign_fix_matches_the_column_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vecs = rng.standard_normal((7, 9)) * (rng.random((7, 9)) < 0.6)
            vecs[:, 1] = 0.0  # no entry counts
            vecs[:, 2] = -0.0
            vecs[0, 3] = -1e-14 * np.abs(vecs[:, 3]).max()  # below the threshold
            vecs[4, 4] = np.nan  # a NaN maximum: no entry counts
            vecs[5, 5] = -np.inf  # an infinite maximum: no entry counts
            vecs[:2, 6] = [-0.0, 0.0]
            got = laplacian._fix_signs(vecs.copy())
            assert got.tobytes() == fix_signs_by_column(vecs.copy()).tobytes()

    @pytest.mark.parametrize("descending", [True, False])
    def test_order_matches_the_loop_in_any_arrival_order(self, descending):
        rng = np.random.default_rng(1)
        vals = np.array([0.5, 1.0, 0.5, np.inf, -0.0, 0.0, 0.5, np.nan, 1.0, np.inf])
        vecs = rng.standard_normal((4, len(vals)))
        vecs[0, [0, 2]] = 0.25  # a tie the second row decides
        want = None
        for _ in range(30):
            perm = rng.permutation(len(vals))
            v, V = vals[perm], vecs[:, perm]
            order = eigenpair_order(v, V, descending=descending)
            got = v[order].tobytes(), V[:, order].tobytes()
            ref_vals, ref_vecs = sort_eigenpairs_by_loop(v, V, descending)
            assert got == (ref_vals.tobytes(), ref_vecs.tobytes())
            assert want in (None, got)
            want = got


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

    def test_dense_deflation_matches_one_piece_product(self, monkeypatch):
        # N = 300 takes the dense branch, and the block-wise deflation has
        # the bits of the one-piece product
        g, _ = static_blocks(n=60, blocks=2, M=5, seed=0)
        system = build_system(g)
        solved = []
        real = laplacian.symmetric_eigenpairs

        def spy(H, k, **kwargs):
            solved.append(real(H, k, **kwargs))
            return solved[-1]

        monkeypatch.setattr(laplacian, "symmetric_eigenpairs", spy)
        eigendecompose(system, 20)
        Q, T = system.temporal_basis()
        H = sparse_symmetrized(system).toarray()
        H -= Q @ (T + 2.0 * np.eye(system.M)) @ Q.T
        (vals, vecs), = solved
        ref_vals, ref_vecs = real(H, 20)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


@pytest.fixture(scope="module")
def symmetrized_systems():
    """Every system of random_teg seeds 0-59, the line graph and static_blocks
    with M = 2, 3, 5 and 10, with and without self-loops, that propagates."""
    graphs = ([random_teg(seed) for seed in range(60)] + [gen_line_graph()]
              + [static_blocks(M=M)[0] for M in (2, 3, 5, 10)])
    systems = []
    for g in graphs:
        for self_loops in (True, False):
            with contextlib.suppress(ZeroOutDegree):
                systems.append(build_system(g, self_loops=self_loops))
    return systems


class TestDenseSymmetrized:
    def test_bitwise_equal_to_the_sparse_construction(self, symmetrized_systems):
        # int64 views, so a -0.0 against a 0.0 counts as a difference
        assert len(symmetrized_systems) == 116
        for system in symmetrized_systems:
            H = system.symmetrized()
            assert H.dtype == np.float64 and H.shape == (system.size,) * 2
            ref = sparse_symmetrized(system).toarray()
            assert np.array_equal(H.view(np.int64), ref.view(np.int64))

    def test_dense_branch_bitwise_equal_with_the_sparse_construction(
            self, symmetrized_systems, monkeypatch):
        systems = symmetrized_systems
        assert max(system.size for system in systems) <= laplacian.DENSE_EIG_CUTOFF
        ours = [eigendecompose(system, min(system.size, 12), full_spectrum=True)
                for system in systems]
        monkeypatch.setattr(laplacian.SpatioTemporalSystem, "symmetrized",
                            lambda system: sparse_symmetrized(system).toarray())
        for system, emb in zip(systems, ours):
            ref = eigendecompose(system, min(system.size, 12), full_spectrum=True)
            assert np.array_equal(emb.eigenvalues, ref.eigenvalues)
            assert np.array_equal(emb.vectors, ref.vectors)
            assert emb.tags == ref.tags


def embedding_bytes(system, k_request, full_spectrum):
    emb = eigendecompose(system, min(k_request, system.size),
                         full_spectrum=full_spectrum)
    return emb.eigenvalues.tobytes(), emb.vectors.tobytes(), emb.tags


class TestOrderedOnce:
    """Sorting every solve at the solver as well changes no output bit."""

    @pytest.mark.parametrize("cutoff", [laplacian.DENSE_EIG_CUTOFF, 1],
                             ids=["default-cutoff", "coupling-route"])
    def test_random_graphs(self, symmetrized_systems, cutoff, monkeypatch):
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", cutoff)
        for system in symmetrized_systems:
            for k, full in ((12, True), (12, False), (30, True)):
                got = embedding_bytes(system, k, full)
                with solver_side_sort():
                    assert embedding_bytes(system, k, full) == got

    @pytest.mark.parametrize("graph, self_loops, cutoff", [
        (lambda: gen_benchmark1(0)[0], True, None),
        (lambda: gen_benchmark1(3)[0], True, None),
        (lambda: gen_benchmark2(0)[0], True, None),
        (lambda: clique_coupling_graph()[0], True, None),
        (rank_one_coupling_graph, False, 1),
        (rank_one_coupling_graph, True, 1),
    ], ids=["benchmark1-0", "benchmark1-3", "benchmark2", "clique",
            "rank-one", "rank-one-self-loops"])
    def test_named_graphs(self, graph, self_loops, cutoff, monkeypatch):
        if cutoff is not None:
            monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", cutoff)
        system = build_system(graph(), self_loops=self_loops)
        for k, full in ((4, False), (12, True), (12, False), (30, True)):
            got = embedding_bytes(system, k, full)
            with solver_side_sort():
                assert embedding_bytes(system, k, full) == got


def even_views_first(system):
    """Row order of the symmetrized system with the even views first."""
    n, M = system.n, system.M
    views = np.r_[0:M:2, 1:M:2]
    return (views[:, None] * n + np.arange(n)).ravel()


def assert_matches_reference(system, k, lanczos_calls):
    """The coupling route against the full-system deflated Lanczos oracle."""
    k_request = min(system.size, k + system.M + 3)
    ours = eigendecompose(system, k_request)
    assert lanczos_calls == [system.n * (system.M // 2)]
    ref = reference_eigendecompose(system, k_request)
    np.testing.assert_allclose(ours.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12)
    assert ours.tags == ref.tags
    labels = [kmeans(emb.vectors[:, list(select_spatial(emb.tags, k))], k,
                     views=system.M).labels
              for emb in (ours, ref)]
    assert adjusted_rand_index(*labels) == 1.0
    V = ours.vectors
    residual = np.abs(system_C(system) @ V - V * ours.eigenvalues).max(axis=0)
    assert np.all(residual <= 1e-8 * np.abs(V).max(axis=0))
    gram = V.T @ (system.B_diag[:, None] * V)
    np.testing.assert_allclose(gram, np.eye(len(ours)), rtol=0, atol=1e-10)


class TestCouplingRoute:
    def test_symmetrized_is_bipartite_in_the_coupling(self):
        for seed in range(10):
            system = build_system(random_teg(seed, n_max=10))
            order = even_views_first(system)
            H = system.symmetrized()[np.ix_(order, order)]
            X = system.coupling().toarray()
            even = X.shape[0]
            assert X.shape == (system.n * ((system.M + 1) // 2),
                               system.n * (system.M // 2))
            np.testing.assert_allclose(H[:even, even:], X, rtol=0, atol=1e-15)
            assert not H[:even, :even].any() and not H[even:, even:].any()

    @pytest.mark.parametrize("graph,k", [
        (lambda: gen_benchmark1(0)[0], 3),
        (lambda: gen_benchmark2(0)[0], 4),
        # odd M: the even side has one more view than the odd Gram side
        (lambda: static_blocks(n=300, blocks=3, M=3, seed=0)[0], 3),
        (lambda: static_blocks(n=200, blocks=4, M=5, seed=0)[0], 4),
    ], ids=["benchmark1", "benchmark2", "static-M3", "static-M5"])
    def test_matches_full_system_lanczos(self, graph, k, lanczos_calls):
        system = build_system(graph())
        assert system.size > laplacian.DENSE_EIG_CUTOFF
        assert_matches_reference(system, k, lanczos_calls)

    def test_matches_full_system_lanczos_on_random_graphs(self, monkeypatch,
                                                          lanczos_calls):
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        solved = 0
        for seed in range(12):
            system = build_system(random_teg(seed, n_max=40))
            if 3 * min(2 + system.M + 3, system.size - system.M) >= system.size:
                continue  # too small for Lanczos: the dense branch solves it
            assert_matches_reference(system, 2, lanczos_calls)
            lanczos_calls.clear()
            solved += 1
        assert solved >= 8

    @pytest.mark.parametrize("graph", [
        lambda: gen_benchmark1(0)[0], lambda: gen_benchmark2(0)[0],
        lambda: static_blocks(n=300, blocks=3, M=3, seed=0)[0],
        lambda: static_blocks(n=200, blocks=4, M=5, seed=0)[0],
    ] + [lambda seed=seed: random_teg(seed) for seed in range(12)],
        ids=["benchmark1", "benchmark2", "static-M3", "static-M5"]
        + [f"random-{seed}" for seed in range(12)])
    def test_coupling_is_the_scaled_slice_of_A(self, graph):
        system = build_system(graph())
        X, ref = system.coupling(), reference_coupling(system)
        assert X.shape == ref.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(X, part), getattr(ref, part))

    def test_rank_deficient_coupling_matches_reference_and_dense(
            self, monkeypatch, lanczos_calls):
        # rows of the first view are identical within each clique, so X has
        # rank 3: one constant and two spatial singular values, and the
        # remaining requested pairs lift from the Gram null space
        graph, groups = clique_coupling_graph()
        system = build_system(graph)
        assert system.size > laplacian.DENSE_EIG_CUTOFF
        assert np.linalg.matrix_rank(system.coupling().toarray()) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(system, 3, lanczos_calls)
            ours = eigendecompose(system, 8)
            lanczos = spectral_cluster(graph, 3, truth=[groups, groups])
            monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 10 * system.size)
            dense = eigendecompose(system, 8)
            dense_result = spectral_cluster(graph, 3, truth=[groups, groups])
        np.testing.assert_allclose(ours.eigenvalues, dense.eigenvalues,
                                   rtol=0, atol=1e-12)
        assert ours.tags == dense.tags
        assert np.count_nonzero(ours.eigenvalues == 0.0) == 5
        assert lanczos.ari_per_view == dense_result.ari_per_view == (1.0, 1.0)

    def test_rank_one_coupling_lifts_null_vectors(self, monkeypatch,
                                                  lanczos_calls):
        # without self-loops an all-ones snapshot has uniform transition
        # rows, so X has no positive singular value off the constants and
        # every spatial pair is a null vector [0; v] of H
        system = build_system(rank_one_coupling_graph(), self_loops=False)
        assert np.linalg.matrix_rank(system.coupling().toarray()) == 1
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(system, 1, lanczos_calls)
            emb = eigendecompose(system, 4)
        assert emb.tags == ("constant", "spatial", "spatial", "spatial")
        np.testing.assert_array_equal(emb.eigenvalues, [1.0, 0.0, 0.0, 0.0])
        assert not emb.folded[1:, 0].any()

    def test_null_lifts_keep_positive_zeros(self):
        # the Gram vectors are sign-fixed before the lift, so the second fix
        # never flips a null vector [0; v] and its even view stays +0.0
        emb = eigendecompose(build_system(clique_coupling_graph()[0]), 8)
        even = emb.folded[emb.eigenvalues == 0.0][:, 0]
        assert len(even) == 5 and not even.any()
        assert not np.signbit(even).any()

    def test_inaccurate_lifts_are_refused(self, monkeypatch):
        # Gram pairs claimed near 0 on vectors X does not annihilate, or NaN,
        # are not eigenpairs of H
        system = build_system(rank_one_coupling_graph())  # self-loops: full rank
        q_odd = system.temporal_basis()[0][system.n:, 1]
        basis = np.linalg.qr(np.column_stack([q_odd, np.eye(system.n)[:, :4]]))[0]
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        for w in (1e-17, np.nan):
            monkeypatch.setattr(laplacian, "eigsh", lambda op, k, **kwargs: (
                np.full(k, w), basis[:, 1:k + 1]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConvergenceFailure) as err:
                    eigendecompose(system, 4)
            assert err.value.converged == 0
            assert err.value.requested == 4


class TestLaplacianSpectrum:
    def test_extremes(self):
        g = TimeEvolvingGraph([np.array([[1.0]])] * 2, directed=True)
        system = build_system(g, self_loops=False)
        spectrum = 1.0 - np.linalg.eigvalsh(system.symmetrized())
        np.testing.assert_allclose(np.sort(spectrum), [0.0, 2.0], atol=1e-12)


class TestSpectralEmbedding:
    def test_folds_by_M_alone(self):
        vectors = np.arange(12.0).reshape(6, 2)
        emb = SpectralEmbedding(M=3, eigenvalues=np.ones(2), vectors=vectors,
                                tags=("constant", "spatial"))
        assert emb.folded.shape == (2, 3, 2)
        assert np.array_equal(emb.folded[1], vectors[:, 1].reshape(3, 2))

    def test_rows_not_a_multiple_of_M_rejected(self):
        # 5 rows cannot fold into 2 views
        with pytest.raises(ValueError, match="vectors must be 2-d with a positive "
                                             "multiple of M=2 rows"):
            SpectralEmbedding(M=2, eigenvalues=np.ones(2), vectors=np.ones((5, 2)),
                              tags=("spatial",) * 2)

    @pytest.mark.parametrize("M, match", [(0, "M must be at least 1, got 0"),
                                          (-2, "M must be at least 1, got -2"),
                                          (2.0, "M must be an integer, got 2.0"),
                                          (True, "M must be an integer, got True")])
    def test_M_not_a_positive_integer_rejected(self, M, match):
        with pytest.raises(ValueError, match=match):
            SpectralEmbedding(M=M, eigenvalues=np.ones(1), vectors=np.ones((4, 1)),
                              tags=("spatial",))

    @pytest.mark.parametrize("values, tags", [(np.ones(1), ("spatial",) * 2),
                                              (np.ones(2), ("spatial",)),
                                              (np.ones(3), ("spatial",) * 3)],
                             ids=["eigenvalues", "tags", "columns"])
    def test_counts_that_differ_rejected(self, values, tags):
        with pytest.raises(ValueError, match="differ in count"):
            SpectralEmbedding(M=2, eigenvalues=values, vectors=np.ones((4, 2)),
                              tags=tags)


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
        g = TimeEvolvingGraph([W, W], directed=True)
        ops = propagate_densities(g)
        A = system_A(assemble_system(ops))
        assert (A - A.T).count_nonzero() == 0
        # edge (v0 -> v1) at view 1 couples copy 0@1 with copy 1@2
        assert A[[0], [3]] > 0 and A[[3], [0]] > 0

    def test_no_intra_layer_edges(self):
        g = random_teg(4, n_max=6, M_max=4)
        A = system_A(build_system(g)).toarray()
        n = g.n
        for t in range(g.M):
            assert np.all(A[t * n:(t + 1) * n, t * n:(t + 1) * n] == 0.0)

    def test_edge_iff_transition_support(self):
        g = random_teg(9, n_max=6, M_max=3)
        ops = propagate_densities(g)
        A = system_A(assemble_system(ops)).toarray()
        n = g.n
        for t in range(g.M - 1):
            S = ops.transitions[t].toarray()
            block = A[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n]
            assert np.array_equal(block != 0, S != 0)

    def test_self_loops_couple_copies_across_views(self):
        g = gen_line_graph()
        A = system_A(build_system(g)).toarray()
        n = g.n
        for t in range(g.M - 1):
            block = A[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n]
            assert np.all(np.diag(block) > 0)

import numpy as np
import pytest

from stgl import (DensityVanished, OperatorSequence, TimeEvolvingGraph,
                  ZeroOutDegree, ZeroVariance, correlation,
                  covariance_matrices, gen_line_graph, koopman_apply,
                  propagate_densities, reweighted_pf_apply, row_normalize)

from util import random_teg


class TestRowNormalize:
    def test_identity_already_stochastic(self):
        assert np.array_equal(row_normalize(np.eye(2)), np.eye(2))

    def test_permutation_matrix(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(row_normalize(P), P)

    def test_line_graph_row_v2(self):
        # view 1 with unit self-loops: row of vertex 1 has weights
        # (to v0) 1, (self) 1, (to v2) 0.01
        ops = propagate_densities(gen_line_graph())
        S1 = ops.transition_dense(1)
        expected = np.array([1, 1, 0.01, 0, 0, 0]) / 2.01
        np.testing.assert_allclose(S1[1], expected, atol=1e-15)

    def test_zero_row_raises(self):
        W = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroOutDegree) as err:
            row_normalize(W)
        assert err.value.vertex == 1

    def test_rows_sum_to_one_random(self):
        for seed in range(10):
            g = random_teg(seed)
            ops = propagate_densities(g)
            for S in ops.transitions:
                rows = np.asarray(S.sum(axis=1)).ravel()
                np.testing.assert_allclose(rows, 1.0, atol=1e-12)
                assert S.toarray().min() >= 0.0
                assert S.toarray().max() <= 1.0 + 1e-15


class TestPropagateDensities:
    def test_doubly_stochastic_preserves_uniform(self):
        g = TimeEvolvingGraph.from_dense(
            [np.array([[0.0, 1.0], [1.0, 0.0]])] * 2, directed=True)
        ops = propagate_densities(g, self_loops=False)
        np.testing.assert_allclose(ops.densities[1], [0.5, 0.5], atol=1e-15)

    def test_hand_computed_propagation(self):
        S = np.array([[1.0, 0.0], [0.5, 0.5]])
        mu2 = S.T @ np.array([0.5, 0.5])
        np.testing.assert_allclose(mu2, [0.75, 0.25], atol=1e-15)
        g = TimeEvolvingGraph.from_dense([S, S], directed=True)
        ops = propagate_densities(g, self_loops=False)
        np.testing.assert_allclose(ops.densities[1], [0.75, 0.25], atol=1e-15)

    def test_mass_conserved(self):
        for seed in range(10):
            ops = propagate_densities(random_teg(seed))
            for mu in ops.densities:
                assert abs(mu.sum() - 1.0) < 1e-12
                assert mu.min() > 0

    def test_propagation_identity(self):
        for seed in range(10):
            ops = propagate_densities(random_teg(seed))
            for t in range(ops.M - 1):
                expected = ops.transitions[t].T @ ops.densities[t]
                np.testing.assert_allclose(ops.densities[t + 1], expected,
                                           atol=1e-12)

    def test_custom_initial_density_validated(self):
        g = random_teg(3)
        with pytest.raises(ValueError):
            propagate_densities(g, mu1=np.zeros(g.n))

    def test_density_floor_raises(self):
        g = random_teg(4)
        with pytest.raises(DensityVanished):
            propagate_densities(g, floor=1.0)

    def test_zero_out_degree_reports_view(self):
        W1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        W2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = TimeEvolvingGraph.from_dense([W1, W2], directed=True)
        with pytest.raises(ZeroOutDegree) as err:
            propagate_densities(g, self_loops=False)
        assert err.value.view == 2


class TestKoopman:
    def test_constant_function_fixed(self):
        for seed in range(5):
            ops = propagate_densities(random_teg(seed))
            ones = np.ones(ops.n)
            for S in ops.transitions:
                np.testing.assert_allclose(koopman_apply(S, ones), ones,
                                           atol=1e-12)

    def test_permutation(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(koopman_apply(S, [1.0, -1.0]), [-1.0, 1.0])

    def test_hand_product(self):
        S = np.array([[1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_allclose(koopman_apply(S, [2.0, 0.0]), [2.0, 1.0])


class TestReweightedPF:
    def test_constant_function_fixed(self):
        for seed in range(5):
            ops = propagate_densities(random_teg(seed))
            ones = np.ones(ops.n)
            for t in range(ops.M - 1):
                out = reweighted_pf_apply(ops.transitions[t], ops.densities[t],
                                          ops.densities[t + 1], ones)
                np.testing.assert_allclose(out, ones, atol=1e-12)

    def test_identity_dynamics(self):
        S = np.eye(3)
        mu = np.array([0.2, 0.3, 0.5])
        u = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(reweighted_pf_apply(S, mu, mu, u), u)

    def test_swap_dynamics_against_explicit_matrix(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        mu_t = np.array([0.25, 0.75])
        mu_next = S.T @ mu_t
        np.testing.assert_allclose(mu_next, [0.75, 0.25])
        T = np.diag(1.0 / mu_next) @ S.T @ np.diag(mu_t)
        np.testing.assert_allclose(T, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        out = reweighted_pf_apply(S, mu_t, mu_next, [4.0, 0.0])
        np.testing.assert_allclose(out, T @ [4.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out, [0.0, 4.0], atol=1e-15)

    def test_random_against_explicit_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            S = row_normalize(rng.random((n, n)) + 0.01)
            mu = rng.random(n) + 0.1
            mu /= mu.sum()
            mu_next = S.T @ mu
            u = rng.standard_normal(n)
            T = np.diag(1.0 / mu_next) @ S.T @ np.diag(mu)
            np.testing.assert_allclose(
                reweighted_pf_apply(S, mu, mu_next, u), T @ u, atol=1e-12)

    def test_vanished_density_raises(self):
        S = np.eye(2)
        with pytest.raises(DensityVanished):
            reweighted_pf_apply(S, np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                                np.ones(2))

    def test_nan_density_raises(self):
        with pytest.raises(DensityVanished):
            reweighted_pf_apply(np.eye(2), np.array([0.5, 0.5]),
                                np.array([np.nan, 0.5]), np.ones(2))


class TestCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        C = np.diag(rng.random(4) + 0.1)
        f = rng.standard_normal(4)
        assert correlation(f, f, C, C, C) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = random_teg(int(rng.integers(100)), n_max=6)
            ops = propagate_densities(g)
            C_tt, C_cross, C_next = covariance_matrices(ops, 1)
            f = rng.standard_normal(ops.n)
            h = rng.standard_normal(ops.n)
            base = correlation(f, h, C_cross, C_tt, C_next)
            lam, rho = rng.random(2) + 0.1
            scaled = correlation(lam * f, rho * h, C_cross, C_tt, C_next)
            assert scaled == pytest.approx(base, abs=1e-10)

    def test_anticorrelated_identity_dynamics(self):
        # identity transitions, uniform density: C_cross = D_mu
        S = np.eye(2)
        g = TimeEvolvingGraph.from_dense([S, S], directed=True)
        ops = propagate_densities(g, self_loops=False)
        C_tt, C_cross, C_next = covariance_matrices(ops, 1)
        value = correlation([1.0, -1.0], [-1.0, 1.0], C_cross, C_tt, C_next)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_raises(self):
        C = np.eye(2)
        with pytest.raises(ZeroVariance):
            correlation([0.0, 0.0], [1.0, 1.0], C, C, C)


class TestOperatorSequenceValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            OperatorSequence(transitions=(np.array([[0.5, 0.4], [0.5, 0.5]]),),
                             densities=(np.array([0.5, 0.5]),))

    def test_rejects_broken_propagation(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            OperatorSequence(transitions=(S, S),
                             densities=(np.array([0.25, 0.75]),
                                        np.array([0.25, 0.75])))

    @pytest.mark.parametrize("S, mu", [
        (np.array([[np.nan, 1.0], [0.5, 0.5]]), np.array([0.5, 0.5])),
        (np.eye(2), np.array([np.nan, 0.5])),
        (np.eye(2), np.full(2, np.nan)),
    ], ids=["nan-transition", "nan-density", "all-nan-density"])
    def test_rejects_nan(self, S, mu):
        with pytest.raises(ValueError):
            OperatorSequence(transitions=(S,), densities=(mu,))

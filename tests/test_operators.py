import numpy as np
import pytest
from scipy import sparse

from stgl import (DensityVanished, OperatorSequence, TimeEvolvingGraph,
                  ZeroOutDegree, gen_line_graph, propagate_densities,
                  row_normalize)

from util import random_teg


class TestRowNormalize:
    def test_identity_already_stochastic(self):
        S = row_normalize(sparse.csr_array(np.eye(2)))
        assert np.array_equal(S.toarray(), np.eye(2))

    def test_permutation_matrix(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(row_normalize(sparse.csr_array(P)).toarray(), P)

    def test_line_graph_row_v2(self):
        # view 1 with unit self-loops: row of vertex 1 has weights
        # (to v0) 1, (self) 1, (to v2) 0.01
        ops = propagate_densities(gen_line_graph())
        S1 = ops.transitions[0].toarray()
        expected = np.array([1, 1, 0.01, 0, 0, 0]) / 2.01
        np.testing.assert_allclose(S1[1], expected, atol=1e-15)

    def test_zero_row_raises(self):
        W = sparse.csr_array(np.array([[1.0, 0.0], [0.0, 0.0]]))
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

    def test_density_floor_raises(self):
        # all mass moves to vertex 1, so vertex 0 is empty at view 2
        W = np.array([[0.0, 1.0], [0.0, 1.0]])
        g = TimeEvolvingGraph.from_dense([W, W], directed=True)
        with pytest.raises(DensityVanished) as err:
            propagate_densities(g, self_loops=False)
        assert (err.value.view, err.value.vertex) == (2, 0)

    def test_zero_out_degree_reports_view(self):
        W1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        W2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = TimeEvolvingGraph.from_dense([W1, W2], directed=True)
        with pytest.raises(ZeroOutDegree) as err:
            propagate_densities(g, self_loops=False)
        assert err.value.view == 2


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

    def test_rejects_missing_density(self):
        with pytest.raises(ValueError, match="one density per view"):
            OperatorSequence(transitions=(np.eye(2), np.eye(2)),
                             densities=(np.array([0.5, 0.5]),))

    @pytest.mark.parametrize("S, mu", [
        (np.array([[np.nan, 1.0], [0.5, 0.5]]), np.array([0.5, 0.5])),
        (np.eye(2), np.array([np.nan, 0.5])),
        (np.eye(2), np.full(2, np.nan)),
    ], ids=["nan-transition", "nan-density", "all-nan-density"])
    def test_rejects_nan(self, S, mu):
        with pytest.raises(ValueError):
            OperatorSequence(transitions=(S,), densities=(mu,))

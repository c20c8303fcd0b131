from unittest import mock

import numpy as np
import pytest
from scipy import sparse

from stgl import (DensityVanished, OperatorSequence, TimeEvolvingGraph,
                  ZeroOutDegree, gen_benchmark1, gen_benchmark2, gen_line_graph,
                  propagate_densities, row_normalize, spectral_cluster,
                  static_blocks)
from stgl.operators import scale_rows

from util import random_teg, reverse_rows, with_self_loops


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
        g = TimeEvolvingGraph([np.array([[0.0, 1.0], [1.0, 0.0]])] * 2, directed=True)
        ops = propagate_densities(g, self_loops=False)
        np.testing.assert_allclose(ops.densities[1], [0.5, 0.5], atol=1e-15)

    def test_hand_computed_propagation(self):
        S = np.array([[1.0, 0.0], [0.5, 0.5]])
        mu2 = S.T @ np.array([0.5, 0.5])
        np.testing.assert_allclose(mu2, [0.75, 0.25], atol=1e-15)
        g = TimeEvolvingGraph([S, S], directed=True)
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
        g = TimeEvolvingGraph([W, W], directed=True)
        with pytest.raises(DensityVanished) as err:
            propagate_densities(g, self_loops=False)
        assert (err.value.view, err.value.vertex) == (2, 0)

    def test_builds_no_second_graph(self):
        g = random_teg(0)
        with mock.patch.object(TimeEvolvingGraph, "__post_init__",
                               autospec=True) as post_init:
            propagate_densities(g)
            propagate_densities(g, self_loops=False)
        assert post_init.call_count == 0

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_bitwise_equal_to_the_self_looped_graph(self, self_loops):
        # the oracle: row_normalize over a second, self-looped graph
        graphs = [random_teg(seed) for seed in range(60)]
        graphs += [gen_benchmark1(0)[0], gen_benchmark2(0)[0]]
        for g in graphs:
            try:
                ops = propagate_densities(g, self_loops=self_loops)
            except (ZeroOutDegree, DensityVanished):
                assert not self_loops
                continue
            looped = with_self_loops(g) if self_loops else g
            for S, W in zip(ops.transitions, looped.snapshots):
                want = row_normalize(W)
                for name in ("indptr", "indices", "data"):
                    got, expected = getattr(S, name), getattr(want, name)
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()
            mu = np.full(g.n, 1.0 / g.n)
            for t, density in enumerate(ops.densities):
                if t:
                    mu = row_normalize(looped.snapshots[t - 1]).T @ mu
                assert density.tobytes() == mu.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_weights_of_any_dtype_are_stored_as_float64(self, dtype):
        base, _ = static_blocks(seed=0)
        weights = [(4 * W).ceil() if dtype == np.int64 else W
                   for W in base.snapshots]
        g = TimeEvolvingGraph([W.astype(dtype) for W in weights])
        as_float64 = TimeEvolvingGraph([W.astype(dtype).astype(np.float64)
                                        for W in weights])
        assert all(W.dtype == np.float64 for W in g.snapshots)
        for self_loops in (True, False):
            got = spectral_cluster(g, 2, self_loops=self_loops)
            want = spectral_cluster(as_float64, 2, self_loops=self_loops)
            assert np.array_equal(got.clustering.labels, want.clustering.labels)
            assert got.embedding.eigenvalues.tobytes() == want.embedding.eigenvalues.tobytes()
            assert got.embedding.vectors.tobytes() == want.embedding.vectors.tobytes()

    def test_zero_out_degree_reports_view(self):
        W1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        W2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = TimeEvolvingGraph([W1, W2], directed=True)
        with pytest.raises(ZeroOutDegree) as err:
            propagate_densities(g, self_loops=False)
        assert err.value.view == 2


class TestScaleRows:
    def test_leaves_its_input_unchanged(self):
        W = gen_benchmark2(0)[0].snapshots[0]
        # row 0 scaled to zero: its entries are dropped
        factors = np.linspace(1.0, 2.0, W.shape[0])
        factors[0] = 0.0
        before = [getattr(W, name).copy() for name in ("data", "indices", "indptr")]
        S = scale_rows(factors, W)
        for name, kept in zip(("data", "indices", "indptr"), before):
            assert getattr(W, name).tobytes() == kept.tobytes()
        assert S.indptr[1] == 0
        assert np.array_equal(S.toarray(), factors[:, None] * W.toarray())

    def test_keeps_the_index_order(self):
        W = sparse.csr_array((np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1]),
                              np.array([0, 3, 3, 3])), shape=(3, 3))
        S = scale_rows(np.array([0.5, 1.0, 1.0]), W)
        assert S.indices.tolist() == [2, 0, 1]
        assert S.data.tolist() == [0.5, 1.0, 1.5]


class TestOperatorSequenceValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            OperatorSequence((np.array([[0.5, 0.4], [0.5, 0.5]]),))

    @pytest.mark.parametrize("S", [
        np.array([[np.nan, 1.0], [0.5, 0.5]]),
    ], ids=["nan-transition"])
    def test_rejects_nan(self, S):
        with pytest.raises(ValueError):
            OperatorSequence((S,))

    def test_rejects_negative_entry(self):
        # rows sum to one and the densities stay positive, so only the
        # negativity check objects
        S = np.array([[1.5, -0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="transition matrix at view 1 has "
                                             "negative entries"):
            OperatorSequence((S, np.eye(2)))

    def test_rejects_no_transitions(self):
        with pytest.raises(ValueError, match="at least one transition matrix"):
            OperatorSequence(())

    @pytest.mark.parametrize("S", [np.eye(3), np.ones((2, 3)) / 3,
                                   np.eye(2, dtype=complex)],
                             ids=["other-size", "not-square", "complex"])
    def test_rejects_a_transition_of_another_shape_or_complex(self, S):
        with pytest.raises(ValueError, match="view 2 is not a real 2 x 2 matrix"):
            OperatorSequence((np.eye(2), S))

    def test_propagates_its_own_densities(self):
        # all mass moves to vertex 1, so vertex 0 is empty at view 2
        S = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert [mu.tolist() for mu in OperatorSequence((np.eye(2), S)).densities] == [
            [0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(DensityVanished) as err:
            OperatorSequence((S, np.eye(2)))
        assert (err.value.view, err.value.vertex, err.value.value) == (2, 0, 0.0)

    def test_rows_stored_sorted_without_sorting_the_callers_arrays(self):
        ops = propagate_densities(gen_benchmark1(0)[0])
        assert all(S.has_sorted_indices for S in ops.transitions)
        reversed_rows = [reverse_rows(S) for S in ops.transitions]
        again = OperatorSequence(tuple(reversed_rows))
        for S, R, kept in zip(again.transitions, reversed_rows, ops.transitions):
            assert S.has_sorted_indices and S.indices is not R.indices
            assert not np.array_equal(R.indices, kept.indices)
            assert S.indices.tobytes() == kept.indices.tobytes()
            assert S.data.tobytes() == kept.data.tobytes()
        # a sorted matrix is kept with its arrays
        kept = OperatorSequence(ops.transitions)
        assert all(np.shares_memory(S.data, T.data)
                   for S, T in zip(kept.transitions, ops.transitions))

    def test_dense_input_stored_as_csr(self):
        ops = OperatorSequence((np.eye(2), np.eye(2)))
        assert all(type(S) is sparse.csr_array for S in ops.transitions)

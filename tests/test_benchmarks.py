import numpy as np
import pytest

from stgl import (gen_benchmark1, gen_benchmark2, gen_line_graph,
                  gen_planted_partition, propagate_densities, spectral_cluster,
                  static_blocks)
from stgl.benchmarks import benchmark1_membership


class TestBenchmark1:
    def test_sizes(self):
        graph, labels = gen_benchmark1(seed=0)
        assert (graph.n, graph.M, graph.directed) == (300, 10, False)
        np.testing.assert_array_equal(np.bincount(labels[0]), [100, 100, 100])
        np.testing.assert_array_equal(np.bincount(labels[-1]), [65, 135, 100])

    def test_cluster3_constant(self):
        _, labels = gen_benchmark1(seed=1)
        for t in range(10):
            assert np.all(labels[t, 200:] == 2)

    def test_migration_monotone(self):
        membership = benchmark1_membership()
        sizes = [(membership[t] == 0).sum() for t in range(10)]
        assert sizes == sorted(sizes, reverse=True)
        moved = np.diff([100 - s for s in sizes])
        assert set(moved.tolist()) <= {3, 4}

    def test_deterministic(self):
        a, _ = gen_benchmark1(seed=3)
        b, _ = gen_benchmark1(seed=3)
        for t in range(1, 11):
            assert abs(a.snapshots[t - 1] - b.snapshots[t - 1]).max() == 0


class TestBenchmark2:
    def test_sizes_and_truth(self):
        graph, labels = gen_benchmark2(seed=0)
        assert (graph.n, graph.M, graph.directed) == (400, 10, True)
        assert len(np.unique(labels[0])) == 3
        np.testing.assert_array_equal(np.bincount(labels[0]), [200, 100, 100])
        assert len(np.unique(labels[-1])) == 4
        np.testing.assert_array_equal(np.bincount(labels[-1]), [100, 100, 100, 100])

    def test_off_diagonal_blocks_dense(self):
        graph, _ = gen_benchmark2(seed=0)
        W1 = graph.snapshots[0].toarray()
        x_to_y = (W1[200:300, 300:400] > 0).mean()
        y_to_x = (W1[300:400, 200:300] > 0).mean()
        noise = (W1[0:100, 200:300] > 0).mean()
        assert x_to_y > 0.4 and y_to_x > 0.4
        assert noise < 0.05

    def test_split_removes_only_cross_edges(self):
        graph, _ = gen_benchmark2(seed=2)
        W1, W10 = graph.snapshots[0].toarray(), graph.snapshots[9].toarray()
        cross1 = (W1[:100, 100:200] > 0).sum() + (W1[100:200, :100] > 0).sum()
        cross10 = (W10[:100, 100:200] > 0).sum() + (W10[100:200, :100] > 0).sum()
        assert cross10 < 0.02 * cross1
        # untouched regions are bitwise stable
        np.testing.assert_array_equal(W1[:100, :100], W10[:100, :100])
        np.testing.assert_array_equal(W1[200:, :], W10[200:, :])

    def test_edges_decay_monotonically(self):
        graph, _ = gen_benchmark2(seed=4)
        counts = [(W.toarray()[:100, 100:200] > 0).sum() for W in graph.snapshots]
        assert counts == sorted(counts, reverse=True)

    def test_positive_rows_after_regularization(self):
        graph, _ = gen_benchmark2(seed=5)
        ops = propagate_densities(graph)
        for mu in ops.densities:
            assert mu.min() > 0


class TestLineGraph:
    def test_shape(self):
        g = gen_line_graph()
        assert (g.n, g.M, g.directed) == (6, 4, False)

    def test_merging_edge_schedule(self):
        g = gen_line_graph()
        weights = [W.toarray()[1, 2] for W in g.snapshots]
        assert weights == [0.01, 0.1, 1.0, 1.0]

    def test_stable_weak_edge(self):
        g = gen_line_graph()
        assert [W.toarray()[3, 4] for W in g.snapshots] == [0.01] * 4

    def test_symmetric(self):
        g = gen_line_graph()
        for W in g.snapshots:
            np.testing.assert_array_equal(W.toarray(), W.T.toarray())


class TestPlantedPartition:
    @pytest.mark.parametrize("make", [lambda: gen_benchmark1(0)[0],
                                      lambda: static_blocks()[0]],
                             ids=["benchmark1", "planted"])
    def test_int32_indices(self, make):
        for W in make().snapshots:
            assert W.indices.dtype == W.indptr.dtype == np.int32

    def test_zero_noise_is_block_diagonal(self):
        membership = np.tile(np.repeat([0, 1], 10), (3, 1))
        g = gen_planted_partition(membership, 0.8, 0.0, seed=0)
        assert (g.n, g.M) == (20, 3)
        for W in g.snapshots:
            W = W.toarray()
            assert np.all(W[:10, 10:] == 0.0)
            assert np.all(W[10:, :10] == 0.0)

    def test_equal_probabilities_no_signal(self):
        membership = np.tile(np.repeat([0, 1], 40), (2, 1))
        g = gen_planted_partition(membership, 0.4, 0.4, seed=1)
        # edge counts: the signal in question is which edges exist
        degrees = (g.snapshots[0].toarray() > 0).sum(axis=1)
        within, across = degrees[:40].mean(), degrees[40:].mean()
        se = degrees.std() / np.sqrt(40)
        assert abs(within - across) < 4 * se

    def test_probability_order_validated(self):
        with pytest.raises(ValueError):
            gen_planted_partition(np.zeros((2, 10), dtype=int), 0.1, 0.5)

    @pytest.mark.parametrize("weight_range", [(np.nan, 1.0), (0.5, np.inf), (0.0, 1.0),
                                              (-1.0, 1.0), (1.5, 0.5)],
                             ids=["nan", "inf", "zero", "negative", "reversed"])
    def test_weight_range_checked(self, weight_range):
        with pytest.raises(ValueError, match="weight_range must hold finite"):
            gen_planted_partition(np.zeros((2, 10), dtype=int), 0.5, 0.1,
                                  weight_range=weight_range)

    def test_negative_label_rejected(self):
        membership = np.zeros((2, 10), dtype=int)
        membership[1, 3] = -1
        with pytest.raises(ValueError, match="membership labels must be nonnegative"):
            gen_planted_partition(membership, 0.5, 0.1)

    def test_weight_laws(self):
        membership = np.tile(np.repeat([0, 1], 10), (2, 1))
        for low, high in [(0.5, 1.5), (0.006, 0.018)]:
            g = gen_planted_partition(membership, 0.9, 0.05,
                                      weight_range=(low, high), seed=2)
            for W in g.snapshots:
                assert low <= W.data.min() and W.data.max() < high

    def test_end_to_end_recovery(self):
        graph, truth = static_blocks(n=30, blocks=2, M=3, p_in=0.9,
                                     p_out=0.05, seed=0)
        result = spectral_cluster(graph, 2, seed=7, truth=truth)
        assert result.ari_per_view == (1.0, 1.0, 1.0)

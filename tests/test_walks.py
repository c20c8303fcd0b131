import numpy as np
import pytest

from stgl import (OperatorSequence, TimeEvolvingGraph, escape_rate,
                  gen_benchmark1, gen_benchmark2, gen_line_graph, occupancy,
                  propagate_densities, simulate_walks)

from util import random_teg, reference_walks, reverse_rows


def chain_ops(matrices, self_loops=False):
    g = TimeEvolvingGraph(matrices, directed=True)
    return propagate_densities(g, self_loops=self_loops)


class TestSimulateWalk:
    def test_permutation_orbit_is_deterministic(self):
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        ops = chain_ops([P] * 4)
        paths = simulate_walks(ops, [0], seed=123)
        assert paths.tolist() == [[0, 1, 2, 0]]

    def test_same_seed_same_path(self):
        ops = propagate_densities(gen_line_graph())
        a = simulate_walks(ops, [2], seed=42)
        b = simulate_walks(ops, [2], seed=42)
        assert np.array_equal(a, b)
        assert a.shape == (1, 4)

    def test_steps_follow_support(self):
        ops = propagate_densities(gen_line_graph())
        paths = simulate_walks(ops, [w % 6 for w in range(50)], seed=9)
        for path in paths:
            for t in range(3):
                S = ops.transitions[t].toarray()
                assert S[path[t], path[t + 1]] > 0

    def test_out_of_range_start(self):
        ops = propagate_densities(gen_line_graph())
        for start in (6, -1):
            with pytest.raises(ValueError, match=rf"start vertex {start} out of range \[0, 6\)"):
                simulate_walks(ops, [0, start, 7], seed=0)

    @pytest.mark.parametrize("starts", [[2.9], [True]], ids=["float", "bool"])
    def test_non_integer_start_rejected(self, starts):
        ops = propagate_densities(gen_line_graph())
        with pytest.raises(ValueError, match="starts must be a sequence of integer"):
            simulate_walks(ops, starts, 0)

    def test_no_walkers(self):
        ops = propagate_densities(gen_line_graph())
        assert simulate_walks(ops, [], seed=0).shape == (0, 4)

    def test_empirical_frequencies_match_rows(self):
        # 3-vertex graph, 1e5 walkers: first-step frequencies within 3 SE
        W = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [1.0, 1.0, 0.0]])
        ops = chain_ops([W, W])
        n_samples = 100_000
        paths = simulate_walks(ops, [0] * n_samples, seed=2024)
        counts = np.bincount(paths[:, 1], minlength=3)
        freq = counts / n_samples
        row = ops.transitions[0].toarray()[0]
        se = np.sqrt(row * (1 - row) / n_samples)
        assert np.all(np.abs(freq - row) <= 3 * se + 1e-12)


class TestReferenceWalks:
    """The inverse-CDF walk draws the same paths as one ``choice`` per step."""

    def test_benchmark1_unsorted_rows(self):
        graph, _ = gen_benchmark1(0)
        ops = propagate_densities(graph)
        unsorted = tuple(reverse_rows(S) for S in ops.transitions)
        # a CDF over unsorted CSR columns would pick different vertices
        assert not any(S.has_sorted_indices for S in unsorted)
        ops = OperatorSequence(unsorted)
        starts = [200 + i % 100 for i in range(600)]
        assert np.array_equal(simulate_walks(ops, starts, 0),
                              reference_walks(ops, starts, 0))

    def test_benchmark2_directed(self):
        graph, _ = gen_benchmark2(0)
        assert graph.directed
        ops = propagate_densities(graph)
        starts = list(range(0, graph.n, 7))
        assert np.array_equal(simulate_walks(ops, starts, 3),
                              reference_walks(ops, starts, 3))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        ops = propagate_densities(random_teg(seed))
        starts = [i % ops.n for i in range(3 * ops.n)]
        assert np.array_equal(simulate_walks(ops, starts, seed),
                              reference_walks(ops, starts, seed))


class TestEscapeRate:
    def test_all_inside_is_zero(self):
        P = np.eye(4)
        ops = chain_ops([P] * 3)
        paths = simulate_walks(ops, [0, 1], seed=1)
        assert escape_rate(paths, {0, 1}) == 0.0

    def test_all_leave_is_one(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        ops = chain_ops([P] * 2)
        paths = simulate_walks(ops, [0] * 10, seed=1)
        assert escape_rate(paths, {0}) == 1.0

    def test_per_view_sets(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        ops = chain_ops([P] * 2)
        paths = simulate_walks(ops, [0] * 10, seed=1)
        # the moving set {0} -> {1} is never left
        assert escape_rate(paths, [{0}, {1}]) == 0.0
        with pytest.raises(ValueError):
            escape_rate(paths, [{0}, {1}, {0}])

    def test_vertices_outside_graph_never_match(self):
        paths = np.array([[0, 1], [1, 1]])
        assert escape_rate(paths, {1, 7, -3}) == 0.5
        assert occupancy(paths, [7]).tolist() == [0.0, 0.0]

    def test_empty_traces_rejected(self):
        no_walkers = np.empty((0, 3), dtype=np.intp)
        with pytest.raises(ValueError):
            escape_rate(no_walkers, {0})
        with pytest.raises(ValueError):
            occupancy(no_walkers, {0})

    def test_one_path_rejected(self):
        paths = simulate_walks(propagate_densities(gen_line_graph()), [0, 1], 0)
        with pytest.raises(ValueError, match=r"paths must be a \(walkers, views\) array"):
            occupancy(paths[0], {0})
        with pytest.raises(ValueError, match=r"paths must be a \(walkers, views\) array"):
            escape_rate(paths[0], {0})

    def test_line_graph_stable_cluster_keeps_walkers(self):
        # walkers started in the persistent cluster {v4, v5}: fewer than 10%
        # end outside it at the final view
        ops = propagate_densities(gen_line_graph())
        paths = simulate_walks(ops, [4, 5] * 500, seed=7)
        outside_final = np.mean(~np.isin(paths[:, -1], [4, 5]))
        assert outside_final < 0.1

    def test_line_graph_merging_clusters_mix_late(self):
        # per-step escape rate out of {v0, v1} grows as the (v1, v2) edge
        # strengthens from 0.01 to 1
        ops = propagate_densities(gen_line_graph())
        paths = simulate_walks(ops, [0, 1] * 1000, seed=11)
        inside = np.isin(paths, [0, 1])
        step_escape = [np.count_nonzero(inside[:, t] & ~inside[:, t + 1])
                       / np.count_nonzero(inside[:, t]) for t in range(3)]
        assert step_escape[2] > step_escape[0] + 0.05

    def test_occupancy_monotone_for_merging(self):
        ops = propagate_densities(gen_line_graph())
        paths = simulate_walks(ops, [0, 1] * 1000, seed=13)
        occ = occupancy(paths, {0, 1})
        assert occ[0] == 1.0
        assert occ[-1] < occ[0]

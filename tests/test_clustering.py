import tracemalloc

import numpy as np
import pytest

from stgl import (DegenerateInput, InsufficientSpatialEigenvectors, StglError,
                  adjusted_rand_index, clustering, kmeans, score_against,
                  select_spatial, spectral_cluster, static_blocks)
from stgl.clustering import _assign, _lloyd

from util import ari_pair_oracle, reference_assign


class TestSelectSpatial:
    def test_skips_temporal(self):
        tags = ("constant", "temporal", "spatial", "temporal", "spatial")
        assert select_spatial(tags, 3) == (0, 2, 4)

    def test_all_spatial_takes_first_k(self):
        assert select_spatial(("spatial",) * 4, 2) == (0, 1)

    def test_insufficient_raises(self):
        with pytest.raises(InsufficientSpatialEigenvectors) as err:
            select_spatial(("constant", "temporal", "temporal"), 2)
        assert err.value.available == 1
        assert err.value.requested == 2

    def test_impossible_request(self):
        with pytest.raises(InsufficientSpatialEigenvectors):
            select_spatial(("spatial",) * 4, 9)

    @pytest.mark.parametrize("k, match", [(2.0, "k must be an integer, got 2.0"),
                                          (0, "k must be at least 1, got 0")])
    def test_bad_k_rejected(self, k, match):
        with pytest.raises(ValueError, match=match):
            select_spatial(("spatial",) * 4, k)


class TestKmeans:
    def test_k1_mean(self):
        pts = np.arange(10.0).reshape(5, 2)
        res = kmeans(pts, 1, seed=0, restarts=2)
        assert np.all(res.labels == 0)
        expected = float(((pts - pts.mean(axis=0)) ** 2).sum())
        assert res.inertia == pytest.approx(expected, abs=1e-9)

    def test_two_point_masses(self):
        pts = np.array([[0.0, 0.0]] * 5 + [[3.0, 4.0]] * 5)
        res = kmeans(pts, 2, seed=0, restarts=3)
        assert res.inertia == pytest.approx(0.0, abs=1e-12)
        labels = res.labels.ravel()
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[-1]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        a = kmeans(pts, 4, seed=9, restarts=5)
        b = kmeans(pts, 4, seed=9, restarts=5)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_inertia_matches_recomputed_objective(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((50, 2))
        res = kmeans(pts, 3, seed=1, restarts=4)
        labels = res.labels.ravel()
        centroids = np.vstack([pts[labels == c].mean(axis=0) for c in range(3)])
        objective = float(((pts - centroids[labels]) ** 2).sum())
        assert res.inertia == pytest.approx(objective, abs=1e-9)

    def test_lloyd_inertia_non_increasing(self, monkeypatch):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((60, 2))
        real = clustering._assign
        inertias = []

        def record(points, centroids):
            labels, inertia = real(points, centroids)
            inertias.append(inertia)
            return labels, inertia

        monkeypatch.setattr(clustering, "_assign", record)
        for r in range(5):
            inertias.clear()
            _lloyd(pts, 4, np.random.default_rng((7, r)))
            assert len(inertias) >= 2
            assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    @pytest.mark.parametrize("layout", ["C", "F", "transposed"])
    def test_assign_is_bitwise_the_broadcast_oracle(self, layout):
        rng = np.random.default_rng(11)
        for _ in range(8):
            N, k = int(rng.integers(1, 2000)), int(rng.integers(1, 40))
            pts = rng.standard_normal((N, k)) * 10.0 ** rng.uniform(-3, 3)
            pts = {"C": pts, "F": np.asfortranarray(pts),
                   "transposed": np.ascontiguousarray(pts.T).T}[layout]
            centroids = rng.standard_normal((k, k)) * pts.std()
            labels, inertia = _assign(pts, centroids)
            ref_labels, ref_inertia = reference_assign(pts, centroids)
            assert np.array_equal(labels, ref_labels)
            assert inertia == ref_inertia

    def test_assign_memory_is_of_order_n_times_k(self):
        # the broadcast form allocates N k² floats: 240 MB here
        pts = np.random.default_rng(12).standard_normal((3000, 100))
        tracemalloc.start()
        try:
            _assign(pts, pts[:100].copy())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * pts.nbytes  # 9.6 MB: d2 and one difference

    def test_views_folding(self):
        pts = np.vstack([np.zeros((4, 1)), np.ones((4, 1))])
        res = kmeans(pts, 2, seed=0, restarts=2, views=2)
        assert res.labels.shape == (2, 4)
        assert len(res.labels) == 2
        assert np.array_equal(res.labels[1], res.labels.ravel()[4:])

    def test_single_view_flat(self):
        pts = np.random.default_rng(8).standard_normal((6, 2))
        res = kmeans(pts, 2, seed=0, restarts=2, views=1)
        assert len(res.labels) == 1
        assert np.array_equal(res.labels[0], res.labels.ravel())

    def test_more_clusters_than_points_rejected(self):
        with pytest.raises(ValueError, match="need at least k=3 points, got 2"):
            kmeans(np.zeros((2, 2)), 3)

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1, got 0"):
            kmeans(np.zeros((90, 2)), 0)

    def test_zero_restarts_rejected(self):
        with pytest.raises(ValueError, match="at least one k-means restart, got 0"):
            kmeans(np.zeros((4, 2)), 2, restarts=0)

    def test_zero_views_rejected(self):
        with pytest.raises(ValueError, match="at least one view, got 0"):
            kmeans(np.zeros((4, 2)), 2, views=0)

    def test_float_k_rejected(self):
        with pytest.raises(ValueError, match="k must be an integer, got 2.0"):
            kmeans(np.zeros((4, 2)), 2.0)

    def test_float_restarts_rejected(self):
        with pytest.raises(ValueError, match="restarts must be an integer, got 2.0"):
            kmeans(np.zeros((4, 2)), 2, restarts=2.0)

    def test_bool_views_rejected(self):
        with pytest.raises(ValueError, match="views must be an integer, got True"):
            kmeans(np.zeros((4, 2)), 2, views=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, value):
        points = np.random.default_rng(0).standard_normal((6, 2))
        points[3, 1] = value
        with pytest.raises(ValueError, match="finite real numbers"):
            kmeans(points, 2)

    def test_nan_objective_stops_lloyd(self, monkeypatch):
        # a NaN inertia fails the objective check instead of passing as
        # converged
        real, calls = clustering._assign, []

        def nan_after_seeding(points, centroids):
            labels, inertia = real(points, centroids)
            calls.append(inertia)
            return labels, inertia if len(calls) == 1 else np.nan

        monkeypatch.setattr(clustering, "_assign", nan_after_seeding)
        pts = np.random.default_rng(7).standard_normal((20, 2))
        with pytest.raises(StglError, match="objective increased"):
            _lloyd(pts, 2, np.random.default_rng(0))

    def test_identical_rows(self):
        # k-means++ finds no spread to weight its draws by, and every
        # cluster but the first comes out empty and is repaired
        res = kmeans(np.full((6, 2), 0.25), 3, seed=2, restarts=2)
        assert np.array_equal(res.labels, np.zeros((1, 6), dtype=int))
        assert res.inertia == 0.0

    def test_stops_after_lloyd_max_iter(self, monkeypatch):
        pts = np.random.default_rng(7).standard_normal((60, 2))
        real = clustering._assign
        results = []

        def record(points, centroids):
            results.append(real(points, centroids))
            return results[-1]

        monkeypatch.setattr(clustering, "_assign", record)
        _lloyd(pts, 4, np.random.default_rng(3))
        assert len(results) > 2  # unconverged after one update
        results.clear()
        monkeypatch.setattr(clustering, "LLOYD_MAX_ITER", 1)
        labels, inertia = _lloyd(pts, 4, np.random.default_rng(3))
        assert len(results) == 2  # the seeding's assignment and one update
        assert np.array_equal(labels, results[1][0]) and inertia == results[1][1]

    def test_view_count_checked_before_any_restart(self, monkeypatch):
        runs = []
        real = clustering._lloyd

        def spy(points, k, rng):
            runs.append(k)
            return real(points, k, rng)

        monkeypatch.setattr(clustering, "_lloyd", spy)
        pts = np.random.default_rng(9).standard_normal((7, 2))
        with pytest.raises(ValueError, match="multiple of the view count"):
            kmeans(pts, 2, restarts=10, views=2)
        assert runs == []


class TestAdjustedRandIndex:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_label_rejected(self, value):
        with pytest.raises(ValueError, match="labeling a has a non-finite label"):
            adjusted_rand_index([0, 1, value], [0, 1, 1])

    def test_identical_is_one(self):
        labels = np.array([0, 0, 1, 2, 2, 1])
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_relabel_invariance(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 3, 3, 9, 9])
        assert adjusted_rand_index(a, b) == 1.0

    def test_frozen_hand_case(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5

    def test_matches_pair_oracle_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            ka = int(rng.integers(1, 5))
            kb = int(rng.integers(1, 5))
            a = rng.integers(0, ka, n)
            b = rng.integers(0, kb, n)
            assert adjusted_rand_index(a, b) == ari_pair_oracle(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 4, n)
            assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            adjusted_rand_index([0], [0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])


class TestPipeline:
    def test_static_blocks_recovered_every_view(self):
        graph, truth = static_blocks(n=30, blocks=2, M=3, p_in=0.9,
                                     p_out=0.05, seed=0)
        result = spectral_cluster(graph, 2, seed=1, truth=truth)
        assert result.ari_per_view == (1.0, 1.0, 1.0)
        labels = result.clustering.labels
        for t in range(1, 3):
            assert np.array_equal(labels[t], labels[0])

    def test_pipeline_deterministic(self):
        graph, truth = static_blocks(n=24, blocks=2, M=3, seed=3)
        a = spectral_cluster(graph, 2, seed=4, restarts=5)
        b = spectral_cluster(graph, 2, seed=4, restarts=5)
        assert np.array_equal(a.clustering.labels, b.clustering.labels)

    def test_embedding_row_indexing(self, monkeypatch):
        # k-means clusters the selected columns; row i is (view i // n,
        # vertex i % n)
        clustered = []
        real = clustering.kmeans

        def spy(points, k, **kwargs):
            clustered.append(points)
            return real(points, k, **kwargs)

        monkeypatch.setattr(clustering, "kmeans", spy)
        graph, _ = static_blocks(n=20, blocks=2, M=4, seed=2)
        res = spectral_cluster(graph, 2, seed=0)
        (points,) = clustered
        assert points.shape == (graph.M * graph.n, 2)
        for col, j in enumerate(res.selection):
            np.testing.assert_array_equal(points[:, col],
                                          res.embedding.folded[j].ravel())

    def test_score_against(self):
        labels = np.array([[0, 0, 1, 1], [1, 1, 0, 0]])
        truth = np.array([[1, 1, 0, 0], [1, 1, 0, 0]])
        assert score_against(labels, truth) == (1.0, 1.0)

    def test_nan_in_truth_rejected(self):
        graph, truth = static_blocks(seed=0)
        truth = truth.astype(float)
        truth[1, 4] = np.nan
        with pytest.raises(ValueError, match="labeling b has a non-finite label"):
            spectral_cluster(graph, 2, truth=truth)

    @pytest.mark.parametrize("k, match", [(2.0, "k must be an integer, got 2.0"),
                                          (True, "k must be an integer, got True"),
                                          (0, "k must be at least 1, got 0"),
                                          (-1, "k must be at least 1, got -1")])
    def test_bad_k_rejected_before_propagation(self, monkeypatch, k, match):
        # a float k used to run the whole eigensolve and then fail with a
        # TypeError in the eigenpair selection
        def no_propagation(*args, **kwargs):
            raise AssertionError("propagated before k was checked")

        monkeypatch.setattr(clustering, "propagate_densities", no_propagation)
        with pytest.raises(ValueError, match=match):
            spectral_cluster(static_blocks(seed=0)[0], k)

    @pytest.mark.parametrize("restarts, match", [
        (2.0, "restarts must be an integer, got 2.0"),
        (True, "restarts must be an integer, got True"),
        (0, "at least one k-means restart, got 0")])
    def test_bad_restarts_rejected_before_propagation(self, monkeypatch, restarts,
                                                      match):
        # k-means used to reject them only after the whole eigensolve
        def no_propagation(*args, **kwargs):
            raise AssertionError("propagated before restarts was checked")

        monkeypatch.setattr(clustering, "propagate_densities", no_propagation)
        with pytest.raises(ValueError, match=match):
            spectral_cluster(static_blocks(seed=0)[0], 2, restarts=restarts)

    def test_truth_of_another_shape_rejected(self):
        graph, truth = static_blocks(seed=0)
        extra_view = np.vstack([truth, truth[:1]])
        with pytest.raises(ValueError, match=r"truth has shape \(4, 30\), labels \(3, 30\)"):
            spectral_cluster(graph, 2, truth=extra_view)

    def test_growing_eigenvector_request(self):
        # three clusters need two eigenvectors beyond the constant one
        graph, _ = static_blocks(n=12, blocks=3, M=3, p_in=0.9,
                                 p_out=0.05, seed=6)
        res = spectral_cluster(graph, 3, seed=0)
        assert len(res.selection) == 3

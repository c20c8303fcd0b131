"""Joint clustering of the folded eigenvectors and its evaluation.

The pipeline embeds every (view, vertex) pair as one row of the selected
eigenvector matrix, clusters all Mn rows jointly with k-means, and reads
per-view labels off the row blocks. Because views are clustered jointly,
label identity is meaningful across views without any matching step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInput, InsufficientSpatialEigenvectors, StglError,
                     check_integer)
from .graph import TimeEvolvingGraph
from .laplacian import SpectralEmbedding, assemble_system, eigendecompose
from .operators import propagate_densities

# Lloyd updates per k-means run before it stops unconverged.
LLOYD_MAX_ITER = 300


@dataclass(frozen=True)
class ClusteringResult:
    """Per-view labels plus the k-means objective."""

    labels: np.ndarray
    inertia: float


def check_k(k, restarts=1):
    """Reject a cluster count k, or a number of k-means restarts, that is
    not an integer of at least 1."""
    check_integer("k", k, least=1)
    check_integer("restarts", restarts)
    if restarts < 1:
        raise ValueError(f"need at least one k-means restart, got {restarts}")


def select_spatial(tags, k) -> tuple:
    """Indices of the first k eigenvectors whose tag is not "temporal", in
    the order of ``tags``.

    The constant first eigenvector is retained by convention; temporal
    eigenvectors (constant within each view) are filtered out.
    """
    check_k(k)
    keep = tuple(i for i, tag in enumerate(tags) if tag != "temporal")
    if len(keep) < k:
        raise InsufficientSpatialEigenvectors(len(keep), k)
    return keep[:k]


def _kmeans_pp_init(points, k, rng):
    """k-means++ seeding: D^2-weighted draws."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[rng.integers(n)]
            continue
        centroids[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    return centroids


def _assign(points, centroids):
    # one centroid at a time, so no N x k x dim temporary is formed
    d2 = np.empty((len(points), len(centroids)))
    for c, centroid in enumerate(centroids):
        np.sum((points - centroid) ** 2, axis=1, out=d2[:, c])
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(points)), labels].sum())
    return labels, inertia


def _lloyd(points, k, rng):
    """One k-means run of at most ``LLOYD_MAX_ITER`` updates; returns
    (labels, inertia)."""
    centroids = _kmeans_pp_init(points, k, rng)
    labels, inertia = _assign(points, centroids)
    for _ in range(LLOYD_MAX_ITER):
        repair_d2 = None
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                # empty-cluster repair: reseed at the point farthest from
                # its assigned centroid
                if repair_d2 is None:
                    repair_d2 = np.sum((points - centroids[labels]) ** 2, axis=1)
                far = int(np.argmax(repair_d2))
                centroids[c] = points[far]
                repair_d2[far] = -np.inf
        new_labels, new_inertia = _assign(points, centroids)
        if not new_inertia <= inertia + 1e-9 * max(1.0, inertia):  # NaN fails
            raise StglError("k-means objective increased")
        if np.array_equal(new_labels, labels):
            return new_labels, new_inertia
        labels, inertia = new_labels, new_inertia
    return labels, inertia


def kmeans(points, k, seed=0, restarts=10, views=1) -> ClusteringResult:
    """Best-of-``restarts`` k-means on the rows of ``points``.

    Restart r draws its own generator from (seed, r), so the result is
    deterministic for a fixed (seed, restarts) regardless of scheduling.
    Labels are returned folded to (views, len(points) / views).
    """
    points = np.asarray(points)
    if points.ndim != 2 or np.iscomplexobj(points) or not np.isfinite(points).all():
        raise ValueError("points must be a 2-d array of finite real numbers")
    points = points.astype(float, copy=False)
    check_k(k, restarts)
    check_integer("views", views)
    if views < 1:
        raise ValueError(f"need at least one view, got {views}")
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    n = len(points) // views
    if n * views != len(points):
        raise ValueError("point count is not a multiple of the view count")
    best = None
    for r in range(restarts):
        labels, inertia = _lloyd(points, k, np.random.default_rng((seed, r)))
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    labels, inertia = best
    return ClusteringResult(labels=labels.reshape(views, n), inertia=inertia)


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement of two labelings.

    Computed from the contingency table with exact integer arithmetic;
    1.0 iff the partitions coincide up to relabeling. Two partitions that
    both carry no pair information (the degenerate denominator) count as
    identical.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    for name, labels in (("a", a), ("b", b)):
        if labels.dtype.kind in "fc" and not np.isfinite(labels).all():
            raise ValueError(f"labeling {name} has a non-finite label")
    if a.shape != b.shape:
        raise ValueError("labelings must have equal length")
    n = len(a)
    if n < 2:
        raise DegenerateInput("adjusted Rand index needs at least two items")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    sum_cells = sum(math.comb(int(c), 2) for c in table.ravel())
    sum_rows = sum(math.comb(int(c), 2) for c in table.sum(axis=1))
    sum_cols = sum(math.comb(int(c), 2) for c in table.sum(axis=0))
    total = math.comb(n, 2)
    # ARI = (idx - exp) / (max - exp), scaled to integers
    numerator = 2 * (total * sum_cells - sum_rows * sum_cols)
    denominator = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denominator == 0:
        return 1.0
    return numerator / denominator


@dataclass(frozen=True)
class PipelineResult:
    """Everything produced by one spectral-clustering run; ``selection``
    holds the embedding's columns that k-means clustered."""

    embedding: SpectralEmbedding
    selection: tuple
    clustering: ClusteringResult
    ari_per_view: tuple | None = None


def score_against(labels, truth):
    """Per-view ARI of a label array against a ground-truth array of the
    same shape."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if truth.shape != labels.shape:
        raise ValueError(f"truth has shape {truth.shape}, labels {labels.shape}")
    return tuple(adjusted_rand_index(labels[t], truth[t])
                 for t in range(labels.shape[0]))


def spectral_cluster(graph: TimeEvolvingGraph, k, *, seed=0, restarts=10,
                     self_loops=True, truth=None) -> PipelineResult:
    """Run the full pipeline: operators, C, eigenvectors, selection, k-means.

    The k + M + 3 dominant eigenpairs are computed by ``eigendecompose``;
    above the dense cutoff their spatial part is one Lanczos solve on the
    odd-view Gram matrix of the view coupling, of size n floor(M / 2). At
    most M - 1 of them are temporal, so they hold k non-temporal ones
    unless negative eigenvalues cut the list short. C has N - M + 1
    non-temporal eigenvectors in all, and a larger k is rejected before
    any solve, as is a k or a ``restarts`` that is not an integer of at
    least 1.
    """
    check_k(k, restarts)
    ops = propagate_densities(graph, self_loops=self_loops)
    system = assemble_system(ops)
    N, M = system.size, system.M
    if k > N - M + 1:
        raise InsufficientSpatialEigenvectors(N - M + 1, k)
    embedding = eigendecompose(system, min(N, k + M + 3))
    selection = select_spatial(embedding.tags, k)
    result = kmeans(embedding.vectors[:, list(selection)], k, seed=seed,
                    restarts=restarts, views=graph.M)
    ari = score_against(result.labels, truth) if truth is not None else None
    return PipelineResult(embedding=embedding, selection=selection,
                          clustering=result, ari_per_view=ari)

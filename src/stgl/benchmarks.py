"""Seeded generators for benchmark time-evolving graphs.

All generators are deterministic functions of their seed. Community
structure is planted directly: edges appear independently with probability
p_in inside blocks and p_out across, with weights drawn uniformly from a
(low, high) range. Ground truth is returned as an (M, n) label array.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .errors import check_integer
from .graph import TimeEvolvingGraph

DEFAULT_WEIGHTS = (0.5, 1.5)


def gen_planted_partition(membership, p_in, p_out, *,
                          weight_range=DEFAULT_WEIGHTS, seed=0) -> TimeEvolvingGraph:
    """Undirected planted-partition snapshots, one per row of the (M, n)
    array of nonnegative membership labels.

    Each view is sampled independently given its membership row; only the
    membership couples the views. ``p_out == p_in`` is allowed, so the
    degenerate no-community case stays expressible for sanity checks.
    """
    membership = np.asarray(membership, dtype=int)
    M, n = membership.shape
    if (membership < 0).any():
        raise ValueError("membership labels must be nonnegative")
    if not 0 <= p_out <= p_in <= 1:
        raise ValueError("need 0 <= p_out <= p_in <= 1")
    low, high = weight_range
    if not (np.isrealobj(weight_range) and 0 < low <= high < math.inf):
        raise ValueError(f"weight_range must hold finite 0 < low <= high, "
                         f"got {weight_range}")
    rng = np.random.default_rng(seed)
    # int32 from the start, so that no view's COO arrays hold int64 indices
    # before the graph narrows them: that keeps the generator's peak lower
    iu, ju = (v.astype(np.int32) for v in np.triu_indices(n, k=1))
    snapshots = []
    for m in membership:
        prob = np.where(m[iu] == m[ju], p_in, p_out)
        present = rng.random(len(iu)) < prob
        w = rng.uniform(low, high, int(present.sum()))
        i, j = iu[present], ju[present]
        snapshots.append(sparse.coo_array(
            (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(n, n)))
    return TimeEvolvingGraph(snapshots)


def benchmark1_membership():
    """Membership schedule: cluster 1 shrinks from 100 to 65 vertices.

    35 vertices migrate to cluster 2 over the 9 view transitions on a
    linear schedule with round-to-nearest cumulative counts (batches of 4
    except a batch of 3 at the midpoint transition); cluster 3 never
    changes. Vertices move tail-first, so cluster 1 keeps its lowest 65
    indices throughout.
    """
    membership = np.zeros((10, 300), dtype=int)
    base = np.repeat([0, 1, 2], 100)
    for v in range(1, 11):
        m = base.copy()
        moved = round(35 * (v - 1) / 9)
        m[100 - moved:100] = 1
        membership[v - 1] = m
    return membership


BENCHMARK1_WEIGHTS = (0.006, 0.018)


def gen_benchmark1(seed=0):
    """Undirected graph, n=300, M=10: three 100-vertex clusters where
    cluster 1 gradually shrinks to 65 and cluster 2 grows to 135.

    Dense blocks with small edge weights: the clustering pipeline is
    invariant under weight scale, while the supra-Laplacian baseline is
    not, and this scale places its aggregation and temporal coupling
    regimes at the conventional coupling strengths (roughly a >= 10 and
    a <= 1e-4 respectively).

    Returns (graph, ground-truth labels).
    """
    membership = benchmark1_membership()
    graph = gen_planted_partition(membership, 0.5, 0.004,
                                  weight_range=BENCHMARK1_WEIGHTS, seed=seed)
    return graph, membership


def gen_benchmark2(seed=0):
    """Directed graph, n=400, M=10: one 200-vertex diagonal cluster that
    splits in half, plus two 100-vertex off-diagonal clusters.

    Edges appear with probability 0.5 inside the dense blocks and 0.01
    elsewhere. The off-diagonal clusters X and Y carry no internal
    structure; X's vertices share dense out-links to Y and in-links from Y,
    which shows up as two dense off-diagonal adjacency blocks. The split is
    realized by removing each edge between the two halves of the big
    cluster with probability 0.5 at every view transition (cumulatively).
    Ground truth uses four labels, splitting the big cluster from view 4 on.

    Returns (graph, ground-truth labels).
    """
    n, M = 400, 10
    rng = np.random.default_rng(seed)
    groups = {"A1": slice(0, 100), "A2": slice(100, 200),
              "X": slice(200, 300), "Y": slice(300, 400)}

    dense = np.zeros((n, n), dtype=bool)
    dense[groups["A1"].start:groups["A2"].stop, groups["A1"].start:groups["A2"].stop] = True
    dense[groups["X"], groups["Y"]] = True
    dense[groups["Y"], groups["X"]] = True
    prob = np.where(dense, 0.5, 0.01)
    np.fill_diagonal(prob, 0.0)
    present = rng.random((n, n)) < prob
    weights = np.where(present, rng.uniform(*DEFAULT_WEIGHTS, (n, n)), 0.0)

    cross = np.zeros((n, n), dtype=bool)
    cross[groups["A1"], groups["A2"]] = True
    cross[groups["A2"], groups["A1"]] = True

    snapshots = []
    surviving = np.ones((n, n), dtype=bool)
    for t in range(M):
        if t > 0:
            removed = cross & (rng.random((n, n)) < 0.5)
            surviving &= ~removed
        snapshots.append(sparse.csr_array(weights * surviving))

    labels = np.zeros((M, n), dtype=int)
    labels[:, groups["X"]] = 1
    labels[:, groups["Y"]] = 2
    labels[3:, groups["A2"]] = 3
    return TimeEvolvingGraph(snapshots, directed=True), labels


def gen_line_graph() -> TimeEvolvingGraph:
    """Six-vertex line graph over four views: two clusters merge.

    Strong edges have weight 1, weak ones 0.1 and very weak ones 0.01. Only
    the edge between vertices 1 and 2 changes, strengthening through
    (0.01, 0.1, 1, 1), so clusters {0, 1} and {2, 3} have merged by the
    last view. Unit self-loops are supplied downstream by the default
    operator regularization rather than stored here.
    """
    v23 = (0.01, 0.1, 1.0, 1.0)
    snapshots = []
    for t in range(4):
        W = np.zeros((6, 6))
        for i, j, w in [(0, 1, 1.0), (1, 2, v23[t]), (2, 3, 1.0),
                        (3, 4, 0.01), (4, 5, 1.0)]:
            W[i, j] = W[j, i] = w
        snapshots.append(W)
    return TimeEvolvingGraph(snapshots)


def static_blocks(n=30, blocks=2, M=3, p_in=0.9, p_out=0.05, seed=0):
    """A time-constant planted partition, mostly for tests and examples."""
    for name, value in (("n", n), ("blocks", blocks), ("M", M)):
        check_integer(name, value, least=1)
    membership = np.tile(np.repeat(np.arange(blocks), n // blocks), (M, 1))
    return gen_planted_partition(membership, p_in, p_out, seed=seed), membership

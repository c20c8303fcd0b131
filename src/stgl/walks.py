"""Random walks on time-evolving graphs and empirical escape rates."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .operators import OperatorSequence


def simulate_walks(ops: OperatorSequence, starts, seed) -> np.ndarray:
    """Walk one particle per entry of ``starts`` across all views.

    Returns the (walkers, M) integer array of visited vertices. The
    position at view t+1 is drawn from row ``paths[i, t]`` of S_t by
    inverting the row's CDF at one uniform, which picks the same column as
    ``Generator.choice(n, p=row)``. Walker i draws its M - 1 uniforms from
    seed (seed, i), so results do not depend on scheduling or batch
    splitting.
    """
    n, M = ops.n, ops.M
    starts = np.asarray(starts, dtype=np.intp)
    bad = np.flatnonzero((starts < 0) | (starts >= n))
    if bad.size:
        raise ValueError(f"start vertex {starts[bad[0]]} out of range [0, {n})")
    uniforms = np.array([np.random.default_rng((seed, i)).random(M - 1)
                         for i in range(len(starts))]).reshape(len(starts), M - 1)
    paths = np.empty((len(starts), M), dtype=np.intp)
    paths[:, 0] = starts
    for t, S in enumerate(ops.transitions[:-1]):
        # the CDF must run over the columns in order, as the dense row does
        S = sparse.csr_array(S).sorted_indices()
        if (S.data < 0).any():
            raise ValueError(f"transition matrix at view {t + 1} has negative entries")
        order = np.argsort(paths[:, t])
        rows, first = np.unique(paths[order, t], return_index=True)
        for r, walkers in zip(rows, np.split(order, first[1:])):
            a, b = S.indptr[r], S.indptr[r + 1]
            cdf = S.data[a:b].cumsum()
            cdf /= cdf[-1]
            paths[walkers, t + 1] = S.indices[a:b][
                cdf.searchsorted(uniforms[walkers, t], side="right")]
    return paths


def escape_rate(paths, set_per_view) -> float:
    """Fraction of walkers that leave the designated vertex set at any view.

    ``paths`` is the (walkers, M) array of ``simulate_walks``.
    ``set_per_view`` is either a single collection of vertices (used for
    all views) or one collection per view.
    """
    if not len(paths):
        raise ValueError("need at least one walker")
    M = paths.shape[1]
    sets = list(set_per_view)
    if sets and isinstance(sets[0], (set, frozenset, list, tuple, np.ndarray)):
        if len(sets) != M:
            raise ValueError(f"expected {M} per-view sets, got {len(sets)}")
    else:
        sets = [sets] * M
    stayed = np.logical_and.reduce(
        [np.isin(paths[:, t], [int(v) for v in s]) for t, s in enumerate(sets)])
    return np.count_nonzero(~stayed) / len(paths)


def occupancy(paths, vertex_set) -> np.ndarray:
    """Per-view fraction of walkers inside ``vertex_set``."""
    if not len(paths):
        raise ValueError("need at least one walker")
    return np.isin(paths, [int(v) for v in vertex_set]).sum(axis=0) / len(paths)

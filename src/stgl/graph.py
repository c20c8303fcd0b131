"""Time-evolving graphs: a fixed vertex set with one weighted snapshot per view."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import GraphFormatError


def index_dtype(size):
    """The sparse index type for arrays whose entries and lengths are at
    most ``size``: int32 where it fits, int64 beyond."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def _as_csr(W, n=None):
    """W as a zero-free, index-sorted float64 csr_array of arrays of its own,
    n x n (square for n None), with finite, nonnegative real weights and
    int32 indices wherever they fit."""
    if np.iscomplexobj(W):  # the float64 cast would drop the imaginary parts
        raise GraphFormatError("complex edge weight")
    A = sparse.csr_array(W, dtype=np.float64, copy=True)
    n = A.shape[0] if n is None else n
    if A.shape != (n, n):
        raise GraphFormatError(f"snapshot has shape {A.shape}, expected {(n, n)}")
    if not np.isfinite(A.data).all():
        raise GraphFormatError("non-finite edge weight")
    if A.nnz and A.data.min() < 0:
        raise GraphFormatError("negative edge weight")
    with np.errstate(over="ignore"):
        if not np.isfinite(A.sum(axis=1)).all():
            raise GraphFormatError("edge weights overflow a vertex degree")
    A.eliminate_zeros()
    A.sort_indices()
    index = index_dtype(max(A.nnz, n))
    A.indices, A.indptr = (a.astype(index, copy=False) for a in (A.indices, A.indptr))
    return A


@dataclass(frozen=True)
class TimeEvolvingGraph:
    """A sequence of weighted adjacency snapshots over a fixed vertex set.

    Vertices are indexed 0..n-1 and views 1..M (stored 0-based in
    ``snapshots``), n and M read off the snapshots, dense or sparse. Entry
    (i, j) of a snapshot is the weight of the edge i -> j at that view; for
    undirected graphs every snapshot is symmetric. Each snapshot is stored
    as a zero-free float64 ``csr_array`` with sorted indices, in arrays of
    the graph's own, not the caller's; its ``indices`` and ``indptr`` are
    int32 unless n or the stored entry count exceeds 2^31 - 1. Every matrix
    the pipeline derives from it keeps that index order and width.
    """

    snapshots: tuple = field(repr=False)
    directed: bool = False

    def __post_init__(self):
        if len(self.snapshots) < 2:
            raise GraphFormatError("need at least two views")
        first = _as_csr(self.snapshots[0])
        if first.shape[0] < 1:
            raise GraphFormatError("vertex count must be positive")
        snaps = (first, *(_as_csr(W, first.shape[0]) for W in self.snapshots[1:]))
        if not self.directed:
            for t, W in enumerate(snaps):
                if (W - W.T).count_nonzero():
                    raise GraphFormatError(f"snapshot {t + 1} of an undirected graph "
                                           "is not symmetric")
        object.__setattr__(self, "snapshots", snaps)

    @property
    def n(self):
        return self.snapshots[0].shape[0]

    @property
    def M(self):
        return len(self.snapshots)

    def edge_arrays(self):
        """(t, i, j, w) arrays of the stored edges, t 1-based, view by view in
        CSR order; undirected edges once (i <= j) and w as float64."""
        coos = [W.tocoo() for W in self.snapshots]
        t = np.repeat(np.arange(1, self.M + 1), [coo.nnz for coo in coos])
        i, j, w = (np.concatenate([getattr(coo, name) for coo in coos])
                   for name in ("row", "col", "data"))
        keep = slice(None) if self.directed else i <= j
        return t[keep], i[keep], j[keep], w[keep]

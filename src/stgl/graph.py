"""Time-evolving graphs: a fixed vertex set with one weighted snapshot per view."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import GraphFormatError


def _as_csr(W, n):
    A = sparse.csr_array(W)
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
    return A


@dataclass(frozen=True)
class TimeEvolvingGraph:
    """A sequence of weighted adjacency snapshots over a fixed vertex set.

    Vertices are indexed 0..n-1 and views 1..M (stored 0-based in
    ``snapshots``). Entry (i, j) of a snapshot is the weight of the edge
    i -> j at that view; for undirected graphs every snapshot is symmetric.
    """

    n: int
    M: int
    snapshots: tuple = field(repr=False)
    directed: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise GraphFormatError("vertex count must be positive")
        if self.M < 2:
            raise GraphFormatError("need at least two views")
        if len(self.snapshots) != self.M:
            raise GraphFormatError(f"expected {self.M} snapshots, got {len(self.snapshots)}")
        snaps = tuple(_as_csr(W, self.n) for W in self.snapshots)
        if not self.directed:
            for t, W in enumerate(snaps):
                if (W - W.T).count_nonzero():
                    raise GraphFormatError(f"snapshot {t + 1} of an undirected graph "
                                           "is not symmetric")
        object.__setattr__(self, "snapshots", snaps)

    @classmethod
    def from_dense(cls, matrices, directed=False):
        matrices = [np.asarray(W, dtype=float) for W in matrices]
        n = matrices[0].shape[0]
        return cls(n=n, M=len(matrices), snapshots=tuple(matrices), directed=directed)

    def dense(self, t):
        """Snapshot of view t (1-based) as a dense array."""
        return self.snapshots[t - 1].toarray()

    def with_self_loops(self, weight=1.0):
        """Copy of the graph with ``weight`` added to every diagonal entry.

        Guarantees positive out-degrees, hence strictly positive densities
        under propagation.
        """
        eye = sparse.identity(self.n, format="csr") * weight
        snaps = tuple(sparse.csr_array(W + eye) for W in self.snapshots)
        return TimeEvolvingGraph(n=self.n, M=self.M, snapshots=snaps,
                                 directed=self.directed)

    def edge_records(self):
        """Yield (t, i, j, w) records, t 1-based; undirected edges once (i <= j)."""
        for t, W in enumerate(self.snapshots, start=1):
            coo = W.tocoo()
            for i, j, w in zip(coo.row, coo.col, coo.data):
                if not self.directed and j < i:
                    continue
                yield t, int(i), int(j), float(w)

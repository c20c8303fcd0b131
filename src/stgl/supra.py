"""Supra-Laplacian baseline: per-view Laplacians coupled by identity blocks.

The comparison method stacks a graph Laplacian of every snapshot on the
diagonal of an Mn x Mn matrix and couples adjacent views with strength a.
Written as a proper Laplacian of the layered graph, adjacent off-diagonal
blocks are -a I and the coupling degree is added on the diagonal, so for
undirected input the matrix is symmetric positive semidefinite. The
coupling strength has to be tuned; see the two limiting regimes in
``supra_cluster``.

Variants: "unnormalized" (default) uses D - W per view and has exactly
-a I off-diagonal blocks. "normalized" is the random-walk Laplacian
I - D^{-1} W of the whole coupled layered graph; its off-diagonal blocks
carry degree-scaled coupling and the matrix itself is asymmetric, but the
spectrum is still real (similar to a symmetric matrix) and the
eigenproblem is solved in that symmetric form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .clustering import ClusteringResult, kmeans
from .errors import DirectedInput, InsufficientSpatialEigenvectors
from .graph import TimeEvolvingGraph
from .laplacian import fold_eigenvector, symmetric_eigenpairs

VARIANTS = ("unnormalized", "normalized")

# Threshold of the heuristic ``classify_folded``: the normalized variant has
# no exact temporal subspace, so temporal eigenvectors are recognized by
# their within-view spread.
DEFAULT_TAU = 0.05


@dataclass(frozen=True)
class SupraSystem:
    """The assembled supra-Laplacian and its construction parameters.

    ``H`` is the symmetric matrix whose eigendecomposition solves L_S, and
    ``scale`` maps its eigenvectors back to those of L_S (identity scale
    for the unnormalized variant, where H is L_S itself).
    """

    n: int
    M: int
    a: float
    laplacian_variant: str
    H: sparse.csr_array = field(repr=False)
    scale: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.M * self.n

    @property
    def L_S(self):
        """The supra-Laplacian diag(scale) H diag(1 / scale)."""
        left = sparse.dia_array((self.scale[None, :], [0]), shape=self.H.shape)
        right = sparse.dia_array((1.0 / self.scale[None, :], [0]), shape=self.H.shape)
        return sparse.csr_array(left @ self.H @ right)


def symmetrize(graph: TimeEvolvingGraph) -> TimeEvolvingGraph:
    """Remove directionality: W <- (W + W^T) / 2 per view."""
    snaps = tuple(sparse.csr_array((W + W.T) * 0.5) for W in graph.snapshots)
    return TimeEvolvingGraph(n=graph.n, M=graph.M, snapshots=snaps, directed=False)


def _interlayer(M, n, a):
    """Path-graph Laplacian over the views, lifted to Mn vertices."""
    path = sparse.diags_array([-np.ones(M - 1), np.ones(M), -np.ones(M - 1)],
                              offsets=[-1, 0, 1], format="lil")
    deg = np.ones(M) * 2.0
    deg[[0, -1]] = 1.0
    path.setdiag(deg)
    return a * sparse.kron(sparse.csr_array(path), sparse.identity(n, format="csr"))


def build_supra(graph: TimeEvolvingGraph, a, variant="unnormalized", *,
                self_loops=True) -> SupraSystem:
    """Assemble the supra-Laplacian with constant coupling strength a.

    Directed input is rejected: the resulting matrix would have complex
    eigenvalues in general, so callers must ``symmetrize`` first.
    """
    if graph.directed:
        raise DirectedInput("supra-Laplacian needs an undirected graph; "
                            "apply symmetrize() first")
    if a < 0:
        raise ValueError("coupling strength must be nonnegative")
    if variant not in VARIANTS:
        raise ValueError(f"unknown Laplacian variant {variant!r}; "
                         f"expected one of {VARIANTS}")
    n, M = graph.n, graph.M
    N = M * n

    if variant == "unnormalized":
        # self-loops cancel in D - W, so the raw snapshots are used as-is
        blocks = []
        for W in graph.snapshots:
            degrees = np.asarray(W.sum(axis=1)).ravel()
            blocks.append(sparse.csr_array(
                sparse.dia_array((degrees[None, :], [0]), shape=W.shape) - W))
        L = sparse.csr_array(sparse.block_diag(blocks, format="csr") + _interlayer(M, n, a))
        return SupraSystem(n=n, M=M, a=float(a), laplacian_variant=variant,
                           H=L, scale=np.ones(N))

    g = graph.with_self_loops() if self_loops else graph
    W_sup = sparse.csr_array(sparse.block_diag(g.snapshots, format="csr"))
    if a > 0:
        adj = sparse.diags_array([np.ones(M - 1), np.ones(M - 1)],
                                 offsets=[-1, 1], format="csr")
        W_sup = sparse.csr_array(
            W_sup + a * sparse.kron(adj, sparse.identity(n, format="csr")))
    degrees = np.asarray(W_sup.sum(axis=1)).ravel()
    if degrees.min() <= 0:
        raise ValueError("normalized variant needs positive degrees; "
                         "enable self-loops or regularize the graph")
    eye = sparse.identity(N, format="csr")
    inv_sqrt = sparse.dia_array(((1.0 / np.sqrt(degrees))[None, :], [0]),
                                shape=W_sup.shape)
    H = sparse.csr_array(eye - inv_sqrt @ W_sup @ inv_sqrt)
    H = sparse.csr_array((H + H.T) * 0.5)
    return SupraSystem(n=n, M=M, a=float(a), laplacian_variant=variant,
                       H=H, scale=1.0 / np.sqrt(degrees))


def classify_folded(folded, tau=DEFAULT_TAU):
    """Tag one folded eigenvector as constant, temporal or spatial.

    Temporal means every view slice is constant (within-slice spread below
    tau times the overall spread) while the per-view constants differ.
    """
    flat = folded.ravel()
    overall = flat.std()
    rms = np.sqrt(np.mean(flat ** 2))
    if overall <= tau * rms:
        return "constant"
    if np.all(folded.std(axis=1) <= tau * overall):
        return "temporal"
    return "spatial"


def supra_spectrum(system: SupraSystem, j):
    """The j smallest eigenpairs of L_S, eigenvalues ascending."""
    vals, vecs = symmetric_eigenpairs(system.H, j, largest=False)
    return vals, vecs * system.scale[:, None]


def supra_cluster(system: SupraSystem, k, seed=0, *, restarts=10,
                  tau=DEFAULT_TAU, filter_temporal=True) -> ClusteringResult:
    """Spectral clustering with the supra-Laplacian.

    Embeds each (view, vertex) pair with the eigenvectors of the k smallest
    eigenvalues, optionally skipping temporal ones (constant within each
    view), and clusters all rows jointly with k-means. With very large a
    the labels aggregate each vertex across time; with very small a whole
    views are grouped together (run with ``filter_temporal=False`` to see
    that regime).
    """
    N = system.size
    j = min(N, k + system.M + 3)
    while True:
        _, vecs = supra_spectrum(system, j)
        if filter_temporal:
            tags = [classify_folded(fold_eigenvector(vecs[:, c], system.n, system.M), tau)
                    for c in range(vecs.shape[1])]
            keep = [c for c, tag in enumerate(tags) if tag != "temporal"]
        else:
            keep = list(range(vecs.shape[1]))
        if len(keep) >= k:
            keep = keep[:k]
            break
        if j >= N:
            raise InsufficientSpatialEigenvectors(len(keep), k)
        j = min(N, 2 * j)
    points = vecs[:, keep]
    return kmeans(points, k, seed=seed, restarts=restarts, views=system.M)

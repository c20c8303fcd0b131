"""Supra-Laplacian baseline: per-view Laplacians coupled by identity blocks.

The comparison method stacks a graph Laplacian of every snapshot on the
diagonal of an Mn x Mn matrix and couples adjacent views with strength a.
Written as a proper Laplacian of the layered graph, adjacent off-diagonal
blocks are -a I and the coupling degree is added on the diagonal, so for
undirected input the matrix is symmetric positive semidefinite. The
coupling strength has to be tuned; see the two limiting regimes in
``supra_cluster``.

Variants: "unnormalized" (the default of ``build_supra``) uses D - W per
view and has exactly -a I off-diagonal blocks. "normalized" (the default of
``stgl baseline --laplacian-variant``) is the random-walk Laplacian
I - D^{-1} W of the whole coupled layered graph; its off-diagonal blocks
carry degree-scaled coupling and the matrix itself is asymmetric, but the
spectrum is still real (similar to a symmetric matrix) and the
eigenproblem is solved in that symmetric form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .clustering import ClusteringResult, check_k, kmeans, select_spatial
from .errors import DirectedInput
from .graph import TimeEvolvingGraph, index_dtype
from .laplacian import (check_folding, eigenpair_order, symmetric_eigenpairs,
                        view_weights)

VARIANTS = ("unnormalized", "normalized")

# Threshold of the heuristic ``classify_folded``: the normalized variant has
# no exact temporal subspace, so temporal eigenvectors are recognized by
# their within-view spread.
DEFAULT_TAU = 0.05


@dataclass(frozen=True)
class SupraSystem:
    """The assembled supra-Laplacian of an n-vertex, M-view graph.

    ``H`` is the symmetric matrix whose eigendecomposition solves the
    supra-Laplacian L_S = diag(scale) H diag(1 / scale), and ``scale`` maps
    its eigenvectors back to those of L_S (identity scale for the
    unnormalized variant, where H is L_S itself).
    """

    M: int
    H: sparse.csr_array = field(repr=False)
    scale: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = np.shape(self.H)
        check_folding(self.M, shape, "H")
        if shape[0] != shape[1]:
            raise ValueError(f"H must be square, got shape {shape}")
        if np.shape(self.scale) != (self.size,):
            raise ValueError(f"scale must have length {self.size}, "
                             f"got shape {np.shape(self.scale)}")

    @property
    def size(self):
        return self.H.shape[0]


def symmetrize(graph: TimeEvolvingGraph) -> TimeEvolvingGraph:
    """Remove directionality: W <- (W + W^T) / 2 per view."""
    snaps = tuple(sparse.csr_array((W + W.T) * 0.5) for W in graph.snapshots)
    return TimeEvolvingGraph(snaps)


def build_supra(graph: TimeEvolvingGraph, a, variant="unnormalized") -> SupraSystem:
    """Assemble the supra-Laplacian with constant coupling strength a.

    Both variants start from the layered-graph adjacency
    W = blockdiag(W_t) + a (P kron I), P the path adjacency over the views.
    "unnormalized" takes H = diag(W 1) - W on the raw snapshots (self-loops
    cancel there); "normalized" takes H = I - D^{-1/2} W D^{-1/2} on the
    self-looped snapshots, so every degree is at least 1. Directed input is
    rejected: the resulting matrix would have complex eigenvalues in general,
    so callers must ``symmetrize`` first.

    W is written in one pass over the views straight into the CSR arrays of
    the result: row (t, i) holds the coupling to (t - 1, i), row i of view t
    and the coupling to (t + 1, i), and a = 0 gives no coupling entries. The
    normalized H is then computed in place, one view at a time, so the
    memory is H plus one view's temporaries; the unnormalized H is
    diag(W 1) - W in one subtraction. Every step rounds as the chained
    scipy construction (block_diag, kron, diagonal products and (H + H^T) / 2)
    does, so H and ``scale`` are that construction's to the bit.
    """
    if graph.directed:
        raise DirectedInput("supra-Laplacian needs an undirected graph; "
                            "apply symmetrize() first")
    if not 0 <= a < math.inf:
        raise ValueError(f"coupling strength must be finite and nonnegative, got {a}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown Laplacian variant {variant!r}; "
                         f"expected one of {VARIANTS}")
    n, M = graph.n, graph.M
    N = M * n
    normalized = variant == "normalized"
    eye = sparse.identity(n, format="csr")

    def view(t):
        """View t's rows as they enter W: the graph stores them sorted, and
        the normalized variant self-loops them by the sum W + I that
        ``propagate_densities`` takes."""
        V = graph.snapshots[t]
        return sparse.csr_array(V + eye) if normalized else V

    # the coupling degree of a vertex: 1 at an end view, 2 in between; a row
    # holds its view's row and, unless a = 0, one entry per coupling
    coupled = np.repeat(view_weights(M), n)
    counts = coupled.astype(int) if a else np.zeros(N, int)
    for t in range(M):
        counts[t * n:(t + 1) * n] += np.diff(view(t).indptr)
    index = index_dtype(max(N, counts.sum()))
    indptr = np.zeros(N + 1, index)
    np.cumsum(counts, out=indptr[1:])
    indices, data = np.empty(indptr[-1], index), np.empty(indptr[-1])
    for t in range(M):
        V = view(t)
        vertices = np.arange(t * n, (t + 1) * n)
        first, last = indptr[vertices], indptr[vertices + 1] - 1
        if a and t > 0:
            indices[first], data[first] = vertices - n, a
            first += 1
        if a and t < M - 1:
            indices[last], data[last] = vertices + n, a
        at = np.repeat(first - V.indptr[:-1], np.diff(V.indptr)) + np.arange(V.nnz)
        indices[at], data[at] = np.add(V.indices, t * n, dtype=index), V.data
    W = sparse.csr_array((data, indices, indptr), shape=(N, N))

    if not normalized:
        # diag(W 1) as snapshot degree plus coupling degree, which rounds
        # exactly like the per-view D_t - W_t plus the lifted path Laplacian
        degrees = (np.concatenate([view(t).sum(axis=1) for t in range(M)])
                   + a * coupled)
        H = sparse.csr_array(sparse.diags_array(degrees) - W)
        return SupraSystem(M=M, H=H, scale=np.ones(N))

    # H = (H0 + H0^T) / 2 with H0 = I - D^{-1/2} W D^{-1/2}, view by view in
    # W's arrays; W is exactly symmetric, so entry (c, r) of H0 is computed
    # at (r, c) from the same weight
    scale = 1.0 / np.sqrt(W.sum(axis=1))
    for t in range(M):
        part = slice(indptr[t * n], indptr[(t + 1) * n])
        r = np.repeat(np.arange(t * n, (t + 1) * n), counts[t * n:(t + 1) * n])
        c, w = indices[part], data[part]
        x, y = scale[r] * w * scale[c], scale[c] * w * scale[r]
        data[part] = np.where(r == c, (1 - x) + (1 - x), (-x) + (-y))
    W.eliminate_zeros()  # a sum of exact zero, which H0 + H0^T drops
    W.data *= 0.5
    return SupraSystem(M=M, H=W, scale=scale)


def classify_folded(folded):
    """Tag one folded eigenvector as constant, temporal or spatial.

    Temporal means every view slice is constant (within-slice spread below
    ``DEFAULT_TAU`` times the overall spread) while the per-view constants
    differ.
    """
    flat = folded.ravel()
    overall = flat.std()
    rms = np.sqrt(np.mean(flat ** 2))
    if overall <= DEFAULT_TAU * rms:
        return "constant"
    if np.all(folded.std(axis=1) <= DEFAULT_TAU * overall):
        return "temporal"
    return "spatial"


def supra_spectrum(system: SupraSystem, j):
    """The j smallest eigenpairs of L_S, ascending by ``eigenpair_order``."""
    vals, vecs = symmetric_eigenpairs(system.H, j, largest=False)
    order = eigenpair_order(vals, vecs)
    return vals[order], vecs[:, order] * system.scale[:, None]


def supra_cluster(system: SupraSystem, k, seed=0, *, restarts=10,
                  filter_temporal=True) -> ClusteringResult:
    """Spectral clustering with the supra-Laplacian.

    Embeds each (view, vertex) pair with the eigenvectors of the k smallest
    eigenvalues, optionally skipping temporal ones (constant within each
    view, tagged by ``classify_folded``), and clusters all rows jointly with
    k-means. With very large a the labels aggregate each vertex across time;
    with very small a whole views are grouped together (run with
    ``filter_temporal=False`` to see that regime).

    One solve for j = min(N, k + M + 3) pairs suffices. A vector tagged
    temporal lies within relative distance tau of the M-dimensional span of
    per-view constants, and M + 1 orthonormal vectors that close to an
    M-dimensional span need (M + 1) tau^2 >= 1. So at most M of the j
    vectors are temporal, leaving k + 3 others, as long as
    (M + 1) tau^2 < 1 (M < 399 at tau = 0.05). The normalized variant's
    eigenvectors are D-orthonormal, and its condition gains a factor
    d_max / d_min: (M + 1) tau^2 d_max / d_min < 1. Beyond that bound, or
    when j = N holds fewer than k non-temporal vectors, the selection
    raises InsufficientSpatialEigenvectors, as ``spectral_cluster`` does.
    A k or a ``restarts`` that is not an integer of at least 1 is rejected
    before the solve.
    """
    check_k(k, restarts)
    M = system.M
    vals, vecs = supra_spectrum(system, min(system.size, k + M + 3))
    if filter_temporal:
        tags = tuple(classify_folded(f) for f in vecs.T.reshape(len(vals), M, -1))
    else:
        # unfiltered: every vector is eligible
        tags = ("spatial",) * len(vals)
    selection = select_spatial(tags, k)
    return kmeans(vecs[:, list(selection)], k, seed=seed, restarts=restarts,
                  views=M)

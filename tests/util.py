"""Shared helpers for the test suite."""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from stgl import TimeEvolvingGraph, assemble_system, propagate_densities


def random_teg(seed, n_max=50, M_max=6, density=0.25):
    """A random sparse time-evolving graph; alternates directed/undirected."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    M = int(rng.integers(2, M_max + 1))
    directed = bool(rng.integers(2))
    snaps = []
    for _ in range(M):
        W = rng.random((n, n)) * (rng.random((n, n)) < density)
        np.fill_diagonal(W, 0.0)
        if not directed:
            W = np.triu(W)
            W = W + W.T
        snaps.append(W)
    return TimeEvolvingGraph.from_dense(snaps, directed=directed)


def build_system(graph, **kwargs):
    return assemble_system(propagate_densities(graph, **kwargs))


def ari_pair_oracle(a, b):
    """Exhaustive pair enumeration over all C(n, 2) item pairs."""
    n = len(a)
    s11 = s10 = s01 = s00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                s11 += 1
            elif same_a:
                s10 += 1
            elif same_b:
                s01 += 1
            else:
                s00 += 1
    denominator = (s11 + s10) * (s10 + s00) + (s11 + s01) * (s01 + s00)
    if denominator == 0:
        return 1.0
    return 2 * (s11 * s00 - s10 * s01) / denominator


def reference_symmetrized(graph):
    """Independent dense construction of B^{-1/2} A B^{-1/2}.

    Assembles the covariance blocks directly from the definitions, without
    going through the library's system assembly.
    """
    ops = propagate_densities(graph)
    n, M = graph.n, ops.M
    N = M * n
    A = np.zeros((N, N))
    for t in range(M - 1):
        S = ops.transition_dense(t + 1)
        cross = np.diag(ops.densities[t]) @ S
        A[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n] = cross
        A[(t + 1) * n:(t + 2) * n, t * n:(t + 1) * n] = cross.T
    b = np.concatenate([(1.0 if t in (0, M - 1) else 2.0) * ops.densities[t]
                        for t in range(M)])
    d = 1.0 / np.sqrt(b)
    return d[:, None] * A * d[None, :], b


def transfer_operator_C(ops):
    """C assembled from the Koopman and reweighted Perron-Frobenius blocks.

    The second route to C = B^{-1} A: block (t, t+1) is the Koopman matrix
    S_t and block (t+1, t) the reweighted Perron-Frobenius matrix
    D_{mu_{t+1}}^{-1} S_t^T D_{mu_t}, each halved when its row view is
    interior. Never touches the library's A or B.
    """
    n, M = ops.n, ops.M
    mus = ops.densities
    blocks = [[None] * M for _ in range(M)]
    for t in range(M - 1):
        koop = sparse.csr_array(ops.transitions[t])
        inv_mu = sparse.dia_array((1.0 / mus[t + 1][None, :], [0]), shape=(n, n))
        mu = sparse.dia_array((mus[t][None, :], [0]), shape=(n, n))
        pf = sparse.csr_array(inv_mu @ ops.transitions[t].T @ mu)
        blocks[t][t + 1] = koop if t == 0 else koop * 0.5
        blocks[t + 1][t] = pf if t == M - 2 else pf * 0.5
    return sparse.csr_array(sparse.block_array(blocks, format="csr"))


def reference_random_walk_laplacian(graph, a, self_loops=True):
    """Dense I - D^{-1} W of the layered graph coupled with strength a.

    W stacks the (optionally self-looped) snapshots on the diagonal and
    links each vertex to its copies at adjacent views with weight a.
    """
    g = graph.with_self_loops() if self_loops else graph
    n, M = g.n, g.M
    W = np.zeros((M * n, M * n))
    for t in range(M):
        W[t * n:(t + 1) * n, t * n:(t + 1) * n] = g.dense(t + 1)
    for t in range(M - 1):
        idx = np.arange(n)
        W[t * n + idx, (t + 1) * n + idx] = a
        W[(t + 1) * n + idx, t * n + idx] = a
    return np.eye(M * n) - W / W.sum(axis=1)[:, None]


def reference_walks(ops, starts, seed):
    """The per-walker walk: one ``Generator.choice`` call per step.

    Walker i draws from ``default_rng((seed, i))`` and reads each row of
    S_t densely, so nothing depends on the CSR layout of the transitions.
    """
    n = ops.n
    paths = []
    for i, start in enumerate(starts):
        if not 0 <= start < n:
            raise ValueError(f"start vertex {start} out of range [0, {n})")
        rng = np.random.default_rng((seed, i))
        path = [int(start)]
        for S in ops.transitions[:-1]:
            row = sparse.csr_array(S)[[path[-1]], :].toarray().ravel()
            path.append(int(rng.choice(n, p=row)))
        paths.append(path)
    return np.array(paths, dtype=np.intp).reshape(len(starts), ops.M)


def arpack_two_converged(A, k, **kwargs):
    """Stands in for ``eigsh``: fails with two converged eigenpairs."""
    N = A.shape[0]
    raise ArpackNoConvergence("no convergence", np.zeros(2), np.zeros((N, 2)))

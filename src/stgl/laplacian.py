"""The spatio-temporal graph Laplacian: assembly, eigenproblem, eigenvector tags.

The coupled system lives on M copies of the vertex set. A is the symmetric
block-tridiagonal matrix of cross-covariances, B the diagonal matrix of
(doubled interior) covariances, and C = B^{-1} A the row-stochastic matrix
whose dominant eigenvectors carry the cluster structure. L = I - C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceFailure, StglError
from .operators import OperatorSequence

# Largest system solved by a full dense symmetric decomposition; beyond this
# a restarted Lanczos iteration is used. Read at call time. The two solvers
# cross over near N = 700 on ``static_blocks`` systems (one BLAS thread on a
# 2-vCPU Xeon).
DENSE_EIG_CUTOFF = 700

# Seed of the Lanczos starting vector, so repeated solves agree bitwise
# instead of depending on ARPACK's state from earlier calls.
LANCZOS_SEED = 0

# Eigenvalues above this are surfaced by default; negative ones correspond to
# negatively correlated functions and are filtered.
NEGATIVE_EIG_CUTOFF = -1e-12

# Rows of a dense matrix updated at once when a low-rank term is subtracted
# in place, so the temporary never approaches a second N x N array.
LOW_RANK_ROW_CHUNK = 256


def view_weights(M):
    """Weight of each view in B: 1 at the two end views, 2 in between."""
    weights = np.ones(M)
    weights[1:-1] = 2.0
    return weights


@dataclass(frozen=True)
class SpatioTemporalSystem:
    """Assembled block matrices of the coupled eigenproblem.

    ``A`` is Mn x Mn sparse symmetric and ``B_diag`` the positive diagonal
    of B; B, C and L are derived from them.
    """

    n: int
    M: int
    A: sparse.csr_array = field(repr=False)
    B_diag: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.M * self.n

    @property
    def B(self):
        return sparse.dia_array((self.B_diag[None, :], [0]), shape=self.A.shape)

    @property
    def C(self):
        """The row-stochastic matrix B^{-1} A."""
        inv_b = sparse.dia_array((1.0 / self.B_diag[None, :], [0]), shape=self.A.shape)
        return sparse.csr_array(inv_b @ self.A)

    @property
    def L(self):
        """The spatio-temporal graph Laplacian I - C."""
        return sparse.csr_array(sparse.identity(self.size, format="csr") - self.C)

    def symmetrized(self):
        """B^{-1/2} A B^{-1/2}: symmetric, with the same spectrum as C."""
        d = sparse.dia_array((1.0 / np.sqrt(self.B_diag)[None, :], [0]),
                             shape=self.A.shape)
        H = sparse.csr_array(d @ self.A @ d)
        asym = abs(H - H.T)
        if asym.nnz and not asym.data.max() <= 1e-12:
            raise StglError("symmetrized system is not symmetric")
        return sparse.csr_array((H + H.T) * 0.5)

    def temporal_basis(self):
        """Per-view constants in symmetric form: (Q, T) with H Q = Q T.

        Column t of the N x M matrix Q is sqrt(b_t) / sqrt(w_t) on view t
        and zero elsewhere (b_t the view-t block of B, w_t its view weight),
        so Q is orthonormal because every density has unit sum. T = Q^T H Q
        is tridiagonal with zero diagonal and off-diagonal entries
        1 / sqrt(w_t w_{t+1}); its eigenvalues are cos(pi k / (M - 1)).
        """
        n, M = self.n, self.M
        w = view_weights(M)
        Q = np.zeros((self.size, M))
        for t in range(M):
            Q[t * n:(t + 1) * n, t] = np.sqrt(self.B_diag[t * n:(t + 1) * n] / w[t])
        off = 1.0 / np.sqrt(w[:-1] * w[1:])
        T = np.diag(off, 1) + np.diag(off, -1)
        return Q, T


@dataclass(frozen=True)
class SpectralEmbedding:
    """Dominant eigenpairs of C, folded into per-view slices and tagged.

    Eigenvalues are sorted descending; eigenvectors (columns of ``vectors``)
    are B-orthonormal. ``folded[i]`` is eigenvector i viewed as M x n, and
    ``tags[i]`` is one of "constant", "temporal", "spatial": exact, since
    the temporal pairs are built in closed form and the spatial ones solved
    on the complement of the per-view constants. ``supra_cluster`` also
    wraps supra-Laplacian eigenpairs in it (ascending, tags thresholded).
    """

    n: int
    M: int
    eigenvalues: np.ndarray
    vectors: np.ndarray = field(repr=False)
    tags: tuple

    def __len__(self):
        return len(self.eigenvalues)

    @property
    def folded(self):
        """Eigenvectors as a k x M x n view of ``vectors``."""
        return self.vectors.T.reshape(len(self), self.M, self.n)


def assemble_system(ops: OperatorSequence) -> SpatioTemporalSystem:
    """Build A and the diagonal of B from the per-view operators."""
    n, M = ops.n, ops.M
    mus = ops.densities

    blocks_A = [[None] * M for _ in range(M)]
    for t in range(M - 1):
        # C_t(t+1) = D_{mu_t} S_t
        scale = sparse.dia_array((mus[t][None, :], [0]), shape=(n, n))
        cross = sparse.csr_array(scale @ ops.transitions[t])
        blocks_A[t][t + 1] = cross
        blocks_A[t + 1][t] = cross.T
    A = sparse.csr_array(sparse.block_array(blocks_A, format="csr"))

    B_diag = np.concatenate([w * mu for w, mu in zip(view_weights(M), mus)])
    return SpatioTemporalSystem(n=n, M=M, A=A, B_diag=B_diag)


def _fix_signs(vecs):
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
        if nz.size and v[nz[0]] < 0:
            vecs[:, j] = -v
    return vecs


def _order_eigenpairs(vals, vecs, descending):
    """Sort by eigenvalue, breaking exact ties lexicographically.

    Returns the sorted eigenpairs and the column permutation applied.
    """
    vecs = _fix_signs(vecs)
    order = np.argsort(-vals if descending else vals, kind="stable")
    sorted_vals = vals[order]
    i = 0
    while i < len(order):
        j = i + 1
        while j < len(order) and sorted_vals[j] == sorted_vals[i]:
            j += 1
        if j - i > 1:
            order[i:j] = sorted(order[i:j], key=lambda c: tuple(vecs[:, c]))
        i = j
    return vals[order], vecs[:, order], order


def symmetric_eigenpairs(H, k, *, largest=True, low_rank=None):
    """The k extreme eigenpairs of a symmetric matrix, deterministically ordered.

    With ``low_rank = (Q, S)``, an N x r matrix and a symmetric r x r
    matrix, the eigenpairs are those of H - Q S Q^T. Dense decomposition up
    to ``DENSE_EIG_CUTOFF`` and wherever a Krylov basis of 3k vectors would
    span the whole space (3k >= N); otherwise restarted Lanczos from a
    seeded starting vector with a basis of max(3k, 20) vectors. Largest mode
    returns eigenvalues descending, smallest mode ascending.
    """
    N = H.shape[0]
    k = min(k, N)
    if k == 0:
        return np.empty(0), np.empty((N, 0))
    if N <= DENSE_EIG_CUTOFF or 3 * k >= N:
        Hd = H.toarray() if sparse.issparse(H) else np.array(H, dtype=float)
        if low_rank is not None:
            Q, S = low_rank
            QS = Q @ S
            for lo in range(0, N, LOW_RANK_ROW_CHUNK):
                rows = slice(lo, lo + LOW_RANK_ROW_CHUNK)
                Hd[rows] -= QS[rows] @ Q.T
        lo, hi = (N - k, N - 1) if largest else (0, k - 1)
        vals, vecs = eigh(Hd, subset_by_index=(lo, hi))
    else:
        op = H
        if low_rank is not None:
            Q, S = low_rank
            op = LinearOperator(H.shape, dtype=float,
                                matvec=lambda x: H @ x - Q @ (S @ (Q.T @ x)))
        v0 = np.random.default_rng(LANCZOS_SEED).uniform(-1.0, 1.0, N)
        try:
            # ARPACK's default basis of 2k + 1 restarts too often here
            vals, vecs = eigsh(op, k=k, which="LA" if largest else "SA", v0=v0,
                               ncv=min(N, max(3 * k, 20)))
        except ArpackNoConvergence as err:
            raise ConvergenceFailure(
                f"Lanczos iteration converged {len(err.eigenvalues)} of {k} "
                f"eigenpairs", converged=len(err.eigenvalues), requested=k,
            ) from err
    vals, vecs, _ = _order_eigenpairs(vals, vecs, descending=largest)
    return vals, vecs


def eigendecompose(system: SpatioTemporalSystem, k_request, *,
                   full_spectrum=False) -> SpectralEmbedding:
    """The k_request largest eigenpairs of C, solved in symmetric form.

    Solves B^{-1/2} A B^{-1/2} y = lambda y and maps back v = B^{-1/2} y, so
    eigenvalues are real and eigenvectors B-orthonormal. The M temporal
    pairs are built in closed form: eigenvalue cos(pi k / (M - 1)) with the
    value cos(pi k t / (M - 1)) on view t, k = 0 being the constant vector.
    The spatial pairs are the largest of H - Q (T + 2I) Q^T (see
    ``SpatioTemporalSystem.temporal_basis``), which agrees with H off the
    span of Q and sends that span to -2, below the whole spectrum of H.
    Unless ``full_spectrum`` is set, only nonnegative eigenvalues are
    surfaced, so fewer than k_request pairs may be returned.
    """
    N, M = system.size, system.M
    if not 1 <= k_request <= N:
        raise ValueError(f"k_request must be in [1, {N}], got {k_request}")
    H = system.symmetrized()
    Q, T = system.temporal_basis()
    theta = np.pi * np.arange(M) / (M - 1)
    # column k holds the temporal eigenvector's coordinates in Q
    coef = np.cos(np.outer(np.arange(M), theta))
    coef *= np.sqrt(view_weights(M))[:, None]
    coef /= np.linalg.norm(coef, axis=0)
    spatial_vals, spatial_vecs = symmetric_eigenpairs(
        H, min(k_request, N - M), largest=True, low_rank=(Q, T + 2.0 * np.eye(M)))
    vals, vecs, order = _order_eigenpairs(
        np.concatenate([np.cos(theta), spatial_vals]),
        np.hstack([Q @ coef, spatial_vecs]), descending=True)
    vals, vecs, order = vals[:k_request], vecs[:, :k_request], order[:k_request]
    if not full_spectrum:
        keep = vals >= NEGATIVE_EIG_CUTOFF
        vals, vecs, order = vals[keep], vecs[:, keep], order[keep]
    vecs = vecs / np.sqrt(system.B_diag)[:, None]
    kinds = ("constant",) + ("temporal",) * (M - 1) + ("spatial",) * len(spatial_vals)
    tags = tuple(kinds[c] for c in order)
    return SpectralEmbedding(n=system.n, M=system.M, eigenvalues=vals,
                             vectors=vecs, tags=tags)


"""The spatio-temporal graph Laplacian: assembly, eigenproblem, eigenvector tags.

The coupled system lives on M copies of the vertex set. It is stored as the
M - 1 cross-covariances of adjacent views, the blocks of the paper's
symmetric block-tridiagonal matrix A, and the diagonal matrix B of (doubled
interior) covariances. C = B^{-1} A is the row-stochastic matrix whose
dominant eigenvectors carry the cluster structure, and L = I - C. Neither A
nor C is formed: the solver reads the blocks of B^{-1/2} A B^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceFailure, check_integer
from .operators import OperatorSequence, scale_rows

# Largest system solved by a full dense symmetric decomposition; beyond this
# a restarted Lanczos iteration is used. Read at call time. The two solvers
# cross over near N = 700 on ``static_blocks`` systems (one BLAS thread on a
# 2-vCPU Xeon).
DENSE_EIG_CUTOFF = 700

# Seed of the Lanczos starting vector and of the restart vectors ARPACK asks
# for when its Krylov space becomes invariant (a rank-deficient operator), so
# repeated solves agree bitwise instead of drawing fresh entropy.
LANCZOS_SEED = 0

# Eigenvalues above this are surfaced by default; negative ones correspond to
# negatively correlated functions and are filtered.
NEGATIVE_EIG_CUTOFF = -1e-12


def check_folding(M, shape, name):
    """Reject an M that is not a positive integer, or an argument ``name``
    of ``shape`` that is not 2-d with a positive multiple of M rows."""
    check_integer("M", M, least=1)
    if len(shape) != 2 or shape[0] < 1 or shape[0] % M:
        raise ValueError(f"{name} must be 2-d with a positive multiple of "
                         f"M={M} rows, got shape {shape}")


def view_weights(M):
    """Weight of each view in B: 1 at the two end views, 2 in between."""
    weights = np.ones(M)
    weights[1:-1] = 2.0
    return weights


@dataclass(frozen=True)
class SpatioTemporalSystem:
    """Assembled blocks of the coupled eigenproblem.

    ``cross[t]`` is the n x n sparse cross-covariance D_{mu_t} S_t of views
    t and t + 1 (M - 1 blocks) and ``B_diag`` the positive diagonal of B.
    A has ``cross[t]`` in block (t, t + 1), its transpose in block
    (t + 1, t) and zeros elsewhere; neither A nor C is formed.
    """

    cross: tuple = field(repr=False)
    B_diag: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.cross[0].shape[0]

    @property
    def M(self):
        return len(self.cross) + 1

    @property
    def size(self):
        return self.M * self.n

    def symmetrized(self):
        """B^{-1/2} A B^{-1/2} as a dense N x N array, written from the cross
        blocks: symmetric, with the same spectrum as C."""
        d = (1.0 / np.sqrt(self.B_diag)).reshape(self.M, self.n, 1)
        H = np.zeros((self.size, self.size))
        blocks = H.reshape(self.M, self.n, self.M, self.n)
        for t, cross in enumerate(self.cross):
            c, right = cross.toarray(), d[t + 1].T
            # the mean of d_t c d_{t+1} in its two association orders
            blocks[t, :, t + 1] = (d[t] * c * right + c * right * d[t]) / 2
            blocks[t + 1, :, t] = blocks[t, :, t + 1].T
        return H

    def coupling(self):
        """X, the even-view rows and odd-view columns of B^{-1/2} A B^{-1/2}.

        A couples only adjacent views, so with the even views (0, 2, ...)
        ordered first the symmetrized matrix is [[0, X], [X^T, 0]]. X is
        n ceil(M/2) x n floor(M/2): cross[t], transposed for odd t, in block
        ((t + 1) // 2, t // 2), scaled by B^{-1/2} on both sides.
        """
        blocks = [[None] * (self.M // 2) for _ in range((self.M + 1) // 2)]
        for t, cross in enumerate(self.cross):
            blocks[(t + 1) // 2][t // 2] = cross.T if t % 2 else cross
        d = (1.0 / np.sqrt(self.B_diag)).reshape(self.M, self.n)
        X = scale_rows(d[0::2].ravel(), sparse.block_array(blocks, format="csr"))
        # every factor is at least 1 / sqrt(2), so no product underflows to 0
        X.data *= d[1::2].ravel()[X.indices]
        return X

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
    on the complement of the per-view constants.
    """

    M: int
    eigenvalues: np.ndarray
    vectors: np.ndarray = field(repr=False)
    tags: tuple

    def __post_init__(self):
        shape = np.shape(self.vectors)
        check_folding(self.M, shape, "vectors")
        if not len(self.eigenvalues) == len(self.tags) == shape[1]:
            raise ValueError(f"eigenvalues, tags and the columns of vectors differ "
                             f"in count: {len(self.eigenvalues)}, {len(self.tags)} "
                             f"and {shape[1]}")

    def __len__(self):
        return len(self.eigenvalues)

    @property
    def folded(self):
        """Eigenvectors as a k x M x n view of ``vectors``, n read off its
        M n rows."""
        return self.vectors.T.reshape(len(self), self.M, len(self.vectors) // self.M)


def assemble_system(ops: OperatorSequence) -> SpatioTemporalSystem:
    """Build the cross blocks D_{mu_t} S_t and the diagonal of B from the
    per-view operators."""
    mus = ops.densities
    cross = tuple(scale_rows(mu, S) for mu, S in zip(mus[:-1], ops.transitions))
    B_diag = np.concatenate([w * mu for w, mu in zip(view_weights(ops.M), mus)])
    return SpatioTemporalSystem(cross, B_diag)


def _fix_signs(vecs):
    """Flip eigenvector columns in place so that each column's first entry
    above 1e-12 times its largest magnitude is positive."""
    mag = np.abs(vecs)
    above = mag > 1e-12 * mag.max(axis=0)
    first, cols = above.argmax(axis=0), np.arange(vecs.shape[1])
    flip = above[first, cols] & (vecs[first, cols] < 0)
    vecs[:, flip] = -vecs[:, flip]
    return vecs


def eigenpair_order(vals, vecs, *, descending=False):
    """The permutation that sorts eigenpairs by eigenvalue, stably, with a
    run of exactly equal eigenvalues ordered by its columns as tuples, so
    the order does not depend on the order in which the pairs arrive."""
    order = np.argsort(-vals if descending else vals, kind="stable")
    ranked = vals[order]
    runs = np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1)
    return np.concatenate([run if len(run) < 2 else run[np.lexsort(vecs[::-1, run])]
                           for run in runs])


def _solved_densely(N, k):
    """Whether k eigenpairs of an N x N system are found by a full dense
    decomposition: up to ``DENSE_EIG_CUTOFF``, and wherever a Krylov basis
    of 3k vectors would span the whole space."""
    return N <= DENSE_EIG_CUTOFF or 3 * k >= N


def symmetric_eigenpairs(H, k, *, largest=True):
    """The k extreme eigenpairs of a symmetric matrix, sign-fixed.

    Dense decomposition where ``_solved_densely`` holds; otherwise restarted
    Lanczos from seeded starting and restart vectors with a basis of
    max(3k, 20) vectors. A ``LinearOperator`` H can only be applied, so it
    always takes Lanczos and needs k < N. Eigenvalues come ascending, as the
    solvers return them, and each eigenvector's first non-negligible entry
    is positive; callers order the pairs with ``eigenpair_order``.
    """
    N = H.shape[0]
    k = min(k, N)
    if k == 0:
        return np.empty(0), np.empty((N, 0))
    if not isinstance(H, LinearOperator) and _solved_densely(N, k):
        Hd = H.toarray() if sparse.issparse(H) else np.asarray(H, dtype=float)
        lo, hi = (N - k, N - 1) if largest else (0, k - 1)
        vals, vecs = eigh(Hd, subset_by_index=(lo, hi))
    else:
        v0 = np.random.default_rng(LANCZOS_SEED).uniform(-1.0, 1.0, N)
        try:
            # ARPACK's default basis of 2k + 1 restarts too often here
            vals, vecs = eigsh(H, k=k, which="LA" if largest else "SA", v0=v0,
                               ncv=min(N, max(3 * k, 20)), rng=LANCZOS_SEED)
        except ArpackNoConvergence as err:
            raise ConvergenceFailure(
                f"Lanczos iteration converged {len(err.eigenvalues)} of {k} "
                f"eigenpairs", converged=len(err.eigenvalues), requested=k,
            ) from err
    return vals, _fix_signs(vecs)


def _coupling_eigenpairs(system, k, Q, T):
    """The k largest spatial eigenpairs of H, from the SVD of its coupling X.

    With the even views first H = [[0, X], [X^T, 0]], so every eigenpair
    (s^2, v) of the odd-view Gram matrix X^T X with s > 0 lifts to the
    eigenpair s, [Xv / s; v] / sqrt(2) of H. ``H Q = Q T`` gives
    X Q_o = Q_e T_eo for the per-view constants, so the Gram matrix maps
    the span of Q_o into itself; it is sent to -1, below the Gram spectrum
    [0, 1]. A pair with s within 1e-8 of 0 has Xv = 0 to that accuracy and
    lifts to the null vector [0; v] of H, eigenvalue 0, which is orthogonal
    to the other lifts because V is orthonormal. A lifted pair with
    residual ||Hy - sy|| or orthonormality error above 1e-8, or NaN, raises
    ConvergenceFailure. Lifts are sign-fixed like V, whose own fix keeps the
    zero even-view entries of a null lift +0.0.
    """
    n, M = system.n, system.M
    X = system.coupling()
    XT = sparse.csr_array(X.T)  # a CSR transpose multiplies faster than CSC
    m = X.shape[1]
    Q_odd = Q.reshape(M, n, M)[1::2, :, 1::2].reshape(m, M // 2)
    T_eo = T[0::2, 1::2]
    S = T_eo.T @ T_eo + np.eye(M // 2)
    gram = LinearOperator(
        (m, m), dtype=float,
        matvec=lambda v: XT @ (X @ v) - Q_odd @ (S @ (Q_odd.T @ v)))
    w, V = symmetric_eigenpairs(gram, k)
    with np.errstate(all="ignore"):
        s = np.sqrt(np.maximum(w, 0.0))
        null = s <= 1e-8
        s[null] = 0.0
        norm = np.where(null, 1.0, np.sqrt(2.0))
        XV = X @ V
        U = np.where(null, 0.0, XV / s) / norm
        V = V / norm
        residual = np.sqrt(np.linalg.norm(XV / norm - s * U, axis=0) ** 2
                           + np.linalg.norm(XT @ U - s * V, axis=0) ** 2)
        drift = np.abs(U.T @ U + V.T @ V - np.eye(k)).max(axis=0)
    converged = (residual <= 1e-8) & (drift <= 1e-8)  # False for NaN
    if not converged.all():
        raise ConvergenceFailure(
            f"only {converged.sum()} of {k} eigenpairs lifted from the view "
            f"coupling are accurate to 1e-8", converged=int(converged.sum()),
            requested=k)
    Y = np.empty((M, n, k))
    Y[0::2] = U.reshape(-1, n, k)
    Y[1::2] = V.reshape(-1, n, k)
    return s, _fix_signs(Y.reshape(M * n, k))


def eigendecompose(system: SpatioTemporalSystem, k_request, *,
                   full_spectrum=False) -> SpectralEmbedding:
    """The k_request largest eigenpairs of C, solved in symmetric form.

    Solves H y = B^{-1/2} A B^{-1/2} y = lambda y and maps back
    v = B^{-1/2} y, so eigenvalues are real and eigenvectors B-orthonormal.
    The M temporal pairs are built in closed form: eigenvalue
    cos(pi k / (M - 1)) with the value cos(pi k t / (M - 1)) on view t,
    k = 0 being the constant vector. The j = min(k_request, N - M) largest
    spatial pairs are those of H - Q (T + 2I) Q^T (see
    ``SpatioTemporalSystem.temporal_basis``), which agrees with H off the
    span of Q and sends that span to -2, below the whole spectrum of H.
    Where ``_solved_densely`` holds that N x N matrix is formed densely and
    decomposed; otherwise the pairs are lifted from the j largest singular
    pairs of the even to odd view coupling X (see ``_coupling_eigenpairs``),
    a Lanczos solve of half the size or less. Unless
    ``full_spectrum`` is set, only nonnegative eigenvalues are surfaced, so
    fewer than k_request pairs may be returned.
    """
    check_integer("k_request", k_request)
    N, M = system.size, system.M
    if not 1 <= k_request <= N:
        raise ValueError(f"k_request must be in [1, {N}], got {k_request}")
    Q, T = system.temporal_basis()
    theta = np.pi * np.arange(M) / (M - 1)
    # column k holds the temporal eigenvector's coordinates in Q
    coef = np.cos(np.outer(np.arange(M), theta))
    coef *= np.sqrt(view_weights(M))[:, None]
    coef /= np.linalg.norm(coef, axis=0)
    j = min(k_request, N - M)
    if not _solved_densely(N, j):
        spatial_vals, spatial_vecs = _coupling_eigenpairs(system, j, Q, T)
    else:
        H = system.symmetrized()
        # Q has one nonzero per row, so Q S Q^T is one outer product per
        # nonzero S[u, v], subtracted from the view block (u, v) in place
        S = T + 2.0 * np.eye(M)
        q = Q.sum(axis=1).reshape(M, system.n)
        blocks = H.reshape(M, system.n, M, system.n)
        for u, v in zip(*np.nonzero(S)):
            blocks[u, :, v] -= np.outer(q[u] * S[u, v], q[v])
        spatial_vals, spatial_vecs = symmetric_eigenpairs(H, j)
    vals = np.concatenate([np.cos(theta), spatial_vals])
    vecs = np.hstack([Q @ coef, spatial_vecs])
    order = eigenpair_order(vals, vecs, descending=True)[:k_request]
    if not full_spectrum:
        order = order[vals[order] >= NEGATIVE_EIG_CUTOFF]
    kinds = ("constant",) + ("temporal",) * (M - 1) + ("spatial",) * len(spatial_vals)
    return SpectralEmbedding(
        M=M, eigenvalues=vals[order],
        vectors=vecs[:, order] / np.sqrt(system.B_diag)[:, None],
        tags=tuple(kinds[c] for c in order))

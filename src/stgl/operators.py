"""Transfer-operator machinery for time-evolving graphs.

Each view t carries a row-stochastic transition matrix S_t and a reference
density mu_t. Observables are pulled backward by the Koopman matrix (S_t
itself) and densities are pushed forward by the reweighted Perron-Frobenius
matrix D_{mu_{t+1}}^{-1} S_t^T D_{mu_t}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DensityVanished, ZeroOutDegree, ZeroVariance
from .graph import TimeEvolvingGraph

DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class OperatorSequence:
    """Per-view transition matrices and the propagated reference densities.

    ``transitions[t]`` is row-stochastic and ``densities[t]`` strictly
    positive with unit sum; ``densities[t + 1] = S_t^T densities[t]``.
    """

    transitions: tuple = field(repr=False)
    densities: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "densities",
                           tuple(np.asarray(mu, dtype=float) for mu in self.densities))
        if len(self.densities) != len(self.transitions):
            raise ValueError("need one density per view")
        # each check is written so that NaN fails it
        for t, S in enumerate(self.transitions, start=1):
            rows = np.asarray(S.sum(axis=1)).ravel()
            if not np.abs(rows - 1.0).max() <= 1e-12:
                raise ValueError(f"transition matrix at view {t} is not row-stochastic")
        for t, mu in enumerate(self.densities, start=1):
            if not (mu.min() > 0 and abs(mu.sum() - 1.0) <= 1e-12):
                raise ValueError(f"density at view {t} is not strictly positive "
                                 "with unit sum")
        for t in range(len(self.transitions) - 1):
            drift = self.transitions[t].T @ self.densities[t] - self.densities[t + 1]
            if not np.abs(drift).max() <= 1e-12:
                raise ValueError(f"density propagation identity violated at view {t + 2}")

    @property
    def M(self):
        return len(self.transitions)

    @property
    def n(self):
        return self.transitions[0].shape[0]

    def transition_dense(self, t):
        """S_t (1-based view) as a dense array."""
        S = self.transitions[t - 1]
        return S.toarray() if sparse.issparse(S) else np.asarray(S)


def row_normalize(W):
    """Divide each row of a nonnegative matrix by its out-degree.

    Raises ZeroOutDegree for any empty row; callers regularize first
    (see ``propagate_densities`` self-loop handling).
    """
    if sparse.issparse(W):
        W = sparse.csr_array(W)
        degrees = np.asarray(W.sum(axis=1)).ravel()
        zero = np.flatnonzero(degrees <= 0)
        if zero.size:
            raise ZeroOutDegree(int(zero[0]))
        inv = sparse.dia_array((1.0 / degrees[None, :], [0]), shape=W.shape)
        return sparse.csr_array(inv @ W)
    W = np.asarray(W, dtype=float)
    degrees = W.sum(axis=1)
    zero = np.flatnonzero(degrees <= 0)
    if zero.size:
        raise ZeroOutDegree(int(zero[0]))
    return W / degrees[:, None]


def propagate_densities(graph: TimeEvolvingGraph, mu1=None, *, self_loops=True,
                        floor=DENSITY_FLOOR) -> OperatorSequence:
    """Build the transition matrices and propagate the reference density.

    ``mu1`` defaults to the uniform density. With ``self_loops`` (the
    default) a unit self-loop is added to every vertex at every view before
    normalization, which keeps all propagated densities strictly positive.
    """
    g = graph.with_self_loops() if self_loops else graph
    transitions = []
    for t, W in enumerate(g.snapshots, start=1):
        try:
            transitions.append(row_normalize(W))
        except ZeroOutDegree as err:
            raise ZeroOutDegree(err.vertex, view=t) from None

    if mu1 is None:
        mu = np.full(g.n, 1.0 / g.n)
    else:
        mu = np.asarray(mu1, dtype=float)
        if mu.shape != (g.n,) or mu.min() <= 0:
            raise ValueError("initial density must be strictly positive of length n")
        if abs(mu.sum() - 1.0) > 1e-9:
            raise ValueError("initial density must sum to 1")

    densities = [mu]
    for t, S in enumerate(transitions[:-1], start=1):
        mu = S.T @ mu
        bad = np.flatnonzero(mu < floor)
        if bad.size:
            raise DensityVanished(t + 1, int(bad[0]), float(mu[bad[0]]))
        densities.append(mu)
    return OperatorSequence(transitions=tuple(transitions), densities=tuple(densities))


def koopman_apply(S_t, f):
    """Pull an observable one view backward: returns S_t f."""
    f = np.asarray(f, dtype=float)
    return S_t @ f


def reweighted_pf_apply(S_t, mu_t, mu_next, u):
    """Push a function one view forward relative to the reference densities.

    Returns D_{mu_next}^{-1} S_t^T D_{mu_t} u.
    """
    mu_t = np.asarray(mu_t, dtype=float)
    mu_next = np.asarray(mu_next, dtype=float)
    if not (mu_t.min() > 0 and mu_next.min() > 0):
        bad = int(np.argmin(np.minimum(mu_t, mu_next)))
        raise DensityVanished("?", bad, float(min(mu_t.min(), mu_next.min())))
    u = np.asarray(u, dtype=float)
    return (S_t.T @ (mu_t * u)) / mu_next


def covariance_matrices(ops: OperatorSequence, t):
    """Covariance and cross-covariance matrices at view t (1-based).

    Returns (C_tt, C_t(t+1), C_(t+1)(t+1)) with C_tt = D_{mu_t} and
    C_t(t+1) = D_{mu_t} S_t.
    """
    mu_t = ops.densities[t - 1]
    mu_next = ops.densities[t]
    S = ops.transitions[t - 1]
    scale = sparse.dia_array((mu_t[None, :], [0]), shape=S.shape)
    cross = sparse.csr_array(scale @ S)
    return np.diag(mu_t), cross.toarray(), np.diag(mu_next)


def correlation(f, g, C_cross, C_ff, C_gg):
    """Correlation of two view functions under the given (cross-)covariances.

    corr(f, g) = f^T C_cross g / sqrt(f^T C_ff f) / sqrt(g^T C_gg g).
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    var_f = float(f @ (C_ff @ f))
    var_g = float(g @ (C_gg @ g))
    if var_f <= 0 or var_g <= 0:
        raise ZeroVariance("correlation undefined for zero-variance function")
    return float(f @ (C_cross @ g)) / np.sqrt(var_f) / np.sqrt(var_g)

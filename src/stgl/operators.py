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

from .errors import DensityVanished, ZeroOutDegree
from .graph import TimeEvolvingGraph

DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class OperatorSequence:
    """Per-view transition matrices and the densities they propagate.

    ``transitions[t]`` is a nonnegative, row-stochastic ``csr_array``.
    ``densities[0]`` is uniform and ``densities[t + 1] = S_t^T densities[t]``;
    an entry below ``DENSITY_FLOOR`` raises DensityVanished. Every
    transition matrix is stored with sorted indices: a sorted CSR matrix
    with the caller's arrays, an unsorted one as a sorted copy.
    """

    transitions: tuple = field(repr=False)
    densities: tuple = field(init=False, repr=False)

    def __post_init__(self):
        csrs = (sparse.csr_array(S) for S in self.transitions)
        object.__setattr__(self, "transitions", tuple(
            S if S.has_sorted_indices else S.sorted_indices() for S in csrs))
        if not self.transitions:
            raise ValueError("need at least one transition matrix")
        # each check is written so that NaN fails it
        for t, S in enumerate(self.transitions, start=1):
            if S.shape != (self.n, self.n) or np.iscomplexobj(S):
                raise ValueError(f"transition matrix at view {t} is not a real "
                                 f"{self.n} x {self.n} matrix")
            if not np.abs(S.sum(axis=1) - 1.0).max() <= 1e-12:
                raise ValueError(f"transition matrix at view {t} is not row-stochastic")
            if not (S.data >= 0).all():
                raise ValueError(f"transition matrix at view {t} has negative entries")
        mu = np.full(self.n, 1.0 / self.n)
        densities = [mu]
        for t, S in enumerate(self.transitions[:-1], start=1):
            mu = S.T @ mu
            bad = np.flatnonzero(mu < DENSITY_FLOOR)
            if bad.size:
                raise DensityVanished(t + 1, int(bad[0]), float(mu[bad[0]]))
            densities.append(mu)
        object.__setattr__(self, "densities", tuple(densities))

    @property
    def M(self):
        return len(self.transitions)

    @property
    def n(self):
        return self.transitions[0].shape[0]


def row_normalize(W):
    """Divide each row of a nonnegative sparse matrix by its out-degree,
    keeping the matrix's index order.

    Raises ZeroOutDegree for any empty row; callers regularize first
    (see ``propagate_densities`` self-loop handling).
    """
    W = sparse.csr_array(W)
    degrees = np.asarray(W.sum(axis=1)).ravel()
    zero = np.flatnonzero(degrees <= 0)
    if zero.size:
        raise ZeroOutDegree(int(zero[0]))
    return scale_rows(1.0 / degrees, W)


def scale_rows(factors, W):
    """diag(factors) @ W for a CSR matrix W, in W's index order and without
    the zeros an underflow leaves; W itself is not changed."""
    S = sparse.csr_array((W.data * np.repeat(factors, np.diff(W.indptr)),
                          W.indices.copy(), W.indptr.copy()), shape=W.shape)
    S.eliminate_zeros()
    return S


def propagate_densities(graph: TimeEvolvingGraph, *,
                        self_loops=True) -> OperatorSequence:
    """Build the transition matrices, whose ``OperatorSequence`` propagates
    the uniform density.

    With ``self_loops`` (the default) a unit self-loop is added to every
    vertex at every view before normalization, as ``row_normalize(W + I)``,
    which keeps all propagated densities strictly positive; without it, an
    entry below ``DENSITY_FLOOR`` raises DensityVanished.
    """
    eye = sparse.identity(graph.n, format="csr")
    transitions = []
    for t, W in enumerate(graph.snapshots, start=1):
        try:
            transitions.append(row_normalize(W + eye if self_loops else W))
        except ZeroOutDegree as err:
            raise ZeroOutDegree(err.vertex, view=t) from None
    return OperatorSequence(tuple(transitions))

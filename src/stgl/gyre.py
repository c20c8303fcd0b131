"""Time-dependent double gyre, box discretization, and the resulting graph.

Two counter-rotating gyres on [0, 2] x [0, 1] whose dividing line
oscillates around x = 1. Particles are integrated with a classical
fourth-order scheme and binned into a regular box grid; counting
box-to-box transitions per unit time gives one transition matrix per view
(Ulam's method). The count matrices are the snapshot weights of a directed
time-evolving graph.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import StepTooLarge
from .graph import TimeEvolvingGraph

TWO_PI = 2.0 * np.pi

# Farthest an integrator step may carry a particle outside the domain (one
# box width of the default grid) before ``integrate_rk4`` raises StepTooLarge.
MAX_EXCURSION = 0.05


@dataclass(frozen=True)
class GyreParams:
    """Flow parameters: amplitude, angular frequency, oscillation strength."""

    amplitude: float = 0.1
    omega: float = TWO_PI / 10.0
    epsilon: float = 0.25

    def __post_init__(self):
        if not (0 < self.amplitude < np.inf and 0 < self.omega < np.inf):
            raise ValueError("amplitude and omega must be positive and finite")
        if not 0 <= self.epsilon < 0.5:
            raise ValueError("epsilon must be in [0, 0.5)")


@dataclass(frozen=True)
class UlamGrid:
    """Regular box grid over [0, 2] x [0, 1]; box (ix, iy) has index iy*nx + ix."""

    nx: int = 40
    ny: int = 20
    particles_per_box: int = 50
    step: float = 0.01

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.particles_per_box < 1:
            raise ValueError("grid dimensions and particle count must be positive")
        if not 0 < self.step < np.inf:
            raise ValueError("integrator step must be positive and finite")

    @property
    def n_boxes(self):
        return self.nx * self.ny

    @property
    def dx(self):
        return 2.0 / self.nx

    @property
    def dy(self):
        return 1.0 / self.ny

    def box_index(self, x, y):
        ix = np.clip((np.asarray(x) / self.dx).astype(int), 0, self.nx - 1)
        iy = np.clip((np.asarray(y) / self.dy).astype(int), 0, self.ny - 1)
        return iy * self.nx + ix

    def centers(self):
        """(n_boxes, 2) array of box centers, ordered by box index."""
        xs = (np.arange(self.nx) + 0.5) * self.dx
        ys = (np.arange(self.ny) + 0.5) * self.dy
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


def velocity(x, y, t, params: GyreParams, out=None):
    """Velocity field of the oscillating double gyre; walls are no-flux.

    ``out``, a float array of shape (4,) + the broadcast shape of x and y,
    takes vx and vy in its first two rows, which are returned, and its last
    two rows as scratch; without it a fresh one is used.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if out is None:
        out = np.empty((4,) + np.broadcast_shapes(x.shape, y.shape))
    vx, vy, pf, py = (out[r, ...] for r in range(4))  # views, even when 0-d
    s = params.epsilon * np.sin(params.omega * t)
    # Each in-place update repeats one step of the plain expressions
    #   vx = -pi A sin(pi f) cos(pi y),  vy = pi A cos(pi f) sin(pi y) f'
    #   f = s x^2 + (1 - 2s) x,  f' = 2s x + 1 - 2s
    # in the same order (up to commuting a product or a sum), so the bits match.
    np.square(x, out=pf)
    pf *= s
    np.multiply(x, 1.0 - 2.0 * s, out=py)
    pf += py
    pf *= np.pi
    np.multiply(y, np.pi, out=py)
    np.sin(pf, out=vx)
    vx *= -np.pi * params.amplitude
    np.cos(pf, out=vy)
    vy *= np.pi * params.amplitude
    np.cos(py, out=pf)
    vx *= pf
    np.sin(py, out=pf)
    vy *= pf
    np.multiply(x, 2.0 * s, out=pf)
    pf += 1.0
    pf -= 2.0 * s
    vy *= pf
    return vx[()], vy[()]  # a 0-d result as a scalar


def _rk4_step(pos, t, h, field, out, work):
    """One classical step from ``pos`` = (x, y) into ``out``, both (2, ...)
    float arrays, with ``work`` a (4, ...) scratch array.

    ``out`` sums k1 + 2 k2 + 2 k3 + k4 left to right as each slope
    arrives, then scales it by h/6 and adds the position, the rounding
    steps of x + h/6 (k1 + 2 k2 + 2 k3 + k4). Each slope is consumed
    before the next ``field`` call, so ``field`` may return the same
    arrays every time.
    """
    stage, double = work[:2], work[2:]
    k = field(*pos, t)
    for o, s, kc, p in zip(out, stage, k, pos):
        np.copyto(o, kc)
        np.multiply(kc, 0.5 * h, out=s)
        s += p
    for scale in (0.5 * h, h):
        k = field(*stage, t + 0.5 * h)
        for o, s, d, kc, p in zip(out, stage, double, k, pos):
            np.multiply(kc, 2, out=d)
            o += d
            np.multiply(kc, scale, out=s)
            s += p
    k = field(*stage, t + h)
    for o, kc, p in zip(out, k, pos):
        o += kc
        o *= h / 6.0
        o += p


def integrate_rk4(state, t0, t1, h, params: GyreParams, field=None,
                  noise=0.0, rng=None):
    """Classical 4th-order integration of particle positions from t0 to t1.

    ``state`` is (..., 2); h must divide t1 - t0 up to rounding. With
    ``noise``, every step adds a Brownian kick of standard deviation
    noise * sqrt(h), drawn from ``rng`` (x normals, then y normals).
    Positions are reflected at the domain walls (the exact field is
    wall-tangent, so reflections only correct integrator drift and kicks).
    A step that overshoots the domain by more than ``MAX_EXCURSION`` raises
    StepTooLarge; the check comes before the kick, which may legitimately
    cross a wall by a few standard deviations. Every particle-sized array
    is allocated once per call, not per step.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if not 0 <= noise < np.inf:  # written so that NaN fails it
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    if noise and rng is None:
        raise ValueError("a noisy integration needs a random generator")
    steps = int(round((t1 - t0) / h))
    if steps < 1 or abs(t0 + steps * h - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError(f"step {h} does not divide interval [{t0}, {t1}]")
    state = np.asarray(state, dtype=float)
    shape = state.shape[:-1]
    if field is None:
        slopes = np.empty((4,) + shape)
        field = lambda x, y, t: velocity(x, y, t, params, out=slopes)
    pos = np.moveaxis(state, -1, 0).copy()
    new, work = np.empty((2,) + shape), np.empty((4,) + shape)
    below = np.empty(shape, dtype=bool)
    kick = noise * np.sqrt(h)
    t = t0
    for _ in range(steps):
        _rk4_step(pos, t, h, field, new, work)
        pos, new = new, pos
        x, y = pos
        # written so that a NaN position, for which min and max are NaN, fails
        if not (x.min() >= -MAX_EXCURSION and x.max() <= 2.0 + MAX_EXCURSION
                and y.min() >= -MAX_EXCURSION and y.max() <= 1.0 + MAX_EXCURSION):
            raise StepTooLarge(f"particle left the domain by more than "
                               f"{MAX_EXCURSION} or is not finite at t={t + h:.4f}")
        for p, z, wall in zip(pos, work, (2.0, 1.0)):
            if noise:
                rng.standard_normal(out=z)
                z *= kick
                p += z
            np.less(p, 0.0, out=below)
            np.negative(p, out=p, where=below)
            np.greater(p, wall, out=below)
            np.subtract(2.0 * wall, p, out=p, where=below)
        t += h
    return np.moveaxis(pos, 0, -1).copy()


def seed_particles(grid: UlamGrid, t, seed):
    """Uniform particles in every box, with a derived stream per box."""
    pts = np.empty((grid.n_boxes, grid.particles_per_box, 2))
    for b in range(grid.n_boxes):
        iy, ix = divmod(b, grid.nx)
        rng = np.random.default_rng((seed, int(t), b))
        u = rng.random((grid.particles_per_box, 2))
        pts[b, :, 0] = (ix + u[:, 0]) * grid.dx
        pts[b, :, 1] = (iy + u[:, 1]) * grid.dy
    return pts


# Default Brownian perturbation (per unit time) used when building the
# time-evolving gyre graph. Deterministic advection leaves every coherent
# structure with an eigenvalue indistinguishable from 1 at unit lag; a small
# stochastic regularization, standard for Ulam discretizations of
# deterministic flows, separates the gyre cores from the dominant
# left/right structure without disturbing the tracked boundary.
DEFAULT_GYRE_NOISE = 0.02


def ulam_counts(grid: UlamGrid, params: GyreParams, t, seed, field=None,
                noise=0.0):
    """Box-to-box transition counts for the unit interval [t, t+1].

    ``noise`` adds an isotropic Brownian perturbation (standard deviation
    ``noise`` per unit time) on top of the deterministic drift; zero keeps
    the flow exact.
    """
    pts = seed_particles(grid, t, seed)
    rng = np.random.default_rng((seed, int(t), grid.n_boxes))
    moved = integrate_rk4(pts.reshape(-1, 2), t, t + 1.0, grid.step, params,
                          field=field, noise=noise, rng=rng)
    end = grid.box_index(moved[:, 0], moved[:, 1])
    start = np.repeat(np.arange(grid.n_boxes), grid.particles_per_box)
    # the COO -> CSR conversion sums repeated (start, end) pairs into counts
    return sparse.csr_array((np.ones(start.size, dtype=np.int64), (start, end)),
                            shape=(grid.n_boxes, grid.n_boxes))


def gyre_graph(grid: UlamGrid = None, params: GyreParams = None, M=10, seed=0):
    """Directed time-evolving graph of Ulam transition counts, advected with
    the Brownian perturbation ``DEFAULT_GYRE_NOISE``.

    View t holds the counts for the unit interval [t-1, t], so M=10 covers
    one oscillation period with snapshots starting at t = 0, 1, ..., 9.
    Up to two views are built at a time, on the calling thread and one
    pool thread (numpy's ufuncs release the GIL on particle arrays); each view
    draws only from streams derived from ``(seed, t, ...)``, so the graph
    does not depend on the worker count.
    """
    grid = grid or UlamGrid()
    params = params or GyreParams()

    def view(t):
        return ulam_counts(grid, params, float(t), seed, noise=DEFAULT_GYRE_NOISE)

    # Two views in flight at most, the only count measured. The calling thread
    # builds every other view: memory a pool thread frees stays in that
    # thread's malloc arena, out of reach of the writers that run next, and a
    # pool of two threads raised the gyre job's peak RSS by 15% (this: 6%).
    workers = min(2, os.cpu_count() or 1, M)
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        pending = {t: pool.submit(view, t) for t in range(M) if t % workers}
        snapshots = tuple(pending[t].result() if t in pending else view(t)
                          for t in range(M))
    finally:
        # after a failure (say StepTooLarge) no queued view starts integrating
        pool.shutdown(cancel_futures=True)
    return TimeEvolvingGraph(snapshots, directed=True)


def boundary_columns(labels, grid: UlamGrid):
    """Per-view x-position of the left/right cluster boundary.

    Measures the extent of the cluster containing the leftmost column row
    by row and takes the median over rows, which is robust to the thin
    escaping-lobe filaments hugging the walls. Returns an array of length M.
    """
    labels = np.asarray(labels)
    M = labels.shape[0]
    out = np.empty(M)
    for t in range(M):
        plane = labels[t].reshape(grid.ny, grid.nx)
        left_label = np.bincount(plane[:, 0]).argmax()
        per_row = (plane == left_label).sum(axis=1)
        out[t] = np.median(per_row) * grid.dx
    return out

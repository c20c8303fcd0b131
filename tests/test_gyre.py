import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from stgl import (GraphFormatError, GyreParams, StepTooLarge, UlamGrid,
                  gyre_graph, integrate_rk4, ulam_counts, velocity)
from stgl import gyre

SRC = Path(__file__).resolve().parents[1] / "src"


def zero_field(x, y, t):
    return np.zeros_like(x), np.zeros_like(y)


def runaway(x, y, t):
    return np.full_like(x, 50.0), np.zeros_like(y)


def plain_velocity(x, y, t, params):
    s = params.epsilon * np.sin(params.omega * t)
    f = s * x ** 2 + (1.0 - 2.0 * s) * x
    dfdx = 2.0 * s * x + 1.0 - 2.0 * s
    vx = -np.pi * params.amplitude * np.sin(np.pi * f) * np.cos(np.pi * y)
    vy = np.pi * params.amplitude * np.cos(np.pi * f) * np.sin(np.pi * y) * dfdx
    return vx, vy


def plain_rk4_step(x, y, t, h, field):
    k1x, k1y = field(x, y, t)
    k2x, k2y = field(x + 0.5 * h * k1x, y + 0.5 * h * k1y, t + 0.5 * h)
    k3x, k3y = field(x + 0.5 * h * k2x, y + 0.5 * h * k2y, t + 0.5 * h)
    k4x, k4y = field(x + h * k3x, y + h * k3y, t + h)
    return (x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            y + h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y))


class TestVelocity:
    def test_walls_have_no_flux(self):
        params = GyreParams()
        xs = np.linspace(0, 2, 21)
        for t in [0.0, 1.3, 7.9]:
            for y in [0.0, 1.0]:
                _, vy = velocity(xs, np.full_like(xs, y), t, params)
                np.testing.assert_allclose(vy, 0.0, atol=1e-14)

    def test_center_value_at_t0(self):
        vx, vy = velocity(1.0, 0.5, 0.0, GyreParams())
        assert vx == pytest.approx(0.0, abs=1e-14)
        assert vy == pytest.approx(-0.1 * np.pi, abs=1e-14)

    def test_autonomous_separatrix(self):
        params = GyreParams(epsilon=0.0)
        ys = np.linspace(0.05, 0.95, 7)
        for t in [0.0, 2.7]:
            vx, _ = velocity(np.ones_like(ys), ys, t, params)
            np.testing.assert_allclose(vx, 0.0, atol=1e-14)

    def test_bits_match_plain_expressions(self):
        # the in-place evaluation keeps every rounding step of the formulas
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-0.05, 2.05, 5000), rng.uniform(-0.05, 1.05, 5000)
        for params in [GyreParams(), GyreParams(amplitude=0.3, epsilon=0.1)]:
            field = lambda x, y, t: velocity(x, y, t, params)
            for t in [0.0, 1.3, 7.9]:
                for got, want in zip(velocity(x, y, t, params),
                                     plain_velocity(x, y, t, params)):
                    assert np.array_equal(got, want)
                got = np.empty((2, x.size))
                gyre._rk4_step((x, y), t, 0.01, field, got, np.empty((4, x.size)))
                for got, want in zip(got, plain_rk4_step(x, y, t, 0.01, field)):
                    assert np.array_equal(got, want)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GyreParams(amplitude=0.0)
        with pytest.raises(ValueError):
            GyreParams(epsilon=0.5)
        for dims in ({"nx": 0}, {"ny": 0}, {"particles_per_box": 0}):
            with pytest.raises(ValueError, match="must be positive"):
                UlamGrid(**dims)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("make", [
        lambda v: GyreParams(amplitude=v), lambda v: GyreParams(omega=v),
        lambda v: GyreParams(epsilon=v), lambda v: UlamGrid(step=v),
    ], ids=["amplitude", "omega", "epsilon", "step"])
    def test_non_finite_parameters_rejected(self, make, value):
        with pytest.raises(ValueError):
            make(value)


class TestIntegrateRK4:
    def test_zero_field_fixes_state(self):
        state = np.array([[0.3, 0.4], [1.7, 0.9]])
        out = integrate_rk4(state, 0.0, 1.0, 0.1, GyreParams(),
                            field=zero_field)
        np.testing.assert_array_equal(out, state)

    def test_separatrix_invariant_when_autonomous(self):
        params = GyreParams(epsilon=0.0)
        state = np.array([[1.0, 0.5]])
        out = integrate_rk4(state, 0.0, 1.0, 0.01, params)
        assert abs(out[0, 0] - 1.0) <= 1e-10

    def test_order_four_self_convergence(self):
        params = GyreParams()
        rng = np.random.default_rng(3)
        state = np.column_stack([rng.uniform(0.2, 1.8, 10),
                                 rng.uniform(0.2, 0.8, 10)])
        ref = integrate_rk4(state, 0.0, 1.0, 0.1 / 16, params)
        err_h = np.linalg.norm(
            integrate_rk4(state, 0.0, 1.0, 0.1, params) - ref, axis=1)
        err_h2 = np.linalg.norm(
            integrate_rk4(state, 0.0, 1.0, 0.05, params) - ref, axis=1)
        factors = err_h / err_h2
        assert np.all((factors >= 8.0) & (factors <= 32.0))

    def test_step_must_divide_interval(self):
        with pytest.raises(ValueError):
            integrate_rk4(np.zeros((1, 2)), 0.0, 1.0, 0.3, GyreParams())

    @pytest.mark.parametrize("h", [0.0, -0.1])
    def test_step_must_be_positive(self, h):
        with pytest.raises(ValueError, match="step size must be positive"):
            integrate_rk4(np.zeros((1, 2)), 0.0, 1.0, h, GyreParams())

    def test_step_too_large_detected(self):
        with pytest.raises(StepTooLarge):
            integrate_rk4(np.array([[1.0, 0.5]]), 0.0, 1.0, 0.1, GyreParams(),
                          field=runaway)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_detected(self, value):
        def broken(x, y, t):
            vx = np.zeros_like(x)
            vx[1] = value
            return vx, np.zeros_like(y)

        state = np.array([[1.0, 0.5], [0.7, 0.4]])
        with pytest.raises(StepTooLarge):
            integrate_rk4(state, 0.0, 1.0, 0.25, GyreParams(), field=broken)
        with pytest.raises(StepTooLarge):
            integrate_rk4(np.array([[value, 0.5]]), 0.0, 1.0, 0.25,
                          GyreParams(), field=zero_field)

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise must be finite"):
            integrate_rk4(np.array([[1.0, 0.5]]), 0.0, 1.0, 0.25, GyreParams(),
                          field=zero_field, noise=noise,
                          rng=np.random.default_rng(0))

    def test_noise_draws_x_then_y_each_step(self):
        state = np.array([[1.0, 0.5], [0.7, 0.4]])
        out = integrate_rk4(state, 0.0, 1.0, 0.25, GyreParams(), field=zero_field,
                            noise=0.1, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        x, y = state[:, 0], state[:, 1]
        for _ in range(4):
            x = x + 0.05 * rng.standard_normal(2)
            y = y + 0.05 * rng.standard_normal(2)
        np.testing.assert_array_equal(out, np.column_stack([x, y]))

    @pytest.mark.parametrize("custom_field", [False, True])
    def test_bits_match_allocating_steps(self, custom_field):
        # particles hugging the walls, kicked hard enough to cross them
        params = GyreParams()
        rng = np.random.default_rng(5)
        x = np.r_[rng.uniform(0.0, 0.02, 300), rng.uniform(1.98, 2.0, 300),
                  rng.uniform(0.0, 2.0, 400)]
        y = np.r_[rng.uniform(0.0, 1.0, 600), rng.uniform(0.0, 0.02, 200),
                  rng.uniform(0.98, 1.0, 200)]
        plain = lambda x, y, t: plain_velocity(x, y, t, params)
        field = plain if custom_field else None
        h, steps, noise = 0.05, 12, 0.3
        out = integrate_rk4(np.column_stack([x, y]), 0.0, h * steps, h, params,
                            field=field, noise=noise, rng=np.random.default_rng(9))
        draws = np.random.default_rng(9)
        kick = noise * np.sqrt(h)
        hits, t = 0, 0.0
        for _ in range(steps):
            x, y = plain_rk4_step(x, y, t, h, plain)
            t += h  # the integrator's clock, summed step by step
            x = x + kick * draws.standard_normal(x.shape)
            y = y + kick * draws.standard_normal(y.shape)
            hits += np.sum((x < 0) | (x > 2)) + np.sum((y < 0) | (y > 1))
            x = np.where(x < 0.0, -x, x)
            x = np.where(x > 2.0, 4.0 - x, x)
            y = np.where(y < 0.0, -y, y)
            y = np.where(y > 1.0, 2.0 - y, y)
        assert hits > 100
        assert np.array_equal(out, np.column_stack([x, y]))

    def test_keeps_leading_particle_axes(self):
        state = np.random.default_rng(1).uniform(0.2, 0.8, (3, 4, 2))
        out = integrate_rk4(state, 0.0, 0.5, 0.1, GyreParams())
        flat = integrate_rk4(state.reshape(-1, 2), 0.0, 0.5, 0.1, GyreParams())
        assert out.shape == state.shape
        assert np.array_equal(out.reshape(-1, 2), flat)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="minor page faults are read from Linux getrusage")
    def test_fresh_view_integration_barely_faults(self):
        # a step that allocated particle-sized temporaries would map and
        # unmap them afresh each time in a new process: 60-83k minor faults
        # per default view, against about 2k here
        script = ("import resource; from stgl import gyre; "
                  "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                  "gyre.ulam_counts(gyre.UlamGrid(), gyre.GyreParams(), 0.0, 0, "
                  "noise=gyre.DEFAULT_GYRE_NOISE); "
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120, check=True)
        assert int(done.stdout) < 10_000

    def test_noise_needs_generator(self):
        with pytest.raises(ValueError):
            integrate_rk4(np.zeros((1, 2)), 0.0, 1.0, 0.25, GyreParams(),
                          noise=0.1)


class TestUlam:
    def test_rows_stochastic(self):
        # every box's particles land somewhere, so row-normalizing divides
        # each row by exactly particles_per_box
        grid = UlamGrid(nx=10, ny=5, particles_per_box=20, step=0.05)
        counts = ulam_counts(grid, GyreParams(), 0.0, seed=0)
        rows = np.asarray(counts.sum(axis=1)).ravel()
        np.testing.assert_array_equal(rows, grid.particles_per_box)

    def test_negative_noise_rejected(self):
        grid = UlamGrid(nx=4, ny=2, particles_per_box=2, step=0.25)
        with pytest.raises(ValueError, match="noise must be finite and nonnegative, got -0.1"):
            ulam_counts(grid, GyreParams(), 0.0, seed=0, noise=-0.1)

    def test_zero_field_gives_identity(self):
        grid = UlamGrid(nx=8, ny=4, particles_per_box=10, step=0.25)
        counts = ulam_counts(grid, GyreParams(), 0.0, seed=1, field=zero_field)
        np.testing.assert_array_equal(counts.toarray(),
                                      grid.particles_per_box * np.eye(grid.n_boxes))

    def test_counts_are_canonical_int64_csr(self):
        grid = UlamGrid(nx=10, ny=5, particles_per_box=20, step=0.05)
        counts = ulam_counts(grid, GyreParams(), 0.0, seed=0, noise=0.02)
        assert counts.format == "csr"
        assert counts.dtype == np.int64
        assert counts.has_sorted_indices and counts.has_canonical_format

    def test_deterministic_given_seed(self):
        grid = UlamGrid(nx=10, ny=5, particles_per_box=10, step=0.05)
        a = ulam_counts(grid, GyreParams(), 2.0, seed=3)
        b = ulam_counts(grid, GyreParams(), 2.0, seed=3)
        assert abs(a - b).max() == 0

    def test_support_confined_to_stencil(self):
        # max speed pi*A ~ 0.314 per unit time = seven boxes of width 0.05
        grid = UlamGrid()
        coo = ulam_counts(grid, GyreParams(), 0.0, seed=0).tocoo()
        si, sj = divmod(coo.row, grid.nx)
        ei, ej = divmod(coo.col, grid.nx)
        assert np.max(np.abs(si - ei)) <= 7
        assert np.max(np.abs(sj - ej)) <= 7

    def test_autonomous_left_half_nearly_invariant(self):
        grid = UlamGrid()
        counts = ulam_counts(grid, GyreParams(epsilon=0.0), 0.0, seed=4).toarray()
        left = (np.arange(grid.n_boxes) % grid.nx) < grid.nx // 2
        leak = counts[left][:, ~left].sum() / counts[left].sum()
        assert leak < 0.02

    def test_noisy_step_too_large_detected(self):
        grid = UlamGrid(nx=8, ny=4, particles_per_box=5, step=0.05)
        with pytest.raises(StepTooLarge):
            ulam_counts(grid, GyreParams(), 0.0, seed=0, field=runaway,
                        noise=0.02)

    def test_noise_spreads_mass(self):
        grid = UlamGrid(nx=8, ny=4, particles_per_box=30, step=0.25)
        sharp = ulam_counts(grid, GyreParams(), 0.0, seed=5, field=zero_field)
        fuzzy = ulam_counts(grid, GyreParams(), 0.0, seed=5, field=zero_field,
                            noise=0.1)
        assert fuzzy.count_nonzero() > sharp.count_nonzero()
        rows = np.asarray(fuzzy.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, grid.particles_per_box)


class TestGyreGraph:
    GRID = UlamGrid(nx=8, ny=4, particles_per_box=5, step=0.05)

    def test_same_bits_for_any_worker_count(self, monkeypatch):
        monkeypatch.setattr(gyre.os, "cpu_count", lambda: 2)
        threaded = gyre_graph(self.GRID, M=4, seed=3)
        monkeypatch.setattr(gyre.os, "cpu_count", lambda: 1)
        serial = gyre_graph(self.GRID, M=4, seed=3)
        for t, (a, b) in enumerate(zip(threaded.snapshots, serial.snapshots)):
            # the reference: view t built on its own
            ref = ulam_counts(self.GRID, GyreParams(), float(t), 3,
                              noise=gyre.DEFAULT_GYRE_NOISE).astype(float)
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr))
                assert np.array_equal(getattr(a, attr), getattr(ref, attr))

    def test_failing_view_stops_the_pool(self, monkeypatch):
        before = threading.active_count()
        monkeypatch.setattr(gyre, "velocity",
                            lambda x, y, t, params, out=None: runaway(x, y, t))
        with pytest.raises(StepTooLarge):
            gyre_graph(self.GRID, M=4)
        assert threading.active_count() == before

    def test_needs_two_views(self):
        for M in (0, 1):
            with pytest.raises(GraphFormatError):
                gyre_graph(self.GRID, M=M)

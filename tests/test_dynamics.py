"""Right-hand side, RK4 stepping, constraint preservation, simulation driver."""

import math

import numpy as np
import pytest

from emlab.dynamics import RunLog, SolverConfig, cfl_dt, rhs, simulate, step
from emlab.energetics import standard_monitor
from emlab.errors import CflViolation, SimulationDiverged
from emlab.model import (
    PerturbationState,
    PhysicalConstants,
    make_initial_data,
    verify_compatibility,
)
from emlab.spectral import Field, curl, l2_norm, random_band_limited


def mode_matrix_action(state, constants):
    """Independent mode-by-mode application of the linearized generator."""
    g = state.grid
    nu = constants.nu
    bv = constants.b_infty_vector()
    n_h, u_h, e_h, b_h = (state.fields()[f].coeffs for f in ("n", "u", "E", "B"))
    kx, ky, kz = (g.k_axis(a) for a in range(3))

    def cross_k(v):
        return np.stack(
            [
                1j * (ky * v[2] - kz * v[1]),
                1j * (kz * v[0] - kx * v[2]),
                1j * (kx * v[1] - ky * v[0]),
            ]
        )

    ndot = -1j * (kx * u_h[0] + ky * u_h[1] + kz * u_h[2])
    udot = -nu * u_h - nu * e_h
    udot[0] += -1j * kx * n_h - (u_h[1] * bv[2] - u_h[2] * bv[1])
    udot[1] += -1j * ky * n_h - (u_h[2] * bv[0] - u_h[0] * bv[2])
    udot[2] += -1j * kz * n_h - (u_h[0] * bv[1] - u_h[1] * bv[0])
    edot = nu * cross_k(b_h) + nu * u_h
    bdot = -nu * cross_k(e_h)
    return ndot, udot, edot, bdot


class TestRhs:
    def test_zero_state_is_equilibrium(self, grid16, constants_bz):
        st = make_initial_data("flat_low", 0.0, 0, grid16, constants_bz)
        d = rhs(st, constants_bz)
        for f in d.fields().values():
            assert np.max(np.abs(f.coeffs)) == 0.0

    @pytest.mark.parametrize("b_infty", [(0, 0, 0), (0, 0, 1)])
    def test_linear_regime_matches_mode_matrix(self, grid16, b_infty):
        constants = PhysicalConstants(b_infty=b_infty)
        st = make_initial_data(
            "flat_low", 1e-8, 5, grid16, constants, include_transverse_e=True
        )
        d = rhs(st, constants)
        ndot, udot, edot, bdot = mode_matrix_action(st, constants)
        scale = max(np.max(np.abs(a)) for a in (ndot, udot, edot, bdot))
        for got, want in [
            (d.n.coeffs, ndot),
            (d.u.coeffs, udot),
            (d.E.coeffs, edot),
            (d.B.coeffs, bdot),
        ]:
            assert np.max(np.abs(got - want)) <= 1e-5 * scale

    def test_single_mode_density_quadratic_interaction(self, grid32, constants_b0):
        # n = a cos(kx), u = E = B = 0: the density equation is stationary,
        # the electric sources vanish, and the velocity feels
        # -grad n - mu n grad n, hand-expanded as a two-harmonic field
        a = 1e-3
        mu = constants_b0.mu
        x, _, _ = grid32.coordinates()
        n0 = Field.from_physical(grid32, a * np.cos(x))
        zero_v = Field.zeros(grid32, vector=True)
        st = PerturbationState(n=n0, u=zero_v, E=zero_v, B=zero_v)
        d = rhs(st, constants_b0)
        assert np.max(np.abs(d.n.coeffs)) <= 1e-16 * a * grid32.n**3
        assert np.max(np.abs(d.E.coeffs)) <= 1e-16 * a * grid32.n**3
        assert np.max(np.abs(d.B.coeffs)) == 0.0
        # expected: -a d/dx[cos x] - mu a^2 cos x d/dx[cos x]
        #         = a sin x + (mu a^2 / 2) sin 2x
        expected = a * np.sin(x) + 0.5 * mu * a * a * np.sin(2 * x)
        got = d.u.physical()
        assert np.max(np.abs(got[0] - expected)) <= 1e-12 * a
        assert np.max(np.abs(got[1])) <= 1e-14 * a
        assert np.max(np.abs(got[2])) <= 1e-14 * a


class TestCfl:
    def test_zero_state_formula(self, constants_bz):
        from emlab.spectral import GridSpec

        grid = GridSpec(64, 64.0)
        st = make_initial_data("flat_low", 0.0, 0, grid, constants_bz)
        want = 0.5 / (math.pi * (1.0 + constants_bz.nu))
        assert cfl_dt(st, grid, constants_bz) == pytest.approx(want, rel=1e-12)

    def test_halving_spacing_halves_dt(self, constants_bz):
        from emlab.spectral import GridSpec

        g1, g2 = GridSpec(16, 2 * math.pi), GridSpec(32, 2 * math.pi)
        s1 = make_initial_data("flat_low", 0.0, 0, g1, constants_bz)
        s2 = make_initial_data("flat_low", 0.0, 0, g2, constants_bz)
        assert cfl_dt(s2, g2, constants_bz) == pytest.approx(
            cfl_dt(s1, g1, constants_bz) / 2.0, rel=1e-12
        )

    def test_large_velocity_shrinks_dt(self, grid16, constants_bz):
        st = make_initial_data("single_mode", 1e-3, 0, grid16, constants_bz)
        big_u = Field.from_physical(
            grid16, np.ones((3, 16, 16, 16)) * np.array([5.0, 0, 0])[:, None, None, None]
        )
        fast = PerturbationState(st.n, big_u, st.E, st.B)
        assert cfl_dt(fast, grid16, constants_bz) < 0.3 * cfl_dt(st, grid16, constants_bz)

    def test_step_warns_above_cfl(self, grid16, constants_bz):
        st = make_initial_data("single_mode", 1e-3, 0, grid16, constants_bz)
        dt = cfl_dt(st, grid16, constants_bz)
        with pytest.warns(CflViolation):
            step(st, 3.0 * dt, constants_bz)


class TestStep:
    def test_zero_state_fixed_point(self, grid16, constants_bz):
        st = make_initial_data("flat_low", 0.0, 0, grid16, constants_bz)
        out = step(st, 0.01, constants_bz)
        for f in out.fields().values():
            assert np.max(np.abs(f.coeffs)) == 0.0
        assert out.time == pytest.approx(0.01)

    def test_measured_order_four(self, grid16, constants_b0):
        st = make_initial_data("single_mode", 1e-2, 0, grid16, constants_b0)
        dt = cfl_dt(st, grid16, constants_b0)
        T = 8

        def advance(state, n, h):
            for _ in range(n):
                state = step(state, h, constants_b0)
            return state

        ref = advance(st, 8 * T, dt / 8.0)
        coarse = advance(st, T, dt)
        fine = advance(st, 2 * T, dt / 2.0)

        def err(a):
            return max(
                np.max(np.abs(a.fields()[f].coeffs - ref.fields()[f].coeffs)) for f in "nuEB"
            )

        order = math.log2(err(coarse) / err(fine))
        assert order == pytest.approx(4.0, abs=0.1)

    def test_conjugate_symmetry_preserved(self, grid16, constants_bz):
        # a stepped state is still the half-spectrum of real samples: the
        # implied full spectrum stays conjugate-symmetric
        st = make_initial_data("flat_low", 1e-2, 3, grid16, constants_bz)
        out = step(st, 0.5 * cfl_dt(st, grid16, constants_bz), constants_bz)
        for f in out.fields().values():
            back = Field.from_physical(grid16, f.physical())
            assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_divb_preserved_many_steps(self, grid16, constants_b0):
        st = make_initial_data("flat_low", 1e-2, 3, grid16, constants_b0)
        dt = cfl_dt(st, grid16, constants_b0)
        for _ in range(100):
            st = step(st, dt, constants_b0)
        rep = verify_compatibility(st, constants_b0)
        assert rep.divb_residual <= 1e-10 * max(l2_norm(st.B), 1e-30)

    def test_maxwell_subsystem_time_reversal(self, grid16, constants_b0, rng):
        # pure curl subsystem: the integrator is the only dissipation source
        nu = constants_b0.nu

        def maxwell_only(state):
            return PerturbationState(
                n=Field.zeros(state.grid),
                u=Field.zeros(state.grid, vector=True),
                E=nu * curl(state.B),
                B=(-nu) * curl(state.E),
                time=state.time,
            )

        e0 = random_band_limited(grid16, rng, vector=True)
        b0 = random_band_limited(grid16, rng, vector=True)
        st = PerturbationState(
            n=Field.zeros(grid16),
            u=Field.zeros(grid16, vector=True),
            E=e0,
            B=b0,
        )
        norm0 = math.sqrt(l2_norm(st.E) ** 2 + l2_norm(st.B) ** 2)
        dt = 0.005  # drift is O(dt^4); this step keeps 100 steps below 1e-8
        for _ in range(100):
            st = step(st, dt, constants_b0, rhs_fn=maxwell_only)
        norm1 = math.sqrt(l2_norm(st.E) ** 2 + l2_norm(st.B) ** 2)
        assert abs(norm1 - norm0) <= 1e-8 * norm0


class TestSimulate:
    def test_zero_run_all_zero(self, grid16, constants_bz):
        st = make_initial_data("flat_low", 0.0, 0, grid16, constants_bz)
        cfg = SolverConfig(end_time=0.3, output_stride=2)
        res = simulate(st, cfg, constants_bz, monitors=[standard_monitor(constants_bz)])
        for name, col in res.log.columns.items():
            assert np.max(np.abs(col)) == 0.0, name

    def test_linear_regime_energy_nonincreasing(self, grid16, constants_b0):
        st = make_initial_data("flat_low", 1e-8, 5, grid16, constants_b0)
        cfg = SolverConfig(end_time=1.5, output_stride=5)
        res = simulate(st, cfg, constants_b0, monitors=[standard_monitor(constants_b0)])
        e3 = res.log.column("E_3")
        assert np.all(np.diff(e3) <= 1e-12 * e3[0])

    def test_horizon_metadata(self, grid16, constants_bz):
        st = make_initial_data("flat_low", 0.0, 0, grid16, constants_bz)
        res = simulate(st, SolverConfig(end_time=0.1), constants_bz)
        assert res.log.metadata["horizon"] == pytest.approx(grid16.box_length / 4.0)

    def test_gauss_residual_within_drift_budget(self, grid16, constants_b0):
        # with projection off, the residual must stay far inside the
        # max(gauss_tol, 10 dt^4 T ||state||) budget at every tested step;
        # the constraint functional here is truncation-limited, not
        # integrator-limited, so it is dt-independent rather than O(dt^4)
        st = make_initial_data("single_mode", 5e-2, 0, grid16, constants_b0)
        dt0 = cfl_dt(st, grid16, constants_b0)
        for dt in (dt0, dt0 / 2.0):
            cfg = SolverConfig(
                dt=dt, end_time=32 * dt0, gauss_projection_stride=None, output_stride=1000
            )
            out = simulate(st, cfg, constants_b0, monitors=[standard_monitor(constants_b0)])
            assert out.log.metadata["gauss_within_budget"]
            assert out.log.column("gauss_residual")[-1] <= 1e-6

    def test_gauss_exactly_preserved_at_collapsed_closure(self, grid16):
        # at gamma = 3 the closure is the identity, the constraint functional
        # is linear, and its derivative vanishes identically on the truncated
        # system: every RK method preserves it to rounding
        constants = PhysicalConstants(gamma=3.0, b_infty=(0.0, 0.0, 0.0))
        st = make_initial_data("single_mode", 0.2, 0, grid16, constants)
        dt = cfl_dt(st, grid16, constants)
        cfg = SolverConfig(
            dt=dt, end_time=64 * dt, gauss_projection_stride=None, output_stride=1000
        )
        out = simulate(st, cfg, constants, monitors=[standard_monitor(constants)])
        assert out.log.column("gauss_residual")[-1] <= 1e-12

    def test_gauss_projection_keeps_constraint(self, grid16, constants_b0):
        st = make_initial_data("flat_low", 1e-2, 5, grid16, constants_b0)
        cfg = SolverConfig(end_time=1.0, gauss_projection_stride=5, output_stride=5)
        res = simulate(st, cfg, constants_b0, monitors=[standard_monitor(constants_b0)])
        assert res.log.column("gauss_residual")[-1] <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_abort(self, grid16, constants_bz):
        st = make_initial_data("single_mode", 1e-2, 0, grid16, constants_bz)
        with np.errstate(invalid="ignore"):
            bad = PerturbationState(
                n=Field(grid16, st.n.coeffs * np.inf), u=st.u, E=st.E, B=st.B
            )
        with pytest.raises(SimulationDiverged):
            simulate(bad, SolverConfig(dt=0.01, end_time=0.05), constants_bz)

    def test_runlog_series_roundtrip(self):
        log = RunLog()
        log.append(0.0, {"a": 1.0})
        log.append(1.0, {"a": 0.5, "b": 2.0})
        s = log.series("a")
        assert list(s.values) == [1.0, 0.5]
        assert math.isnan(log.column("b")[0])

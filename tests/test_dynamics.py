"""Right-hand side, RK4 stepping, constraint preservation, simulation driver."""

import functools
import inspect
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from emlab import dynamics, spectral
from emlab.dynamics import RunLog, SolverConfig, cfl_dt, rhs, simulate, step
from emlab.energetics import standard_monitor
from emlab.errors import CflViolation, SimulationDiverged
from emlab.model import (
    PerturbationState,
    PhysicalConstants,
    density_closure,
    linear_generator,
    make_initial_data,
    verify_compatibility,
)
from emlab.spectral import Field, GridSpec, curl, divergence, l2_norm
from spectral_reference import gradient, random_band_limited


def reference_rhs(state, constants):
    """The plain per-field right-hand side: one transform per field, each
    product formed from whole arrays, the 2/3 mask on product inputs and outputs."""
    g = state.grid
    nu, mu = constants.nu, constants.mu
    m = g.dealias_mask
    n, u, E, B = state.n, state.u, state.E, state.B

    def phys(coeffs):
        return Field(g, m * coeffs).physical()

    def spec(values):
        return m * Field.from_physical(g, values).coeffs

    def cross(a, b):
        return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])

    div_u, grad_n, curl_u = divergence(u).coeffs, gradient(n).coeffs, curl(u).coeffs
    ndot = -div_u
    udot = -nu * u.coeffs - nu * E.coeffs - grad_n
    udot -= cross(u.coeffs, np.asarray(constants.b_infty)[:, None, None, None])
    edot = nu * curl(B).coeffs + nu * u.coeffs
    bdot = -nu * curl(E).coeffs

    n_p, u_p, b_p = phys(n.coeffs), phys(u.coeffs), phys(B.coeffs)
    grad_n_p, div_u_p, curl_u_p = phys(grad_n), phys(div_u), phys(curl_u)
    ndot -= spec((u_p * grad_n_p).sum(axis=0) + mu * n_p * div_u_p)
    udot -= gradient(Field(g, spec(0.5 * (u_p * u_p).sum(axis=0)))).coeffs
    udot -= spec(cross(curl_u_p, u_p) + mu * n_p * grad_n_p + cross(u_p, b_p))
    edot += nu * spec(density_closure(n_p, constants.gamma) * u_p)
    return PerturbationState(
        n=Field(g, ndot), u=Field(g, udot), E=Field(g, edot), B=Field(g, bdot), time=state.time
    )


def reference_rk4(state, dt, f):
    """Classical RK4 on states, one field at a time."""

    def stage(base, terms, time):
        fields = {}
        for name, fld in base.fields().items():
            acc = fld
            for c, k in terms:
                acc = acc + c * k.fields()[name]
            fields[name] = acc
        return PerturbationState(time=time, **fields)

    t = state.time
    k1 = f(state)
    k2 = f(stage(state, [(dt * 0.5, k1)], t + dt / 2))
    k3 = f(stage(state, [(dt * 0.5, k2)], t + dt / 2))
    k4 = f(stage(state, [(dt, k3)], t + dt))
    weights = [dt * (1.0 / 6.0), dt * (1.0 / 3.0), dt * (1.0 / 3.0), dt * (1.0 / 6.0)]
    return stage(state, list(zip(weights, [k1, k2, k3, k4])), t + dt)


def random_state(grid, seed, amplitude=0.05):
    """Mean-zero random fields over the whole band, so the 2/3 mask matters."""
    rng = np.random.default_rng(seed)

    def field(vector):
        f = random_band_limited(grid, rng, band_fraction=0.5, vector=vector)
        return (amplitude / max(float(np.max(np.abs(f.physical()))), 1e-300)) * f

    return PerturbationState(n=field(False), u=field(True), E=field(True), B=field(True))


def max_rel_diff(a, b):
    """Largest coefficient difference of each field, relative to that field's largest coefficient."""
    return max(
        float(np.max(np.abs(fa.coeffs - fb.coeffs))) / max(float(np.max(np.abs(fb.coeffs))), 1e-300)
        for fa, fb in zip(a.fields().values(), b.fields().values())
    )


def mode_matrix_action(state, constants):
    """Independent mode-by-mode application of the linearized generator."""
    g = state.grid
    nu = constants.nu
    bv = constants.b_infty
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
        st = make_initial_data("decay_class", 0.0, 0, grid16, constants_bz)
        d = rhs(st, constants_bz)
        for f in d.fields().values():
            assert np.max(np.abs(f.coeffs)) == 0.0

    @pytest.mark.parametrize("b_infty", [(0, 0, 0), (0, 0, 1), (0.3, -0.2, 0.9)])
    def test_linear_regime_matches_mode_matrix(self, grid16, b_infty):
        constants = PhysicalConstants(b_infty=b_infty)
        st = make_initial_data(
            "decay_class", 1e-8, 5, grid16, constants, include_transverse_e=True
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


class TestFusedRhs:
    @pytest.mark.parametrize("b_infty", [(0, 0, 0), (0, 0, 1), (0.3, -0.2, 0.9)])
    def test_matches_per_field_reference(self, grid16, b_infty):
        constants = PhysicalConstants(b_infty=b_infty)
        for seed in (1, 2):
            st = random_state(grid16, seed)
            assert max_rel_diff(rhs(st, constants), reference_rhs(st, constants)) <= 1e-13

    @pytest.mark.parametrize("b_infty", [(0, 0, 0), (0, 0, 1)])
    def test_simulate_matches_reference_rk4(self, grid16, b_infty):
        constants = PhysicalConstants(b_infty=b_infty)
        st = random_state(grid16, 3)
        dt = 0.5 * cfl_dt(st, grid16, constants)
        cfg = SolverConfig(dt=dt, end_time=3 * dt, gauss_projection_stride=None, output_stride=1)
        got = simulate(st, cfg, constants).final_state
        want = st
        for _ in range(3):
            want = reference_rk4(want, dt, lambda s: reference_rhs(s, constants))
        assert got.time == want.time
        assert max_rel_diff(got, want) <= 1e-13

    def test_transform_count(self, grid16, constants_bz, fft_lines):
        # the 11 masked product inputs go back through an x pass on the
        # in-band ky rows of the kz planes below b = n//3 + 1, a y pass on
        # those planes and a c2r z pass that reads only them; the 8 products
        # forward through an r2c z pass, an x pass below b and a y pass on
        # the in-band kx rows below b
        st = random_state(grid16, 4)
        _, lines = fft_lines
        lines.clear()
        rhs(st, constants_bz)
        n, b, rows = 16, 6, 11
        assert lines == {
            ("ifft", -3): 11 * rows * b,
            ("ifft", -2): 11 * n * b,
            ("irfft", -1): 11 * n * n,
            ("rfft", -1): 8 * n * n,
            ("fft", -3): 8 * n * b,
            ("fft", -2): 8 * rows * b,
        }


class TestOutsideTheBand:
    def test_input_planes_above_the_band_stay_zero(self, grid16, constants_bz, monkeypatch):
        # the inverse passes skip the ky rows outside the two-thirds band and
        # read no kz plane above it (the buffer holds none), so they are
        # exact only while the product inputs hold zeros there
        outside = ~grid16.dealias_mask[..., : grid16.n // 3 + 1]
        inputs = []

        class Recording(dynamics._Rhs):
            def _linear(self, y, out, slab):
                super()._linear(y, out, slab)
                inputs.append((self.spec[:, slab].copy(), outside[slab]))

        y = dynamics._pack(random_state(grid16, 7))
        with dynamics._Slabs(grid16.n) as slabs:
            Recording(grid16, constants_bz, slabs)(y, 0.0, np.empty_like(y))
        monkeypatch.setattr(dynamics, "_Rhs", Recording)
        cfg = SolverConfig(end_time=0.05, gauss_projection_stride=2, output_stride=1)
        steps = simulate(random_state(grid16, 8), cfg, constants_bz).log.metadata["steps"]
        assert steps > 0 and len(inputs) == 1 + 4 * steps
        for spec, out_of_band in inputs:
            assert spec[:, ~out_of_band].any()
            assert not spec[:, out_of_band].any()

    @pytest.mark.parametrize("b_infty", [(0, 0, 0), (0.3, -0.2, 0.9)])
    def test_a_mode_above_the_band_gets_the_linear_generator(self, grid16, b_infty):
        # every product input is masked to zero, so the RHS is the linear
        # generator A(k) = A0 + i sum_a k_a A1[a] applied to the one mode
        constants = PhysicalConstants(b_infty=b_infty)
        mode = (2, 13, grid16.n // 3 + 2)  # kz above the band, below Nyquist
        rng = np.random.default_rng(9)
        y = np.zeros((10, grid16.n, grid16.n, grid16.n // 2 + 1), dtype=complex)
        y[(slice(None), *mode)] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        out = np.empty_like(y)
        with dynamics._Slabs(grid16.n) as slabs:
            dynamics._Rhs(grid16, constants, slabs)(y, 0.0, out)
        a0, a1 = linear_generator(constants)
        k = [grid16.k_axis(a).ravel()[m] for a, m in enumerate(mode)]
        want = (a0 + 1j * np.einsum("a,aij->ij", k, a1)) @ y[(slice(None), *mode)]
        got = out[(slice(None), *mode)]
        assert np.allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
        out[(slice(None), *mode)] = 0
        assert not out.any()


class TestSlabs:
    def test_worker_count_does_not_change_the_numbers(self, grid16, constants_bz):
        # the slabs are disjoint: any number of worker threads, more than the
        # CPUs and with frequent thread switches, gives the same bits
        y = dynamics._pack(random_state(grid16, 6))
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 5):
                with dynamics._Slabs(grid16.n, workers) as slabs:
                    kernel = dynamics._Rhs(grid16, constants_bz, slabs)
                    out, finite = dynamics._rk4(kernel, y, 0.0, 0.01, dynamics._scratch(y), slabs)
                    assert finite
                    results.append(out)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        for got in results[1:]:
            assert np.array_equal(got, results[0])

    @pytest.mark.parametrize("n", [16, 32])
    def test_pooled_rhs_matches_one_slab(self, n, constants_bz):
        # the five runs of an RHS on the pool, with the calling thread taking
        # the last slab of each, give the bits of one slab on one thread
        grid = GridSpec(n, 2.0 * math.pi)
        y = dynamics._pack(random_state(grid, 3))
        results = []
        for workers in (1, None, 3):
            with dynamics._Slabs(n, workers) as slabs:
                out = np.empty_like(y)
                dynamics._Rhs(grid, constants_bz, slabs)(y, 0.0, out)
                results.append(out)
        for got in results[1:]:
            assert np.array_equal(got, results[0])

    @pytest.mark.parametrize("planes", [None, 7])
    def test_chunks_do_not_change_the_numbers(self, constants_bz, monkeypatch, planes):
        # N = 48 on 1, 2 and 3 workers: slabs of 48, 24 and 16 planes, cut
        # into chunks of the default budget or of 7 planes, whose boundaries
        # then differ with the worker count; an RK4 step, and an RHS written
        # over its own input, give the same bits on every cut
        n = 48
        if planes:
            per_plane = sum(buf.nbytes for buf in dynamics._chunk_buffers(slice(0, 1), n)[0][1:])
            monkeypatch.setattr(dynamics, "_CHUNK_BYTES", planes * per_plane)
        grid = GridSpec(n, 2.0 * math.pi)
        y = dynamics._pack(random_state(grid, 12))
        steps, cuts = [], []
        for workers in (1, 2, 3):
            with dynamics._Slabs(n, workers) as slabs:
                cuts.append({c.start for chunks in slabs.chunks.values() for c, *_ in chunks})
                kernel = dynamics._Rhs(grid, constants_bz, slabs)
                out, finite = dynamics._rk4(kernel, y, 0.0, 0.01, dynamics._scratch(y), slabs)
                assert finite
                steps.append(out)
                apart, over = np.empty_like(y), y.copy()
                kernel(y, 0.0, apart)
                kernel(over, 0.0, over)
                assert np.array_equal(over, apart)
        if planes:
            assert cuts[0] != cuts[1] != cuts[2] != cuts[0]
        for got in steps[1:]:
            assert np.array_equal(got, steps[0])

    def test_calling_thread_runs_the_last_slab(self):
        import threading

        seen = {}
        with dynamics._Slabs(32, 2) as slabs:
            slabs.run(lambda slab: seen.setdefault(slab.start, threading.get_ident()))
        assert seen[16] == threading.get_ident() != seen[0]

    def test_a_failing_slab_raises_after_all_slabs_finish(self):
        finished = []

        def job(slab):
            if slab.start == 0:
                raise ValueError("first slab")
            time.sleep(0.05)
            finished.append(slab)

        with dynamics._Slabs(16, 2) as slabs:
            with pytest.raises(ValueError, match="first slab"):
                slabs.run(job)
            assert finished == [slice(8, 16)]


class TestWhoWritesWhere:
    def test_handed_out_states_are_never_overwritten(self, grid16, constants_bz):
        kept = []

        def keeper(state):
            copies = {name: f.coeffs.copy() for name, f in state.fields().items()}
            kept.append((state, copies, state.n.physical().copy()))
            return {}

        st = make_initial_data("decay_class", 1e-2, 3, grid16, constants_bz)
        cfg = SolverConfig(end_time=0.3, output_stride=1, gauss_projection_stride=2)
        res = simulate(st, cfg, constants_bz, monitors=[keeper])
        assert len(kept) == res.log.metadata["steps"] + 1
        for state, copies, n_phys in kept:
            for name, f in state.fields().items():
                assert np.array_equal(f.coeffs, copies[name]), name
            assert np.array_equal(state.n.physical(), n_phys)

        final = res.final_state
        assert final is kept[-1][0]
        before = {name: f.coeffs.copy() for name, f in final.fields().items()}
        step(final, res.log.metadata["dt"], constants_bz)
        for name, f in final.fields().items():
            assert np.array_equal(f.coeffs, before[name]), name

    def test_chunked_run_leaves_samples_and_final_state_alone(self, constants_bz, monkeypatch):
        # N = 48 on 2 workers, where each slab runs in chunks and every RHS
        # writes over its stage: the sampled states, kept by a monitor, and
        # the final state keep their bits through the run and through later
        # calls that take the final state as input
        monkeypatch.setattr(dynamics, "_Slabs", functools.partial(dynamics._Slabs, workers=2))
        grid = GridSpec(48, 2.0 * math.pi)
        kept = []

        def keeper(state):
            kept.append((state, {name: f.coeffs.copy() for name, f in state.fields().items()}))
            return {}

        st = make_initial_data("decay_class", 1e-2, 3, grid, constants_bz)
        cfg = SolverConfig(end_time=0.03, output_stride=1, gauss_projection_stride=2)
        res = simulate(st, cfg, constants_bz, monitors=[keeper])
        final = res.final_state
        assert len(kept) == res.log.metadata["steps"] + 1 >= 3 and final is kept[-1][0]
        rhs(final, constants_bz)
        step(final, res.log.metadata["dt"], constants_bz)
        simulate(final, SolverConfig(end_time=0.01), constants_bz)
        for state, copies in kept:
            for name, f in state.fields().items():
                assert np.array_equal(f.coeffs, copies[name]), name

    @pytest.mark.parametrize("n", [16, 48])
    def test_rhs_and_step_leave_their_input_alone(self, n, constants_bz):
        # both pack their input into an array of their own: rhs returns the
        # derivative written over that array, step a fresh one
        st = random_state(GridSpec(n, 2.0 * math.pi), 13)
        before = {name: f.coeffs.copy() for name, f in st.fields().items()}
        d = rhs(st, constants_bz)
        out = step(st, 0.01, constants_bz)
        for name, f in st.fields().items():
            assert np.array_equal(f.coeffs, before[name]), name
            assert not np.shares_memory(f.coeffs, d.n.coeffs.base)
            assert not np.shares_memory(f.coeffs, out.n.coeffs.base)

    def test_states_view_one_packed_array(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 1e-2, 3, grid16, constants_bz)
        for out in (step(st, 0.01, constants_bz), simulate(st, SolverConfig(end_time=0.05), constants_bz).final_state):
            base = out.n.coeffs.base
            assert base.shape == (10, 16, 16, 9)
            assert all(f.coeffs.base is base for f in out.fields().values())



class TestWorkingSet:
    def test_a_run_holds_three_registers_and_band_sized_buffers(self, constants_bz, monkeypatch):
        # the memory a run allocates, in packed states P (10 half-spectra of
        # 48^3 points), at N = 48 on 2 workers with a projection every step:
        # three RK4 registers (3 P), the kz <= n//3 product buffer (0.75 P),
        # the two slabs' chunk buffers (0.8 P), the finite flags and the
        # samples and projection of a step come to about 5.3 P.  Four
        # registers and product buffers over the whole spectrum took 7.2 P.
        monkeypatch.setattr(dynamics, "_Slabs", functools.partial(dynamics._Slabs, workers=2))
        grid = GridSpec(48, 2.0 * math.pi)
        st = make_initial_data("decay_class", 1e-2, 3, grid, constants_bz)
        packed = dynamics._SLOTS * st.n.coeffs.nbytes
        cfg = SolverConfig(end_time=0.02, gauss_projection_stride=1, output_stride=1)
        tracemalloc.start()
        try:
            steps = simulate(st, cfg, constants_bz).log.metadata["steps"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps >= 2
        assert peak < 6.0 * packed


class TestCfl:
    def test_zero_state_formula(self, constants_bz):
        from emlab.spectral import GridSpec

        grid = GridSpec(64, 64.0)
        st = make_initial_data("decay_class", 0.0, 0, grid, constants_bz)
        want = 0.5 / (math.pi * (1.0 + constants_bz.nu))
        assert cfl_dt(st, grid, constants_bz) == pytest.approx(want, rel=1e-12)

    def test_halving_spacing_halves_dt(self, constants_bz):
        from emlab.spectral import GridSpec

        g1, g2 = GridSpec(16, 2 * math.pi), GridSpec(32, 2 * math.pi)
        s1 = make_initial_data("decay_class", 0.0, 0, g1, constants_bz)
        s2 = make_initial_data("decay_class", 0.0, 0, g2, constants_bz)
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

    def test_leaves_no_samples_cached(self, grid16, constants_bz):
        st = random_state(grid16, 5)
        cfl_dt(st, grid16, constants_bz)
        assert vars(st.u).keys() == vars(st.n).keys() == {"grid", "coeffs"}

    def test_step_and_cfl_dt_read_the_solver_safety(self, grid16, constants_bz, monkeypatch):
        # the CFL safety has one home: step and cfl_dt's default read SolverConfig.cfl_safety
        assert inspect.signature(cfl_dt).parameters["safety"].default == SolverConfig().cfl_safety
        st = make_initial_data("single_mode", 1e-3, 0, grid16, constants_bz)
        dt = 0.9 * cfl_dt(st, grid16, constants_bz)
        monkeypatch.setattr(SolverConfig, "cfl_safety", SolverConfig.cfl_safety / 2.0)
        with pytest.warns(CflViolation):
            step(st, dt, constants_bz)

    def test_simulate_rechecks_every_sample(self, grid16, constants_bz, rng):
        # a transverse E drives u from rest, so |u|_inf grows and a dt fixed
        # at the initial advisory step falls behind the later ones
        zero = Field.zeros(grid16, vector=True)
        a = curl(random_band_limited(grid16, rng, vector=True))
        e = (0.5 / float(np.max(np.abs(a.physical())))) * a
        st = PerturbationState(n=Field.zeros(grid16), u=zero, E=e, B=zero)
        dt = cfl_dt(st, grid16, constants_bz)
        margins = []

        def margin(state):
            margins.append(cfl_dt(state, grid16, constants_bz) / dt)
            return {}

        cfg = SolverConfig(dt=dt, end_time=20 * dt, output_stride=4)
        with pytest.warns(CflViolation):
            res = simulate(st, cfg, constants_bz, monitors=[margin])
        assert len(margins) == 6 and margins[0] == 1.0
        assert res.log.metadata["cfl_margin_min"] == min(margins) < 0.99

    def test_simulate_records_the_smallest_positivity_margin(self, grid16, constants_bz):
        # a compressive velocity from rest: the density grows, then falls
        # back, so 1 + mu*n dips below its initial 1 between the end samples
        zero = Field.zeros(grid16, vector=True)
        x, _, _ = grid16.coordinates()
        u = Field.from_physical(grid16, np.stack([0.3 * np.sin(2.0 * x), 0.0 * x, 0.0 * x]))
        st = PerturbationState(n=Field.zeros(grid16), u=u, E=zero, B=zero)
        margins = []

        def margin(state):
            margins.append(verify_compatibility(state, constants_bz).positivity_margin)
            return {}

        # |n|_inf grows, so a step below the initial advisory one stays inside the later ones
        cfg = SolverConfig(dt=0.9 * cfl_dt(st, grid16, constants_bz), end_time=1.5, output_stride=3)
        res = simulate(st, cfg, constants_bz, monitors=[margin])
        assert len(margins) == len(res.log.times) and margins[0] == 1.0
        assert res.log.metadata["positivity_margin_min"] == min(margins) < min(margins[1], margins[-1])


class TestStep:
    def test_zero_state_fixed_point(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 0.0, 0, grid16, constants_bz)
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
        st = make_initial_data("decay_class", 1e-2, 3, grid16, constants_bz)
        out = step(st, 0.5 * cfl_dt(st, grid16, constants_bz), constants_bz)
        for f in out.fields().values():
            back = Field.from_physical(grid16, f.physical())
            assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_divb_preserved_many_steps(self, grid16, constants_b0):
        st = make_initial_data("decay_class", 1e-2, 3, grid16, constants_b0)
        dt = cfl_dt(st, grid16, constants_b0)
        for _ in range(100):
            st = step(st, dt, constants_b0)
        rep = verify_compatibility(st, constants_b0)
        assert rep.divb_residual <= 1e-10 * max(l2_norm(st.B), 1e-30)

    def test_maxwell_subsystem_time_reversal(self, grid16, constants_b0, rng):
        # pure curl subsystem: the integrator is the only dissipation source
        nu = constants_b0.nu

        def maxwell_only(y, time, out):
            # packed slots: n 0, u 1-3, E 4-6, B 7-9; out may be y, so both
            # curls are formed before anything is written
            state = dynamics._view(y, grid16, time)
            e_dot, b_dot = nu * curl(state.B).coeffs, -nu * curl(state.E).coeffs
            out[0:4] = 0.0
            out[4:7] = e_dot
            out[7:10] = b_dot

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
        y = dynamics._pack(st)
        scratch = dynamics._scratch(y)
        with dynamics._Slabs(grid16.n) as slabs:
            for i in range(100):
                y, _ = dynamics._rk4(maxwell_only, y, i * dt, dt, scratch, slabs)
        st = dynamics._view(y, grid16, 100 * dt)
        norm1 = math.sqrt(l2_norm(st.E) ** 2 + l2_norm(st.B) ** 2)
        assert abs(norm1 - norm0) <= 1e-8 * norm0


class TestSimulate:
    def test_a_sample_transforms_n_once(self, grid16, constants_bz, monkeypatch):
        # 6 steps, projecting at every one, sampled at t = 0 and at the end:
        # the advisory step and the first sample share u's and n's samples,
        # each projection reuses the n samples of its residual check, and the
        # last sample reuses those of the last projection
        calls = []
        inverse = spectral._irfftn
        monkeypatch.setattr(spectral, "_irfftn", lambda *a, **kw: calls.append(a[0].shape) or inverse(*a, **kw))
        st = make_initial_data("single_mode", 1e-2, 0, grid16, constants_bz)
        calls.clear()
        cfg = SolverConfig(dt=0.01, end_time=0.06, gauss_projection_stride=1)
        assert simulate(st, cfg, constants_bz).log.metadata["steps"] == 6
        scalar, vector = (16, 16, 9), (3, 16, 16, 9)
        assert calls == [scalar, vector] + [scalar] * 6 + [vector]

    def test_zero_run_all_zero(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 0.0, 0, grid16, constants_bz)
        cfg = SolverConfig(end_time=0.3, output_stride=2)
        res = simulate(st, cfg, constants_bz, monitors=[standard_monitor(constants_bz)])
        for name, col in res.log.columns.items():
            assert np.max(np.abs(col)) == 0.0, name

    def test_linear_regime_energy_nonincreasing(self, grid16, constants_b0):
        st = make_initial_data("decay_class", 1e-8, 5, grid16, constants_b0)
        cfg = SolverConfig(end_time=1.5, output_stride=5)
        res = simulate(st, cfg, constants_b0, monitors=[standard_monitor(constants_b0)])
        e3 = np.asarray(res.log.columns["E_3"])
        assert np.all(np.diff(e3) <= 1e-12 * e3[0])

    def test_every_sample_logs_the_constraint_residuals(self, grid16, constants_b0):
        # no monitors: the simulator's own columns, with the t = 0 sample
        # outside gauss_residual_max
        st = make_initial_data("decay_class", 1e-2, 5, grid16, constants_b0)
        res = simulate(st, SolverConfig(end_time=0.3, output_stride=2), constants_b0)
        assert sorted(res.log.columns) == ["divB_residual", "gauss_residual"]
        gauss = res.log.columns["gauss_residual"]
        assert len(gauss) == len(res.log.times) > 2
        final = verify_compatibility(res.final_state, constants_b0)
        assert gauss[-1] == final.gauss_residual
        assert res.log.columns["divB_residual"][-1] == final.divb_residual
        assert res.log.metadata["gauss_residual_max"] == max(gauss[1:])

    def test_horizon_metadata(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 0.0, 0, grid16, constants_bz)
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
            assert out.log.columns["gauss_residual"][-1] <= 1e-6

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
        assert out.log.columns["gauss_residual"][-1] <= 1e-12

    def test_gauss_projection_keeps_constraint(self, grid16, constants_b0):
        st = make_initial_data("decay_class", 1e-2, 5, grid16, constants_b0)
        cfg = SolverConfig(end_time=1.0, gauss_projection_stride=5, output_stride=5)
        res = simulate(st, cfg, constants_b0, monitors=[standard_monitor(constants_b0)])
        assert res.log.columns["gauss_residual"][-1] <= 1e-8

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
        assert log.columns["a"] == [1.0, 0.5]
        assert math.isnan(log.columns["b"][0]) and log.columns["b"][1] == 2.0

"""Closure, initial-data generation, compatibility."""

import math

import numpy as np
import pytest

from emlab import model
from emlab.errors import (
    AmplitudeTooLarge, ClosureShiftNotConverged, DensityNonpositive, InvalidArgument, SOutOfRange
)
from emlab.linear import QuadratureSpec, SpectralProfile, multi_norm_series
from emlab.model import (
    PerturbationState,
    PhysicalConstants,
    _direction_frame,
    closure_field,
    density_closure,
    make_initial_data,
    solve_gauss_longitudinal,
    verify_compatibility,
)
from emlab.spectral import Field, GridSpec, divergence, homog_norm, l2_norm
from spectral_reference import besov_norm


class TestConstants:
    def test_derived_parameters(self):
        c = PhysicalConstants(gamma=5.0 / 3.0)
        assert c.mu == pytest.approx(1.0 / 3.0)
        assert c.nu == pytest.approx(1.0 / math.sqrt(5.0 / 3.0))

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            PhysicalConstants(gamma=0.9)

    def test_b_infty_zero_flag(self):
        assert PhysicalConstants(b_infty=(0, 0, 0)).b_infty_is_zero
        assert not PhysicalConstants(b_infty=(0, 0, 1)).b_infty_is_zero


class TestClosure:
    def test_zero_maps_to_zero(self):
        assert density_closure(0.0, 5.0 / 3.0) == 0.0

    def test_gamma_three_is_identity(self):
        n = np.linspace(-0.4, 0.6, 23)
        assert np.max(np.abs(density_closure(n, 3.0) - n)) <= 1e-14

    def test_strictly_increasing(self):
        n = np.linspace(-0.9, 2.0, 400)
        vals = density_closure(n, 1.4)
        assert np.all(np.diff(vals) > 0)

    def test_second_derivative_by_richardson(self):
        # measured quadratic coefficient of closure(n) - n converges to the
        # analytic second derivative of (1 + mu n)^(1/mu) at zero, which is
        # (1/mu)(1/mu - 1)mu^2 = 1 - mu = (3 - gamma)/2
        gamma = 5.0 / 3.0
        mu = (gamma - 1.0) / 2.0
        analytic_half_second = (1.0 - mu) / 2.0
        estimates = []
        for h in (1e-2, 5e-3, 2.5e-3):
            quad = (density_closure(h, gamma) - h) / h**2
            estimates.append(quad)
        # Richardson extrapolation of the first-order-in-h sequence
        extrap = 2.0 * estimates[1] - estimates[0]
        assert extrap == pytest.approx(analytic_half_second, rel=1e-4)
        assert estimates[2] == pytest.approx(analytic_half_second, rel=2e-3)

    def test_density_floor_raises(self):
        with pytest.raises(DensityNonpositive):
            density_closure(-4.0, 5.0 / 3.0)

    def test_matches_closed_form(self):
        # (1 + mu n)^(1/mu) - 1 with mu = (gamma - 1)/2, and its limit expm1(n) at gamma = 1
        n = np.linspace(-0.6, 1.2, 37)
        for gamma in (1.0, 1.4, 5.0 / 3.0, 2.0):
            mu = (gamma - 1.0) / 2.0
            want = np.expm1(n) if gamma == 1.0 else (1.0 + mu * n) ** (1.0 / mu) - 1.0
            assert np.max(np.abs(density_closure(n, gamma) - want)) <= 1e-12

    @pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0, 2.0, 3.0])
    def test_quadratic_remainder_bound(self, gamma):
        # |closure(n) - n| <= C n^2 with C within 10% of the analytic
        # half second derivative, for |n| <= 0.1
        mu = (gamma - 1.0) / 2.0
        half_second = abs(1.0 - mu) / 2.0
        n = np.linspace(-0.1, 0.1, 201)
        n = n[n != 0]
        rem = np.abs(density_closure(n, gamma) - n)
        if gamma == 3.0:
            assert np.max(rem) == 0.0
        else:
            ratio = np.max(rem / n**2)
            assert ratio <= 1.1 * half_second * (1.0 + 0.1)


# one bad value per case; the single_mode kind reads none but mode
BAD_INITIAL_DATA = [
    {"kind": "x"}, {"amplitude": -1.0}, {"amplitude": "x"}, {"seed": -1}, {"s": "x"}, {"s": 5.0},
    {"rolloff_width": 0.0}, {"mode": (0, 0, 0)}, {"mode": "x"}, {"mode": (1.5, 0, 0)},
    {"bump_radius_fraction": 0.0}, {"include_transverse_e": 1}, {"normalization": "x"},
]


class TestDirectionFrame:
    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (1.0, -2.0, 0.5)])
    def test_frame_rotates_with_the_direction_about_the_axis(self, axis, rng):
        a = np.asarray(axis) / np.linalg.norm(axis)
        cross = np.cross(a, np.eye(3)).T  # v -> a x v
        R = np.eye(3) + math.sin(0.7) * cross + (1.0 - math.cos(0.7)) * cross @ cross
        omega = rng.normal(size=(50, 3))
        omega /= np.linalg.norm(omega, axis=1, keepdims=True)
        e1, e2 = _direction_frame(omega, axis)
        r1, r2 = _direction_frame(omega @ R.T, axis)
        assert np.allclose(r1, e1 @ R.T, rtol=0.0, atol=1e-13)
        assert np.allclose(r2, e2 @ R.T, rtol=0.0, atol=1e-13)
        frame = np.stack([omega, e1, e2], axis=1)
        assert np.allclose(frame @ frame.transpose(0, 2, 1), np.eye(3), rtol=0.0, atol=1e-14)

    def test_a_direction_along_the_axis_takes_the_x_trial_vector(self):
        e1, e2 = _direction_frame([0.0, 0.0, 1.0])
        assert np.array_equal(e1, [0.0, 1.0, 0.0]) and np.array_equal(e2, [-1.0, 0.0, 0.0])
        e1, e2 = _direction_frame(np.array([[0.0, 0.0, -3.0]]) / 3.0, (0.0, 0.0, 2.0))
        assert np.array_equal(e1, [[0.0, -1.0, 0.0]]) and np.array_equal(e2, [[-1.0, 0.0, 0.0]])


class TestInitialData:
    @pytest.mark.parametrize("bad", BAD_INITIAL_DATA, ids=lambda bad: "-".join(map(str, bad.items())))
    def test_every_argument_is_checked_whatever_the_kind(self, grid16, constants_b0, bad):
        args = {"kind": "single_mode", "amplitude": 1e-2, "seed": 0, "grid": grid16, "constants": constants_b0}
        with pytest.raises(InvalidArgument):
            make_initial_data(**{**args, **bad})

    def test_zero_amplitude_gives_zero_state(self, grid16, constants_b0):
        st = make_initial_data("decay_class", 0.0, 3, grid16, constants_b0)
        rep = verify_compatibility(st, constants_b0)
        assert rep.gauss_residual == 0.0
        assert rep.divb_residual == 0.0
        for f in st.fields().values():
            assert np.max(np.abs(f.coeffs)) == 0.0

    def test_single_mode_compatibility(self, grid32, constants_b0):
        amp = 1e-2
        st = make_initial_data("single_mode", amp, 0, grid32, constants_b0, mode=(2, 0, 1))
        rep = verify_compatibility(st, constants_b0)
        assert rep.gauss_residual <= 1e-10 * amp
        assert rep.divb_residual <= 1e-12
        assert rep.positivity_margin > 0.9

    @pytest.mark.parametrize("mode", [(2, 0, 1), (0, 0, 3)])
    def test_single_mode_polarizations_follow_the_direction_frame(self, grid16, constants_b0, mode):
        # u carries e1 cos + khat sin and B carries e2 cos; (0, 0, 3) takes
        # the other trial vector of the frame
        amp = 1e-3
        st = make_initial_data("single_mode", amp, 0, grid16, constants_b0, mode=mode)
        kvec = np.asarray(mode, dtype=float)
        khat = kvec / np.linalg.norm(kvec)
        e1, e2 = _direction_frame(khat)
        x, y, z = grid16.coordinates()
        phase = 2.0 * math.pi / grid16.box_length * (kvec[0] * x + kvec[1] * y + kvec[2] * z)
        u_want = amp * (e1[:, None, None, None] * np.cos(phase) + khat[:, None, None, None] * np.sin(phase))
        b_want = amp * e2[:, None, None, None] * np.cos(phase)
        assert np.max(np.abs(st.u.physical() - u_want)) <= 1e-15
        assert np.max(np.abs(st.B.physical() - b_want)) <= 1e-15

    @pytest.mark.parametrize("kind", ["decay_class", "bump"])
    def test_generated_data_compatible(self, kind, grid32_wide, constants_b0):
        st = make_initial_data(kind, 1e-2, 7, grid32_wide, constants_b0, s=1.0 if kind == "decay_class" else 1.5)
        rep = verify_compatibility(st, constants_b0)
        scale = max(l2_norm(st.n), 1e-30)
        assert rep.gauss_residual <= 1e-10 * scale
        assert rep.divb_residual <= 1e-12 * max(l2_norm(st.B), 1e-30)
        assert rep.positivity_margin > 0

    def test_b_exactly_transverse(self, grid32, constants_b0):
        st = make_initial_data("decay_class", 1e-2, 9, grid32, constants_b0)
        g = grid32
        kdotb = sum(g.k_axis(a) * st.B.coeffs[a] for a in range(3))
        assert np.max(np.abs(kdotb)) <= 1e-14 * max(np.max(np.abs(st.B.coeffs)), 1e-30)

    def test_amplitude_too_large(self, grid16, constants_b0):
        with pytest.raises(AmplitudeTooLarge):
            make_initial_data("single_mode", 20.0, 0, grid16, constants_b0)

    def test_broken_gauss_detected(self, grid32, constants_b0):
        st = make_initial_data("decay_class", 1e-2, 7, grid32, constants_b0)
        x, _, _ = grid32.coordinates()
        defect = Field.from_physical(grid32, 1e-3 * np.cos(x))
        # inject a longitudinal part whose divergence equals the defect
        extra = solve_gauss_longitudinal(defect, -1.0)
        broken = PerturbationState(st.n, st.u, Field(grid32, st.E.coeffs + extra), st.B)
        rep = verify_compatibility(broken, constants_b0)
        assert rep.gauss_residual == pytest.approx(l2_norm(defect), rel=1e-10)

    def test_decay_class_besov_stable_under_box_doubling(self, constants_b0):
        vals = []
        for L in (8 * math.pi, 16 * math.pi):
            st = make_initial_data(
                "decay_class", 1e-2, 7, GridSpec(32, L), constants_b0, normalization="continuum"
            )
            vals.append(besov_norm(st.u, 1.5))
        assert abs(vals[1] - vals[0]) <= 0.2 * vals[0]

    def test_determinism(self, grid16, constants_b0):
        a = make_initial_data("decay_class", 1e-2, 42, grid16, constants_b0)
        b = make_initial_data("decay_class", 1e-2, 42, grid16, constants_b0)
        for fa, fb in zip(a.fields().values(), b.fields().values()):
            assert np.array_equal(fa.coeffs, fb.coeffs)

    @pytest.mark.parametrize("s", [0.0, 1.0, 1.49])
    def test_a_data_class_that_cannot_act_is_rejected_before_any_draw(self, grid16, constants_b0, monkeypatch, s):
        # on L = 2 pi every nonzero mode has |k| >= 1, the plateau edge, so
        # only s = 3/2 describes the draws
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the check")

        monkeypatch.setattr(model, "random_phase_field", no_draw)
        with pytest.raises(SOutOfRange, match="cannot act"):
            make_initial_data("decay_class", 1e-2, 0, grid16, constants_b0, s=s)

    @pytest.mark.parametrize("kind", ["bump", "single_mode"])
    @pytest.mark.parametrize("s", [0.0, 1.0, 1.49])
    def test_kinds_that_do_not_read_the_data_class_refuse_it(self, grid16, grid16_wide, constants_b0, kind, s):
        # bump and single_mode data do not depend on s: an s other than 3/2
        # is refused on any box, where decay_class would act on it
        for grid in (grid16, grid16_wide):
            with pytest.raises(SOutOfRange, match=f"cannot act on {kind} data"):
                make_initial_data(kind, 1e-2, 0, grid, constants_b0, s=s)
        make_initial_data("decay_class", 1e-2, 0, grid16_wide, constants_b0, s=s)
        make_initial_data(kind, 1e-2, 0, grid16_wide, constants_b0, s=1.5)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_continuum_data_are_the_analyzers_datum(self, grid32_wide, constants_b0, s, k):
        # the lattice norm of grad^k n is a Riemann sum of the integral that
        # linear takes of the same profile, a (2 pi)^(-3/2) times it; k = 0
        # is not asserted, as the box has no modes below 2 pi / L (the sum
        # falls short by 6.2% at s = 1/2)
        amplitude = 1e-2
        st = make_initial_data("decay_class", amplitude, 7, grid32_wide, constants_b0, s=s, normalization="continuum")
        profile = SpectralProfile.decay_class(s, plateau=1.0, rolloff=0.5, include_n=True)
        quad = QuadratureSpec(radial_nodes=200, xi_max=4.0, check_convergence=False)
        series = multi_norm_series(profile, k, ["n_only"], [0.0, 1.0], constants_b0, quad)["n_only"]
        want = amplitude * (2.0 * math.pi) ** -1.5 * series.values[0]
        assert homog_norm(st.n, k) == pytest.approx(want, rel=1e-3)


# the envelope of the random kind at s = 1 and its rolloff default, written
# out here as the oracle
ENVELOPES = {
    "decay_class": lambda r: np.minimum(1.0, np.where(r > 0, r, 1.0)) ** -0.5
    * np.where(r <= 1.0, 1.0, np.exp(-(((r - 1.0) / 0.5) ** 2))),
}
KINDS = ["decay_class", "bump", "single_mode"]
TRANSVERSE_E = pytest.mark.parametrize("transverse_e", [False, True], ids=["no_te", "te"])
NORMALIZATIONS = pytest.mark.parametrize("normalization", ["physical", "continuum"])


def _contract_state(grid, constants, kind, transverse_e, normalization):
    # s = 1 where the kind reads the data class; the others take only s = 3/2
    s = 1.0 if kind == "decay_class" else 1.5
    return make_initial_data(kind, 1e-2, 11, grid, constants, s=s, mode=(1, 2, 0),
                             include_transverse_e=transverse_e, normalization=normalization)


class TestInitialDataContract:
    """The contract of make_initial_data on every kind, with and without a
    transverse E, under both normalizations, on a box where the data class
    acts: decay_class at s = 1, the kinds that do not read s at s = 3/2."""

    @pytest.mark.parametrize("kind", KINDS)
    @TRANSVERSE_E
    @NORMALIZATIONS
    def test_on_the_constraint_manifold(self, grid16_wide, constants_bz, kind, transverse_e, normalization):
        st = _contract_state(grid16_wide, constants_bz, kind, transverse_e, normalization)
        rep = verify_compatibility(st, constants_bz)
        scale = max(l2_norm(f) for f in st.fields().values())
        assert scale > 0
        assert rep.gauss_residual <= 1e-10 * scale
        assert rep.divb_residual <= 1e-12 * scale
        assert rep.positivity_margin > 0

    @pytest.mark.parametrize("kind", KINDS)
    @NORMALIZATIONS
    def test_e_is_the_gauss_solve_without_transverse_e(self, grid16_wide, constants_bz, kind, normalization):
        st = _contract_state(grid16_wide, constants_bz, kind, False, normalization)
        closure = closure_field(grid16_wide, st.n.physical(), constants_bz.gamma)
        e_long = solve_gauss_longitudinal(closure, constants_bz.nu)
        assert np.array_equal(st.E.coeffs, e_long)

    @pytest.mark.parametrize("kind", sorted(ENVELOPES))
    @TRANSVERSE_E
    def test_physical_normalization_sets_the_max_sample(self, grid16_wide, constants_bz, kind, transverse_e):
        st = _contract_state(grid16_wide, constants_bz, kind, transverse_e, "physical")
        closure = closure_field(grid16_wide, st.n.physical(), constants_bz.gamma)
        e_long = solve_gauss_longitudinal(closure, constants_bz.nu)
        parts = [st.u, st.B] + ([Field(grid16_wide, st.E.coeffs - e_long)] if transverse_e else [])
        for f in parts:
            assert float(np.max(np.abs(f.physical()))) == pytest.approx(1e-2, rel=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("width", [0.3, 0.5])
    @TRANSVERSE_E
    @NORMALIZATIONS
    def test_decay_class_is_the_analyzer_envelope(
        self, grid16_wide, constants_bz, monkeypatch, s, width, transverse_e, normalization
    ):
        # the same draws under linear's decay-class envelope of index s with
        # its plateau edge at 1 give the same state, bit for bit
        def build():
            return make_initial_data("decay_class", 1e-2, 11, grid16_wide, constants_bz, s=s, rolloff_width=width,
                                     include_transverse_e=transverse_e, normalization=normalization)

        own = build()
        envelope = SpectralProfile.decay_class(s, plateau=1.0, rolloff=width).envelope
        draw, calls = model.random_phase_field, []

        def draw_under_decay_class(grid, rng, env, vector=False):
            calls.append(vector)
            return draw(grid, rng, envelope, vector)

        monkeypatch.setattr(model, "random_phase_field", draw_under_decay_class)
        reference = build()
        assert len(calls) == (4 if transverse_e else 3)
        for name, f in own.fields().items():
            assert np.array_equal(f.coeffs, reference.fields()[name].coeffs), name

    @pytest.mark.parametrize("kind", sorted(ENVELOPES))
    @TRANSVERSE_E
    def test_continuum_normalization_sets_the_coefficients(self, grid16_wide, constants_bz, kind, transverse_e):
        # |u_a(k)| = amplitude n^3 / L^3 envelope(|k|) on the modes the
        # envelope reaches, off the zero mode and the Nyquist planes
        st = _contract_state(grid16_wide, constants_bz, kind, transverse_e, "continuum")
        g = grid16_wide
        env = ENVELOPES[kind](g.k_mag)
        reached = (env > 0) & (g.k_squared > 0)
        ny = g.n // 2
        reached[ny, :, :] = reached[:, ny, :] = reached[:, :, ny] = False
        want = 1e-2 * g.n**3 / g.box_length**3 * env[reached]
        for a in range(3):
            assert np.allclose(np.abs(st.u.coeffs[a][reached]), want, rtol=1e-12, atol=0.0)


def _brentq_shift(n_phys, gamma):
    """The zero-mean closure shift by scipy's brentq on the same bracket."""
    from scipy.optimize import brentq

    mu = (gamma - 1.0) / 2.0
    span = 2.0 * float(np.max(np.abs(n_phys))) + 1e-12
    c_floor = -math.inf if mu == 0 else 0.5 * (-(1.0 + mu * float(n_phys.min())) / mu)

    def mean_closure(c):
        return float(np.mean(density_closure(n_phys + c, gamma)))

    return brentq(mean_closure, max(-span, c_floor), span, xtol=1e-16, rtol=8.9e-16)


def _skewed_noise(amplitude, seed=3):
    # exponential noise has a nonzero mean and skew, so the shift is not ~0
    noise = np.random.default_rng(seed).standard_exponential((16, 16, 16)) - 0.8
    return amplitude * noise / np.max(np.abs(noise))


class TestClosureShift:
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 5.0 / 3.0, 2.0, 3.0, 4.0, 7.0])
    @pytest.mark.parametrize("amplitude", [1e-4, 1e-2, 0.1, 0.5])
    def test_newton_matches_brentq(self, gamma, amplitude, monkeypatch):
        # Newton converges quadratically: at most 4 steps on these cases
        monkeypatch.setattr(model, "_SHIFT_MAX_STEPS", 6)
        n_phys = _skewed_noise(amplitude)
        assert float(np.min(1.0 + (gamma - 1.0) / 2.0 * n_phys)) > 0.0  # every case is admissible
        c = float(np.mean(model._shift_to_zero_closure_mean(n_phys, gamma) - n_phys))
        c_ref = _brentq_shift(n_phys, gamma)
        assert c != 0.0
        assert abs(c - c_ref) <= 1e-16 + 1e-15 * abs(c)

    def test_unconverged_iteration_raises(self, monkeypatch):
        monkeypatch.setattr(model, "_SHIFT_MAX_STEPS", 1)
        with pytest.raises(ClosureShiftNotConverged):
            model._shift_to_zero_closure_mean(_skewed_noise(0.1), 5.0 / 3.0)

    def test_no_admissible_shift_raises(self):
        # the zero-mean shift would push the lowest point past 1 + mu*n > 0
        n_phys = np.full((4, 4, 4), 0.3)
        n_phys[0, 0, 0] = -0.33
        with pytest.raises(AmplitudeTooLarge):
            model._shift_to_zero_closure_mean(n_phys, 7.0)

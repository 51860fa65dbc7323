"""Mode system structure, propagation, quadrature, and decay fits."""

import math

import numpy as np
import pytest

from emlab import linear
from emlab.errors import QuadratureNotConverged, RequiresBInftyZero
from emlab.linear import (
    QUANTITIES,
    QuadratureSpec,
    SpectralProfile,
    decay_report,
    evolve_mode,
    initial_mode_vector,
    mode_matrix,
    multi_norm_series,
    weighted_norm_series,
)
from emlab.model import PhysicalConstants


class TestModeMatrix:
    def test_trace_is_minus_three_nu(self, constants_bz):
        for xi in ([0, 0, 0], [1.0, 0, 0], [0.3, -0.4, 0.9]):
            m = mode_matrix(xi, constants_bz)
            assert np.trace(m.matrix) == pytest.approx(-3.0 * constants_bz.nu)
            assert np.max(np.abs(np.diag(m.matrix)[4:])) == 0.0

    def test_spectral_abscissa_nonpositive(self, constants_b0, constants_bz):
        for c in (constants_b0, constants_bz):
            for r in (0.01, 0.3, 1.0, 4.0, 40.0):
                for xi in ([r, 0, 0], [0, 0, r], [r / 2, r / 2, r / math.sqrt(2)]):
                    eigs = np.linalg.eigvals(mode_matrix(xi, c).matrix)
                    assert eigs.real.max() <= 1e-10

    def test_origin_eigenvalues(self, constants_b0):
        # at xi = 0: n and B decouple (zero rows), each velocity axis pairs
        # with its electric axis through [[-nu, -nu], [nu, 0]]
        nu = constants_b0.nu
        m = mode_matrix([0.0, 0.0, 0.0], constants_b0)
        eigs = np.sort_complex(np.round(np.linalg.eigvals(m.matrix), 12))
        pair = np.linalg.eigvals(np.array([[-nu, -nu], [nu, 0.0]]))
        expected = np.sort_complex(
            np.round(np.concatenate([np.zeros(4), np.tile(pair, 3)]), 12)
        )
        assert np.allclose(eigs, expected)

    def test_axis_mode_block_decouples(self, constants_b0):
        # xi along x with zero background: longitudinal (n, u1, E1) and
        # transverse (u_perp, E_perp, B_perp) blocks do not mix
        kappa = 0.7
        A = mode_matrix([kappa, 0.0, 0.0], constants_b0).matrix
        longit = [0, 1, 4]
        transv = [2, 3, 5, 6, 7, 8, 9]
        assert np.max(np.abs(A[np.ix_(longit, transv)])) == 0.0
        assert np.max(np.abs(A[np.ix_(transv, longit)])) == 0.0

    def test_longitudinal_on_constraint_damped_uniformly(self, constants_b0):
        # characteristic polynomial of the longitudinal block restricted to
        # the constraint manifold has real part exactly -nu/2
        nu = constants_b0.nu
        for kappa in (0.1, 1.0, 10.0):
            roots = np.roots([1.0, nu, nu**2 + kappa**2])
            assert np.allclose(roots.real, -nu / 2.0)


class TestEvolveMode:
    def test_time_zero_identity(self, constants_bz, rng):
        m = mode_matrix([0.2, 0.5, -0.1], constants_bz)
        s0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert np.allclose(evolve_mode(m, 0.0, s0), s0)

    def test_group_property(self, constants_bz, rng):
        m = mode_matrix([0.2, 0.5, -0.1], constants_bz)
        s0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a = evolve_mode(m, 0.7, evolve_mode(m, 1.3, s0))
        b = evolve_mode(m, 2.0, s0)
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

    def test_origin_velocity_spiral(self, constants_b0):
        # u-only data at xi = 0 follows the closed-form 2x2 exponential per axis
        nu = constants_b0.nu
        m = mode_matrix([0.0, 0.0, 0.0], constants_b0)
        s0 = np.zeros(10, dtype=complex)
        s0[1] = 1.0
        t = 1.7
        block = np.array([[-nu, -nu], [nu, 0.0]])
        from scipy.linalg import expm

        expected = expm(block * t) @ np.array([1.0, 0.0])
        got = evolve_mode(m, t, s0)
        assert got[1] == pytest.approx(expected[0], rel=1e-10)
        assert got[4] == pytest.approx(expected[1], rel=1e-10)

    def test_dissipative_norm_nonincreasing(self, constants_bz, rng):
        m = mode_matrix([0.4, -0.2, 0.3], constants_bz)
        s0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        norms = [np.linalg.norm(evolve_mode(m, t, s0)) for t in np.linspace(0, 10, 21)]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(norms, norms[1:]))

    def test_constraint_subspace_invariant(self, constants_b0):
        prof = SpectralProfile.decay_class(1.5, include_n=True)
        r = 0.6
        omega = np.array([0.0, 0.0, 1.0])
        s0 = initial_mode_vector(prof, r, omega, constants_b0.nu)
        m = mode_matrix(r * omega, constants_b0)
        scale = np.abs(s0).max()
        for t in (1.0, 10.0, 100.0):
            st = evolve_mode(m, t, s0)
            gauss = abs(1j * r * st[6] + constants_b0.nu * st[0])
            divb = abs(r * st[9])
            assert gauss <= 1e-9 * scale
            assert divb <= 1e-9 * scale

    def test_rotational_covariance(self, constants_b0, rng):
        th, ph = 0.83, 0.41
        Rz = np.array([[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1.0]])
        Rx = np.array([[1.0, 0, 0], [0, math.cos(ph), -math.sin(ph)], [0, math.sin(ph), math.cos(ph)]])
        R = Rz @ Rx
        big = np.zeros((10, 10))
        big[0, 0] = 1.0
        for b in range(3):
            big[1 + 3 * b : 4 + 3 * b, 1 + 3 * b : 4 + 3 * b] = R
        xi = np.array([0.3, -0.1, 0.25])
        s0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a = evolve_mode(mode_matrix(R @ xi, constants_b0), 3.0, big @ s0)
        b = big @ evolve_mode(mode_matrix(xi, constants_b0), 3.0, s0)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


class TestWeightedNormSeries:
    def test_time_zero_flat_ball(self, constants_b0):
        # flat modulus 1 on the unit ball, one component slot loaded per
        # field: the t = 0 norm squared is component-count * ball volume
        prof = SpectralProfile(
            envelope=lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0),
            include_n=False,
        )
        quad = QuadratureSpec(radial_nodes=400, xi_max=1.0, check_convergence=False)
        ser = weighted_norm_series(prof, 0, "full_state", [0.0], constants_b0, quad)
        # |u|^2 = |E|^2 = |B|^2 = 1 on the ball
        expected = math.sqrt(3.0 * 4.0 * math.pi / 3.0)
        assert ser.values[0] == pytest.approx(expected, rel=1e-6)

    def test_single_shell_matches_evolve_mode(self, constants_b0):
        prof = SpectralProfile.single_shell(0.8)
        times = [0.0, 2.0, 7.0]
        ser = weighted_norm_series(prof, 1, "full_state", times, constants_b0)
        m = mode_matrix(np.array([0.0, 0.0, 0.8]), constants_b0)
        s0 = initial_mode_vector(prof, 0.8, np.array([0.0, 0.0, 1.0]), constants_b0.nu)
        direct = [0.8 * np.linalg.norm(evolve_mode(m, t, s0)) for t in times]
        assert np.allclose(ser.values, direct, rtol=1e-12)

    @pytest.mark.parametrize("n_theta, n_phi", [(2, 3), (4, 8)])
    def test_single_shell_averages_over_directions(self, constants_b0, n_theta, n_phi):
        # the shell amplitude is a direction average: a vanishing background
        # field must reproduce the isotropic value whatever the angular rule
        prof = SpectralProfile.single_shell(0.8)
        quad = QuadratureSpec(n_theta=n_theta, n_phi=n_phi, check_convergence=False)
        times = [0.0, 2.0, 7.0]
        isotropic = weighted_norm_series(prof, 1, "full_state", times, constants_b0, quad)
        tiny_b = PhysicalConstants(b_infty=(0.0, 0.0, 1e-12))
        averaged = weighted_norm_series(prof, 1, "full_state", times, tiny_b, quad)
        assert np.allclose(averaged.values, isotropic.values, rtol=1e-9, atol=0.0)

    def test_quadrature_convergence_guard(self, constants_b0):
        prof = SpectralProfile.decay_class(1.5)
        quad = QuadratureSpec(radial_nodes=4, check_convergence=True)
        with pytest.raises(QuadratureNotConverged):
            weighted_norm_series(prof, 0, "full_state", np.geomspace(20, 500, 8), constants_b0, quad)

    def test_angular_quadrature_agrees_with_reduction(self, constants_b0):
        # evaluate the isotropic case with the full angular product rule by
        # faking a nonzero background of size zero is not possible, so
        # compare a tiny background against the reduced isotropic result
        prof = SpectralProfile.decay_class(1.5)
        times = [5.0, 25.0]
        quad = QuadratureSpec(radial_nodes=200, check_convergence=False, n_theta=8, n_phi=16)
        reduced = weighted_norm_series(prof, 0, "full_state", times, constants_b0, quad)
        tiny_b = PhysicalConstants(b_infty=(0.0, 0.0, 1e-12))
        full = weighted_norm_series(prof, 0, "full_state", times, tiny_b, quad)
        assert np.allclose(reduced.values, full.values, rtol=1e-6)


# the monitored quantities written out per mode state, as a reference for the
# functional table QUANTITIES
REFERENCE_QUANTITIES = {
    "full_state": lambda st, xi: np.sum(np.abs(st) ** 2),
    "nuE": lambda st, xi: np.sum(np.abs(st[:7]) ** 2),
    "uE": lambda st, xi: np.sum(np.abs(st[1:7]) ** 2),
    "n_only": lambda st, xi: np.abs(st[0]) ** 2,
    "B_only": lambda st, xi: np.sum(np.abs(st[7:10]) ** 2),
    "n_divu": lambda st, xi: np.abs(st[0]) ** 2 + np.abs(1j * (xi @ st[1:4])) ** 2,
}

TINY_RULE = QuadratureSpec(radial_nodes=3, xi_max=1.0, n_theta=2, n_phi=3, check_convergence=False)
SHORT_TIMES = [0.0, 0.5, 2.0, 6.0]


def _direct_quadrature(profile, k, quantity, times, constants, quad):
    """The weighted norm as a plain sum over modes of evolve_mode."""
    x, wx = np.polynomial.legendre.leggauss(quad.radial_nodes)
    radii, radial_w = (x + 1.0) / 2.0 * quad.xi_max, wx * quad.xi_max / 2.0
    if constants.b_infty_is_zero:
        dirs, dir_w = [np.array([0.0, 0.0, 1.0])], [4.0 * math.pi]
    else:
        ct, wt = np.polynomial.legendre.leggauss(quad.n_theta)
        phis = 2.0 * math.pi * np.arange(quad.n_phi) / quad.n_phi
        dirs = [
            np.array([math.sqrt(1 - c**2) * math.cos(p), math.sqrt(1 - c**2) * math.sin(p), c])
            for c in ct
            for p in phis
        ]
        dir_w = [w * 2.0 * math.pi / quad.n_phi for w in wt for _ in phis]
    total = np.zeros(len(times))
    for r, wr in zip(radii, radial_w):
        for omega, wo in zip(dirs, dir_w):
            xi = r * omega
            mode = mode_matrix(xi, constants)
            s0 = initial_mode_vector(profile, r, omega, constants.nu)
            for i, t in enumerate(times):
                st = evolve_mode(mode, t, s0)
                total[i] += wr * wo * r ** (2 * k + 2) * REFERENCE_QUANTITIES[quantity](st, xi)
    return np.sqrt(total)


class TestBatchedQuadrature:
    def test_reference_covers_every_quantity(self):
        assert set(REFERENCE_QUANTITIES) == set(QUANTITIES)

    @pytest.mark.parametrize("k", [0, 1])
    def test_matches_direct_sum_over_evolve_mode(self, constants_bz, k):
        prof = SpectralProfile.decay_class(1.5, include_n=True)
        quantities = list(QUANTITIES)
        series = multi_norm_series(prof, k, quantities, SHORT_TIMES, constants_bz, TINY_RULE)
        for q in quantities:
            direct = _direct_quadrature(prof, k, q, SHORT_TIMES, constants_bz, TINY_RULE)
            np.testing.assert_allclose(series[q].values, direct, rtol=1e-12, err_msg=q)
        assert series["full_state"].metadata["modes"] == 3 * 2 * 3

    def test_n_divu_matches_direct_sum_at_zero_background(self, constants_b0):
        prof = SpectralProfile.decay_class(1.5, include_n=True)
        ser = weighted_norm_series(prof, 1, "n_divu", SHORT_TIMES, constants_b0, TINY_RULE)
        direct = _direct_quadrature(prof, 1, "n_divu", SHORT_TIMES, constants_b0, TINY_RULE)
        np.testing.assert_allclose(ser.values, direct, rtol=1e-12)

    def test_forced_expm_fallback_matches_eig_path(self, constants_bz, monkeypatch):
        prof = SpectralProfile.decay_class(1.5, include_n=True)
        times = SHORT_TIMES + [20.0]
        quantities = list(QUANTITIES)
        eig = multi_norm_series(prof, 0, quantities, times, constants_bz, TINY_RULE)
        assert eig["full_state"].metadata["expm_fallbacks"] == 0
        assert eig["full_state"].metadata["max_eig_cond"] >= 1.0
        monkeypatch.setattr(linear, "COND_LIMIT", 0.0)
        forced = multi_norm_series(prof, 0, quantities, times, constants_bz, TINY_RULE)
        meta = forced["full_state"].metadata
        assert meta["expm_fallbacks"] == meta["modes"] == 3 * 2 * 3
        for q in quantities:
            np.testing.assert_allclose(forced[q].values, eig[q].values, rtol=1e-10, err_msg=q)

    def test_failed_stacked_eig_is_retried_per_mode(self, constants_bz, monkeypatch):
        prof = SpectralProfile.decay_class(1.5)
        stacked = multi_norm_series(prof, 0, ["full_state"], SHORT_TIMES, constants_bz, TINY_RULE)
        eig = np.linalg.eig

        def eig_failing_on_stacks(a):
            if len(a) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", eig_failing_on_stacks)
        retried = multi_norm_series(prof, 0, ["full_state"], SHORT_TIMES, constants_bz, TINY_RULE)
        np.testing.assert_allclose(
            retried["full_state"].values, stacked["full_state"].values, rtol=1e-14
        )
        meta = retried["full_state"].metadata
        assert (meta["modes"], meta["expm_fallbacks"]) == (3 * 2 * 3, 0)


@pytest.fixture(scope="module")
def report_s32(constants_b0):
    return decay_report(
        constants_b0,
        s=1.5,
        k_list=[0],
        quad=QuadratureSpec(radial_nodes=400),
        num_times=24,
    )


class TestDecayReport:
    def test_transverse_quantities_hit_targets(self, report_s32):
        by_q = {r.quantity: r for r in report_s32}
        assert by_q["full_state"].fit.verdict == "pass"
        assert by_q["nuE"].fit.verdict == "pass"
        assert by_q["B_only"].fit.verdict == "pass"

    def test_regularity_loss_signature(self, report_s32):
        # B never decays faster than the basic rate while the density norm
        # collapses much faster than its nonlinear target under this flow
        by_q = {r.quantity: r for r in report_s32}
        basic = by_q["full_state"].target
        assert abs(by_q["B_only"].fit.slope) <= abs(basic) + 0.08
        assert by_q["n_only"].fit.slope < by_q["nuE"].fit.slope

    def test_targets_table(self, report_s32):
        by_q = {(r.quantity, r.k): r for r in report_s32}
        assert by_q[("full_state", 0)].target == pytest.approx(-0.75)
        assert by_q[("nuE", 0)].target == pytest.approx(-1.25)
        assert by_q[("n_only", 0)].target == pytest.approx(-1.75)
        assert by_q[("n_divu", 0)].target == pytest.approx(-3.25)
        assert by_q[("full_state", 0)].min_regularity == 4

    def test_roundoff_floor_flags_collapsed_density(self, report_s32):
        # with a zero background the density norms drop to eigen-roundoff
        # inside the fit window; the transverse ones stay far above it
        flagged = {r.quantity for r in report_s32 if r.fit.floor_contaminated}
        assert flagged == {"n_only", "n_divu"}
        assert all(r.fit.verdict == "fail" for r in report_s32 if r.quantity in flagged)

    def test_n_divu_requires_zero_background(self, constants_bz):
        with pytest.raises(RequiresBInftyZero):
            decay_report(
                constants_bz,
                s=1.5,
                k_list=[0],
                quantities=["n_divu"],
                quad=QuadratureSpec(radial_nodes=50, check_convergence=False),
            )

    def test_p_parameterization_matches_s(self, constants_b0):
        qs = QuadratureSpec(radial_nodes=100, check_convergence=False)
        by_s = decay_report(constants_b0, s=1.5, k_list=[0], quantities=["full_state"], quad=qs, num_times=12)
        by_p = decay_report(constants_b0, p=1.0, k_list=[0], quantities=["full_state"], quad=qs, num_times=12)
        assert by_s[0].target == by_p[0].target
        assert by_s[0].fit.slope == pytest.approx(by_p[0].fit.slope, rel=1e-12)

"""Mode system structure, propagation, quadrature, and decay fits."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from emlab import analysis, linear
from emlab.errors import InvalidArgument, NotRealForm, QuadratureNotConverged, RequiresBInftyZero, SOutOfRange
from emlab.linear import QUANTITIES, QuadratureSpec, SpectralProfile, decay_report, multi_norm_series
from emlab.model import PhysicalConstants, _direction_frame, linear_generator


def evolve_mode(A, t, s0):
    """exp(t A) s0 for one mode: the reference for the batched propagation.

    By eigendecomposition and a solve, with a dense expm when the eigenvector
    matrix is ill-conditioned (1-norm condition number above COND_LIMIT)."""
    lam, vec = np.linalg.eig(A)
    if np.linalg.cond(vec, 1) > linear.COND_LIMIT:
        return scipy.linalg.expm(A * t) @ s0
    return vec @ (np.exp(lam * t) * np.linalg.solve(vec, s0))


def initial_mode_vector(profile, r, omega, nu, axis=(0.0, 0.0, 1.0)):
    """The constraint-consistent 10-vector of the one mode xi = r * omega,
    polarized in the frame about ``axis``."""
    omega = np.asarray(omega, dtype=float)[None]
    frame = _direction_frame(omega, axis)
    return linear._initial_vectors(profile, np.array([r], dtype=float), omega, *frame, nu)[0]


def _hand_cross_matrix(a):
    """Matrix of v -> a x v for a vector or a stack of vectors (..., 3)."""
    a = np.asarray(a, dtype=float)
    m = np.zeros(a.shape[:-1] + (3, 3), dtype=complex)
    m[..., 0, 1], m[..., 0, 2] = -a[..., 2], a[..., 1]
    m[..., 1, 0], m[..., 1, 2] = a[..., 2], -a[..., 0]
    m[..., 2, 0], m[..., 2, 1] = -a[..., 1], a[..., 0]
    return m


def hand_mode_matrices(xi, constants):
    """The linearized generator written out block by block, independently of
    model.linear_generator."""
    xi = np.asarray(xi, dtype=float)
    nu = constants.nu
    eye = np.eye(3)
    A = np.zeros(xi.shape[:-1] + (10, 10), dtype=complex)
    A[..., 0, 1:4] = -1j * xi
    A[..., 1:4, 0] = -1j * xi
    A[..., 1:4, 1:4] = -nu * eye + _hand_cross_matrix(constants.b_infty)
    A[..., 1:4, 4:7] = -nu * eye
    A[..., 4:7, 1:4] = nu * eye
    A[..., 4:7, 7:10] = 1j * nu * _hand_cross_matrix(xi)
    A[..., 7:10, 4:7] = -1j * nu * _hand_cross_matrix(xi)
    return A


class TestLinearGenerator:
    @pytest.mark.parametrize("b_infty", [(0, 0, 0), (0, 0, 1), (0.3, -0.2, 0.9)])
    def test_mode_matrix_equals_hand_written_generator(self, b_infty, rng):
        constants = PhysicalConstants(b_infty=b_infty)
        xi = rng.normal(size=(50, 3)) * rng.uniform(0.01, 20.0, size=(50, 1))
        for x in xi:
            assert np.array_equal(linear._mode_matrices(x, constants), hand_mode_matrices(x, constants))
        assert np.array_equal(linear._mode_matrices(xi, constants), hand_mode_matrices(xi, constants))
        stacked = xi.reshape(5, 10, 3)
        assert np.array_equal(linear._mode_matrices(stacked, constants), hand_mode_matrices(stacked, constants))

    def test_tables_are_read_only_and_cached(self):
        constants = PhysicalConstants(b_infty=(0.3, -0.2, 0.9))
        a0, a1 = linear_generator(constants)
        assert a0.shape == (10, 10) and a1.shape == (3, 10, 10)
        assert a0.dtype == a1.dtype == np.float64
        for table in (a0, a1):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
        assert linear_generator(PhysicalConstants(b_infty=(0.3, -0.2, 0.9))) is linear_generator(constants)
        assert linear_generator(PhysicalConstants(b_infty=(0, 0, 1))) is not linear_generator(constants)


class TestRealForm:
    @pytest.mark.parametrize("b_infty", [(0, 0, 0), (0, 0, 1), (0.3, -0.2, 0.9)])
    def test_real_form_is_similar_to_the_generator(self, b_infty, rng):
        constants = PhysicalConstants(b_infty=b_infty)
        d = np.array([1.0] + [1j] * 6 + [1.0] * 3)
        xi = rng.normal(size=(20, 3)) * rng.uniform(0.01, 20.0, size=(20, 1))
        real = linear._mode_matrices(xi, constants, real=True)
        assert real.dtype == np.float64
        similar = d[:, None] * linear._mode_matrices(xi, constants) / d
        assert np.array_equal(real, similar)

    def test_an_imaginary_entry_is_rejected(self):
        a0, a1 = linear_generator(PhysicalConstants())
        linear._real_tables(a0, a1)
        bad = a0.astype(complex)
        bad[1, 4] *= 1j  # one entry of the u-E block
        with pytest.raises(NotRealForm):
            linear._real_tables(bad, a1)


class TestModeMatrix:
    def test_trace_is_minus_three_nu(self, constants_bz):
        for xi in ([0, 0, 0], [1.0, 0, 0], [0.3, -0.4, 0.9]):
            m = linear._mode_matrices(xi, constants_bz)
            assert np.trace(m) == pytest.approx(-3.0 * constants_bz.nu)
            assert np.max(np.abs(np.diag(m)[4:])) == 0.0

    def test_spectral_abscissa_nonpositive(self, constants_b0, constants_bz):
        for c in (constants_b0, constants_bz):
            for r in (0.01, 0.3, 1.0, 4.0, 40.0):
                for xi in ([r, 0, 0], [0, 0, r], [r / 2, r / 2, r / math.sqrt(2)]):
                    eigs = np.linalg.eigvals(linear._mode_matrices(xi, c))
                    assert eigs.real.max() <= 1e-10

    def test_origin_eigenvalues(self, constants_b0):
        # at xi = 0: n and B decouple (zero rows), each velocity axis pairs
        # with its electric axis through [[-nu, -nu], [nu, 0]]
        nu = constants_b0.nu
        m = linear._mode_matrices([0.0, 0.0, 0.0], constants_b0)
        eigs = np.sort_complex(np.round(np.linalg.eigvals(m), 12))
        pair = np.linalg.eigvals(np.array([[-nu, -nu], [nu, 0.0]]))
        expected = np.sort_complex(
            np.round(np.concatenate([np.zeros(4), np.tile(pair, 3)]), 12)
        )
        assert np.allclose(eigs, expected)

    def test_axis_mode_block_decouples(self, constants_b0):
        # xi along x with zero background: longitudinal (n, u1, E1) and
        # transverse (u_perp, E_perp, B_perp) blocks do not mix
        kappa = 0.7
        A = linear._mode_matrices([kappa, 0.0, 0.0], constants_b0)
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
        m = linear._mode_matrices([0.2, 0.5, -0.1], constants_bz)
        s0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert np.allclose(evolve_mode(m, 0.0, s0), s0)

    def test_group_property(self, constants_bz, rng):
        m = linear._mode_matrices([0.2, 0.5, -0.1], constants_bz)
        s0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a = evolve_mode(m, 0.7, evolve_mode(m, 1.3, s0))
        b = evolve_mode(m, 2.0, s0)
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

    def test_origin_velocity_spiral(self, constants_b0):
        # u-only data at xi = 0 follows the closed-form 2x2 exponential per axis
        nu = constants_b0.nu
        m = linear._mode_matrices([0.0, 0.0, 0.0], constants_b0)
        s0 = np.zeros(10, dtype=complex)
        s0[1] = 1.0
        t = 1.7
        block = np.array([[-nu, -nu], [nu, 0.0]])
        expected = scipy.linalg.expm(block * t) @ np.array([1.0, 0.0])
        got = evolve_mode(m, t, s0)
        assert got[1] == pytest.approx(expected[0], rel=1e-10)
        assert got[4] == pytest.approx(expected[1], rel=1e-10)

    def test_dissipative_norm_nonincreasing(self, constants_bz, rng):
        m = linear._mode_matrices([0.4, -0.2, 0.3], constants_bz)
        s0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        norms = [np.linalg.norm(evolve_mode(m, t, s0)) for t in np.linspace(0, 10, 21)]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(norms, norms[1:]))

    def test_constraint_subspace_invariant(self, constants_b0):
        prof = SpectralProfile.decay_class(1.5, include_n=True)
        r = 0.6
        omega = np.array([0.0, 0.0, 1.0])
        s0 = initial_mode_vector(prof, r, omega, constants_b0.nu)
        m = linear._mode_matrices(r * omega, constants_b0)
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
        a = evolve_mode(linear._mode_matrices(R @ xi, constants_b0), 3.0, big @ s0)
        b = big @ evolve_mode(linear._mode_matrices(xi, constants_b0), 3.0, s0)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


# one radial node at |xi| = xi_max / 2 = 0.8: a single shell
SHELL_RULE = QuadratureSpec(radial_nodes=1, xi_max=1.6, check_convergence=False)


class TestWeightedNormSeries:
    def test_time_zero_flat_ball(self, constants_b0):
        # flat modulus 1 on the unit ball, one component slot loaded per
        # field: the t = 0 norm squared is component-count * ball volume
        prof = SpectralProfile(
            envelope=lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0),
            include_n=False,
        )
        quad = QuadratureSpec(radial_nodes=400, xi_max=1.0, check_convergence=False)
        ser = multi_norm_series(prof, 0, ["full_state"], [0.0], constants_b0, quad)["full_state"]
        # |u|^2 = |E|^2 = |B|^2 = 1 on the ball
        expected = math.sqrt(3.0 * 4.0 * math.pi / 3.0)
        assert ser.values[0] == pytest.approx(expected, rel=1e-6)

    def test_single_shell_matches_evolve_mode(self, constants_b0):
        # one radial node: the shell |xi| = 0.8 with radial weight 1.6, and
        # at zero background the one direction of weight 4 pi
        prof = SpectralProfile(envelope=np.ones_like)
        times = [0.0, 2.0, 7.0]
        ser = multi_norm_series(prof, 1, ["full_state"], times, constants_b0, SHELL_RULE)["full_state"]
        m = linear._mode_matrices(np.array([0.0, 0.0, 0.8]), constants_b0)
        s0 = initial_mode_vector(prof, 0.8, np.array([0.0, 0.0, 1.0]), constants_b0.nu)
        weight = math.sqrt(1.6 * 4.0 * math.pi) * 0.8**2  # sqrt(w r^(2k+2)) at k = 1
        direct = [weight * np.linalg.norm(evolve_mode(m, t, s0)) for t in times]
        assert np.allclose(ser.values, direct, rtol=1e-12)

    @pytest.mark.parametrize("n_theta, n_phi", [(2, 3), (4, 8)])
    def test_single_shell_averages_over_directions(self, constants_b0, n_theta, n_phi):
        # on one shell the angular rule sums directions with weights totalling
        # 4 pi: a vanishing background field must reproduce the isotropic
        # one-direction value whatever the rule
        prof = SpectralProfile(envelope=np.ones_like)
        quad = replace(SHELL_RULE, n_theta=n_theta, n_phi=n_phi)
        times = [0.0, 2.0, 7.0]
        isotropic = multi_norm_series(prof, 1, ["full_state"], times, constants_b0, quad)["full_state"]
        tiny_b = PhysicalConstants(b_infty=(0.0, 0.0, 1e-12))
        averaged = multi_norm_series(prof, 1, ["full_state"], times, tiny_b, quad)["full_state"]
        assert np.allclose(averaged.values, isotropic.values, rtol=1e-9, atol=0.0)

    def test_quadrature_convergence_guard(self, constants_b0):
        prof = SpectralProfile.decay_class(1.5)
        quad = QuadratureSpec(radial_nodes=4, check_convergence=True)
        with pytest.raises(QuadratureNotConverged):
            multi_norm_series(prof, 0, ["full_state"], np.geomspace(20, 500, 8), constants_b0, quad)

    def test_unconverged_quadrature_names_the_quantity_and_k(self, constants_b0):
        # one pass serves several k, so the error says which k moved
        quad = QuadratureSpec(radial_nodes=4, check_convergence=True)
        with pytest.raises(QuadratureNotConverged, match=r"^full_state at k=1: doubling radial nodes"):
            decay_report(constants_b0, s=1.5, k_list=[1], quantities=["full_state"], num_times=8, quad=quad)

    def test_angular_quadrature_agrees_with_reduction(self, constants_b0):
        # evaluate the isotropic case with the full angular product rule by
        # faking a nonzero background of size zero is not possible, so
        # compare a tiny background against the reduced isotropic result
        prof = SpectralProfile.decay_class(1.5)
        times = [5.0, 25.0]
        quad = QuadratureSpec(radial_nodes=200, check_convergence=False, n_theta=8, n_phi=16)
        reduced = multi_norm_series(prof, 0, ["full_state"], times, constants_b0, quad)["full_state"]
        tiny_b = PhysicalConstants(b_infty=(0.0, 0.0, 1e-12))
        full = multi_norm_series(prof, 0, ["full_state"], times, tiny_b, quad)["full_state"]
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


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 800])
    def test_exact_for_every_degree_up_to_2n_minus_1(self, n):
        x, w = linear._gauss_legendre(n)
        moments = np.polynomial.legendre.legvander(x, 2 * n - 1).T @ w
        expected = np.zeros(2 * n)
        expected[0] = 2.0
        assert np.max(np.abs(moments - expected)) <= 1e-14

    def test_nodes_ascending_symmetric_and_those_of_leggauss(self):
        for n in range(1, 101):
            x, w = linear._gauss_legendre(n)
            assert np.all(np.diff(x) > 0)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 1e-15

    def test_memory_is_linear_in_the_node_count(self):
        # leggauss builds a dense n x n companion matrix: 32 MB at n = 2000
        tracemalloc.start()
        try:
            linear._gauss_legendre.__wrapped__(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rules_are_read_only(self):
        x, w = linear._gauss_legendre(5)
        assert not x.flags.writeable and not w.flags.writeable

    def test_theta_rule_does_not_evict_the_radial_rules(self, constants_bz):
        # coarse and refined radial rules plus the theta rule: built once
        # each over a report, whatever the number of k
        quad = QuadratureSpec(radial_nodes=40, n_theta=2, check_convergence=True)
        linear._gauss_legendre.cache_clear()
        decay_report(constants_bz, s=1.5, k_list=[0, 1, 2], quantities=["full_state"], quad=quad, num_times=8)
        assert linear._gauss_legendre.cache_info().misses == 3


TINY_RULE = QuadratureSpec(radial_nodes=3, xi_max=1.0, n_theta=2, n_phi=3, check_convergence=False)
SHORT_TIMES = [0.0, 0.5, 2.0, 6.0]


def _product_rule(axis, n_theta, n_phi):
    """The full (theta, phi) rule about an axis: Gauss-Legendre in cos(theta)
    times the trapezoid rule in phi, from the normal y x axis (x for the z
    axis): (directions, weights)."""
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    p = np.cross([0.0, 1.0, 0.0], axis)
    p /= np.linalg.norm(p)
    q = np.cross(axis, p)
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    dirs = [c * axis + math.sqrt(1 - c**2) * (math.cos(f) * p + math.sin(f) * q) for c in ct for f in phis]
    return dirs, [w * 2.0 * math.pi / n_phi for w in wt for _ in phis]


def _direct_quadrature(profile, k, quantity, times, constants, quad, axis=(0.0, 0.0, 1.0)):
    """The weighted norm as a plain sum over modes of evolve_mode, over the
    full (theta, phi) rule about ``axis``, with the data polarized about it."""
    x, wx = np.polynomial.legendre.leggauss(quad.radial_nodes)
    radii, radial_w = (x + 1.0) / 2.0 * quad.xi_max, wx * quad.xi_max / 2.0
    if constants.b_infty_is_zero:
        dirs, dir_w = [np.array([0.0, 0.0, 1.0])], [4.0 * math.pi]
    else:
        dirs, dir_w = _product_rule(axis, quad.n_theta, quad.n_phi)
    total = np.zeros(len(times))
    for r, wr in zip(radii, radial_w):
        for omega, wo in zip(dirs, dir_w):
            xi = r * omega
            mode = linear._mode_matrices(xi, constants)
            s0 = initial_mode_vector(profile, r, omega, constants.nu, axis)
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
        assert series["full_state"].metadata["modes"] == 3 * 2

    @pytest.mark.parametrize("b_infty", [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8)])
    def test_one_direction_per_theta_node_matches_the_full_product_rule(self, b_infty):
        # n_theta = 8 has nodes at |cos theta| = 0.96, near the axis
        constants = PhysicalConstants(b_infty=b_infty)
        quad = replace(TINY_RULE, n_theta=8, n_phi=5)
        prof = SpectralProfile.decay_class(1.5, include_n=True)
        series = multi_norm_series(prof, 1, ["full_state", "nuE", "B_only"], SHORT_TIMES, constants, quad)
        for q in series:
            direct = _direct_quadrature(prof, 1, q, SHORT_TIMES, constants, quad, axis=b_infty)
            np.testing.assert_allclose(series[q].values, direct, rtol=1e-12, err_msg=q)
        assert series["full_state"].metadata["modes"] == 3 * 8

    def test_oblique_background_gives_the_series_of_the_z_axis(self):
        # the whole problem rotates with B_inf: data, rule and generator
        prof = SpectralProfile.decay_class(1.5, include_n=True)
        quad = QuadratureSpec(radial_nodes=40, n_theta=8, check_convergence=False)
        times = np.geomspace(20.0, 500.0, 8)
        along_z, oblique = (
            multi_norm_series(prof, 1, list(QUANTITIES), times, PhysicalConstants(b_infty=b), quad)
            for b in ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8))
        )
        for q in QUANTITIES:
            np.testing.assert_allclose(oblique[q].values, along_z[q].values, rtol=1e-11, err_msg=q)

    def test_n_divu_matches_direct_sum_at_zero_background(self, constants_b0):
        prof = SpectralProfile.decay_class(1.5, include_n=True)
        ser = multi_norm_series(prof, 1, ["n_divu"], SHORT_TIMES, constants_b0, TINY_RULE)["n_divu"]
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
        assert meta["expm_fallbacks"] == meta["modes"] == 3 * 2
        for q in quantities:
            np.testing.assert_allclose(forced[q].values, eig[q].values, rtol=1e-10, err_msg=q)

    def test_max_eig_cond_is_the_worst_1_norm_condition(self, constants_bz, monkeypatch):
        eig, seen = np.linalg.eig, []

        def recording_eig(a):
            lam, vec = eig(a)
            seen.append(vec)
            return lam, vec

        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        prof = SpectralProfile.decay_class(1.5)
        series = multi_norm_series(prof, 0, ["full_state"], SHORT_TIMES, constants_bz, TINY_RULE)
        worst = max(float(np.linalg.cond(vec, 1).max()) for vec in seen)
        assert series["full_state"].metadata["max_eig_cond"] == pytest.approx(worst, rel=1e-12)

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
        assert (meta["modes"], meta["expm_fallbacks"]) == (3 * 2, 0)


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

    def test_s_is_checked_before_the_quadrature(self, constants_bz, monkeypatch):
        # an out-of-range s fails with the other argument checks, before any quadrature
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the quadrature ran before s was checked")

        monkeypatch.setattr(linear, "_series_by_k", no_quadrature)
        quad = QuadratureSpec(radial_nodes=8, n_theta=2, n_phi=3, check_convergence=False)
        with pytest.raises(SOutOfRange):
            decay_report(constants_bz, s=5.0, k_list=[0], quad=quad)

    @pytest.mark.parametrize("bad", [
        {"k_list": []},
        {"k_list": [0, 0]},
        {"quantities": []},
        {"quantities": ["B_only", "B_only"]},
        {"num_times": 2},
        {"num_times": 7},
    ], ids=repr)
    def test_arguments_without_a_verdict_are_checked_before_the_quadrature(self, constants_bz, monkeypatch, bad):
        # no rows, repeated rows, or fewer samples than a fit needs
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the quadrature ran before the arguments were checked")

        monkeypatch.setattr(linear, "_series_by_k", no_quadrature)
        quad = QuadratureSpec(radial_nodes=8, n_theta=2, n_phi=3, check_convergence=False)
        with pytest.raises(InvalidArgument, match=next(iter(bad))):
            decay_report(constants_bz, s=1.5, quad=quad, **{"k_list": [0], **bad})
        # the smallest num_times a fit can take reaches the quadrature
        with pytest.raises(AssertionError, match="quadrature ran"):
            decay_report(constants_bz, s=1.5, k_list=[0], num_times=analysis._MIN_FIT_SAMPLES, quad=quad)


GAUSSIAN = SpectralProfile(envelope=lambda r: np.exp(-(r**2)), label="gaussian")


class TestSharedPass:
    """decay_report propagates once for all its k."""

    @pytest.mark.parametrize("b_infty, n_dirs", [((0.0, 0.0, 0.0), 1), ((0.0, 0.0, 1.0), 2)])
    def test_one_pass_per_rule_gives_the_rows_of_one_k_reports(self, b_infty, n_dirs):
        constants = PhysicalConstants(b_infty=b_infty)
        quad = QuadratureSpec(radial_nodes=40, n_theta=2, n_phi=3, check_convergence=True)
        metrics = {}
        shared = decay_report(constants, s=1.5, k_list=[0, 1, 2], quad=quad, num_times=12, metrics=metrics)
        alone = [row for k in (0, 1, 2) for row in decay_report(constants, s=1.5, k_list=[k], quad=quad, num_times=12)]
        assert [r.as_dict() for r in shared] == [r.as_dict() for r in alone]
        # one coarse and one refined pass, whatever the number of k
        assert metrics["modes"] == 40 * n_dirs * 3

    def test_orders_share_the_largest_orders_rule(self, constants_bz):
        # a Gaussian's auto xi_max grows with k; k = 0 rides on k = 1's rule
        prof = GAUSSIAN
        quad = QuadratureSpec(radial_nodes=24, n_theta=2, n_phi=3, check_convergence=False)
        xi_max = linear._auto_xi_max(prof, 1)
        assert linear._auto_xi_max(prof, 0) < xi_max
        by_k, counts = linear._series_by_k(prof, [0, 1], ["full_state", "B_only"], SHORT_TIMES, constants_bz, quad)
        assert counts.modes == 24 * 2
        at_xi_max = replace(quad, xi_max=xi_max)
        for k in (0, 1):
            alone = multi_norm_series(prof, k, ["full_state", "B_only"], SHORT_TIMES, constants_bz, at_xi_max)
            for q, series in alone.items():
                assert np.array_equal(by_k[k][q].values, series.values)
                assert by_k[k][q].metadata == series.metadata

    @pytest.mark.parametrize("profile", [
        *(SpectralProfile.decay_class(s) for s in (0.0, 0.5, 1.0, 1.5)),
        GAUSSIAN,
    ], ids=lambda p: p.label)
    def test_auto_xi_max_never_decreases_with_k(self, profile):
        # what lets the largest k's rule serve every smaller k
        rules = [linear._auto_xi_max(profile, k) for k in range(31)]
        assert rules == sorted(rules)

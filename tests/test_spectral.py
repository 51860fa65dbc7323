"""Grid, transforms, multipliers, dyadic decomposition, and norm calculators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab.spectral import Field, GridSpec, _lp_rings, curl, divergence, homog_norm, l2_norm, random_phase_field
from spectral_reference import (
    NegativePowerOnNonzeroMean,
    besov_norm,
    component,
    differentiate,
    fractional,
    gradient,
    inner_product,
    lp_norm,
    neg_sobolev_norm,
    partition_residual,
    random_band_limited,
)


def half_multiplicity(n):
    """Hermitian multiplicity of the kz planes 0..n/2 of an rfft half-spectrum."""
    mult = np.full(n // 2 + 1, 2.0)
    mult[0] = mult[-1] = 1.0
    return mult


def single_mode(grid, mode, amp=1.0, phase=0.0):
    x, y, z = grid.coordinates()
    kv = 2.0 * math.pi / grid.box_length * np.asarray(mode, dtype=float)
    return Field.from_physical(grid, amp * np.cos(kv[0] * x + kv[1] * y + kv[2] * z + phase))


class TestGridAndField:
    def test_wavenumber_extremes(self, grid16):
        assert grid16.k_min == pytest.approx(1.0)
        # per-axis max below Nyquist
        assert grid16.k_max == pytest.approx(7.0)

    def test_roundtrip_identity(self, grid32, rng):
        values = rng.standard_normal((32, 32, 32))
        f = Field.from_physical(grid32, values)
        assert np.max(np.abs(f.physical() - values)) <= 1e-12 * np.max(np.abs(values))

    def test_samples_are_not_kept_on_the_field(self, grid16, rng):
        # every call transforms anew; a caller that reads the samples twice holds them
        f = Field.from_physical(grid16, rng.standard_normal((16, 16, 16)))
        first = f.physical()
        assert vars(f).keys() == {"grid", "coeffs"}
        assert f.physical() is not first and np.array_equal(f.physical(), first)

    def test_conjugate_symmetry_of_real_fields(self, grid16, rng):
        # the half-spectrum of real samples round-trips through physical space
        f = Field.from_physical(grid16, rng.standard_normal((16, 16, 16)))
        assert f.coeffs.shape == (16, 16, 9)
        back = Field.from_physical(grid16, f.physical())
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_parseval(self, grid32, rng):
        values = rng.standard_normal((32, 32, 32))
        f = Field.from_physical(grid32, values)
        phys = math.sqrt(np.sum(values**2) * grid32.cell_volume)
        assert l2_norm(f) == pytest.approx(phys, rel=1e-10)

    def test_parseval_scales_with_box(self, rng):
        # box-measure quadrature: same samples on a larger box have larger norm
        values = rng.standard_normal((16, 16, 16))
        small = Field.from_physical(GridSpec(16, 2 * math.pi), values)
        large = Field.from_physical(GridSpec(16, 4 * math.pi), values)
        assert l2_norm(large) == pytest.approx(l2_norm(small) * 2**1.5, rel=1e-12)

    def test_vector_field_shapes(self, grid16, rng):
        v = Field.from_physical(grid16, rng.standard_normal((3, 16, 16, 16)))
        assert v.is_vector
        assert not component(v, 0).is_vector


def _band_mask(grid: GridSpec, band: int) -> np.ndarray:
    keep = [np.abs(grid.mode_axis(a)) <= band for a in range(3)]
    return keep[0] & keep[1] & keep[2]


def _banded_rfftn(values: np.ndarray, band: int) -> np.ndarray:
    """The RHS's forward passes at ``band``: z, then x on the kz planes
    0..band, then y on those planes of the in-band kx rows."""
    from emlab import spectral

    out = spectral._z_forward(values)
    spectral._x_forward(out, band)
    for rows in spectral._rows(values.shape[-1], band):
        spectral._y_forward(out, band, rows)
    return out


def _banded_irfftn(coeffs: np.ndarray, n: int, band: int) -> np.ndarray:
    """The RHS's inverse passes at ``band``, in place on a copy: x on the
    in-band ky rows of the kz planes 0..band, y on those planes, then z."""
    from emlab import spectral

    work = coeffs.astype(np.complex128)
    for rows in spectral._rows(n, band):
        spectral._x_inverse(work, band, rows)
    spectral._y_inverse(work, band)
    return spectral._z_inverse(work, n)


class TestBandTransforms:
    @pytest.mark.parametrize("n", [4, 6, 16, 18, 24, 32, 64])
    @pytest.mark.parametrize("banded", [False, True])
    def test_match_the_full_transforms(self, n, banded, rng):
        # numpy.fft passes in scipy's order give scipy.fft's bits: on every
        # mode without a band, on the in-band modes at the RHS's band n//3
        import scipy.fft as sfft

        from emlab import spectral

        grid = GridSpec(n, 2.0 * math.pi)
        values = rng.standard_normal((3, n, n, n))
        coeffs = sfft.rfftn(values, axes=(-3, -2, -1))
        if not banded:
            assert np.array_equal(spectral._rfftn(values), coeffs)
            assert np.array_equal(spectral._irfftn(coeffs, n), sfft.irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1)))
            return
        keep = _band_mask(grid, n // 3)
        assert np.array_equal(_banded_rfftn(values, n // 3)[..., keep], coeffs[..., keep])
        limited = coeffs * keep
        want = sfft.irfftn(limited, s=(n, n, n), axes=(-3, -2, -1))
        assert np.array_equal(_banded_irfftn(limited, n, n // 3), want)

    def test_the_band_contract(self, grid16, rng):
        # the banded inverse passes are exact only on inputs that are zero
        # outside the band, and the banded forward passes only on the in-band
        # modes: nothing checks either, so the RHS masks its inputs and its
        # products
        from emlab import spectral

        n, band = 16, 5
        keep = _band_mask(grid16, band)
        values = rng.standard_normal((2, n, n, n))
        full = spectral._rfftn(values)
        banded = _banded_rfftn(values, band)
        assert np.array_equal(banded[..., keep], full[..., keep])
        assert not np.allclose(banded[..., ~keep], full[..., ~keep])
        assert np.array_equal(_banded_irfftn(full * keep, n, band), spectral._irfftn(full * keep, n))
        assert not np.allclose(_banded_irfftn(full, n, band), values)
        assert np.allclose(spectral._irfftn(full, n), values, rtol=0, atol=1e-13)


class TestDifferentialOperators:
    def test_derivative_of_constant_is_zero(self, grid16):
        f = Field.from_physical(grid16, np.full((16, 16, 16), 3.7))
        g = gradient(f)
        assert np.max(np.abs(g.coeffs)) == 0.0

    def test_single_mode_gradient_norm(self, grid32):
        f = single_mode(grid32, (2, 1, 0))
        kmag = math.sqrt(4 + 1)
        assert l2_norm(gradient(f)) == pytest.approx(kmag * l2_norm(f), rel=1e-12)

    def test_second_derivative_vs_double_gradient(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        tensor_norm = differentiate(f, 2).norm()
        gg = gradient(f)
        brute = math.sqrt(
            sum(l2_norm(gradient(component(gg, i))) ** 2 for i in range(3))
        )
        assert abs(tensor_norm - brute) <= 1e-10 * brute
        assert homog_norm(f, 2) == pytest.approx(brute, rel=1e-10)

    def test_div_curl_identities(self, grid16, rng):
        v = random_band_limited(grid16, rng, vector=True)
        # div curl = 0, curl grad = 0
        assert l2_norm(divergence(curl(v))) <= 1e-12 * max(l2_norm(v), 1.0)
        f = random_band_limited(grid16, rng)
        assert l2_norm(curl(gradient(f))) <= 1e-12 * max(l2_norm(f), 1.0)

    def test_laplacian_is_div_grad(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        a = Field(grid16, -grid16.k_squared * f.coeffs)
        b = divergence(gradient(f))
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(a.coeffs))


class TestFractional:
    def test_single_mode_half_power(self, grid32):
        f = single_mode(grid32, (3, 0, 0))
        g = fractional(f, 0.5)
        assert l2_norm(g) == pytest.approx(math.sqrt(3.0) * l2_norm(f), rel=1e-12)

    def test_multiplier_inverse(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        g = fractional(fractional(f, 0.75), -0.75)
        expected = f.coeffs.copy()
        expected[0, 0, 0] = 0.0
        assert np.max(np.abs(g.coeffs - expected)) <= 1e-11 * np.max(np.abs(expected))

    def test_composition_law(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        a = fractional(fractional(f, 0.4), 0.9)
        b = fractional(f, 1.3)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-11 * np.max(np.abs(b.coeffs))

    def test_negative_power_requires_mean_zero(self, grid16):
        f = Field.from_physical(grid16, np.ones((16, 16, 16)))
        with pytest.raises(NegativePowerOnNonzeroMean):
            fractional(f, -0.5)

    def test_shell_negative_power(self, grid32):
        # field on a single shell |k| = kappa: negative norm is kappa^-s times L2
        f = single_mode(grid32, (0, 2, 0))
        s = 0.8
        assert neg_sobolev_norm(f, s) == pytest.approx(2.0**-s * l2_norm(f), rel=1e-12)


class TestNorms:
    def test_zero_field(self, grid16):
        f = Field.zeros(grid16)
        assert homog_norm(f, 0) == 0.0
        assert homog_norm(f, 1) == 0.0

    def test_single_mode_homog(self, grid32):
        amp = 0.3
        f = single_mode(grid32, (1, 2, 2), amp=amp)
        kmag = 3.0
        expected_l2 = amp * grid32.box_length**1.5 / math.sqrt(2.0)
        assert l2_norm(f) == pytest.approx(expected_l2, rel=1e-12)
        assert homog_norm(f, 3) == pytest.approx(kmag**3 * expected_l2, rel=1e-12)

    def test_sobolev_norm_by_direct_summation(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        # independent loop over the half-spectrum, interior kz planes twice
        w = grid16.norm_weight
        k = 2.0 * np.pi * np.fft.fftfreq(16, d=grid16.spacing)
        k[8] = 0.0  # Nyquist excluded from the calculus
        mult = half_multiplicity(16)
        total = 0.0
        for i in range(16):
            for j in range(16):
                for m in range(9):
                    k2 = k[i] ** 2 + k[j] ** 2 + k[m] ** 2
                    wk = sum(k2**l for l in range(3)) if k2 > 0 else 1.0
                    total += w * mult[m] * wk * abs(f.coeffs[i, j, m]) ** 2
        h2 = math.sqrt(sum(homog_norm(f, l) ** 2 for l in range(3)))
        assert h2 == pytest.approx(math.sqrt(total), rel=1e-10)

    def test_neg_sobolev_flat_profile_direct_sum(self, grid16):
        # flat coefficients on 0 < |k| <= 1 (the six unit modes, stored as
        # (+-1,0,0), (0,+-1,0) and (0,0,1) in the half-spectrum): since
        # |k| = 1 there, norm^2 = w * 6 whatever s is
        coeffs = np.zeros((16, 16, 9), dtype=complex)
        for idx in [(1, 0, 0), (15, 0, 0), (0, 1, 0), (0, 15, 0), (0, 0, 1)]:
            coeffs[idx] = 1.0
        f = Field(grid16, coeffs)
        s = 0.7
        direct = math.sqrt(grid16.norm_weight * 6.0)
        assert neg_sobolev_norm(f, s) == pytest.approx(direct, rel=1e-12)

    def test_s_zero_is_l2(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        assert neg_sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_lp_norm_constant(self, grid16):
        c = 0.42
        f = Field.from_physical(grid16, np.full((16, 16, 16), c))
        L = grid16.box_length
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(f, p) == pytest.approx(c * L ** (3.0 / p), rel=1e-12)
        assert lp_norm(f, math.inf) == pytest.approx(c)

    def test_lp2_matches_parseval(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        assert lp_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-10)

    def test_lp_norm_bump_closed_form(self, grid32):
        # cos^2 profile: integral of cos^2 over the box is L^3/2
        x, _, _ = grid32.coordinates()
        f = Field.from_physical(grid32, np.cos(x) ** 2 * np.ones_like(x))
        L = grid32.box_length
        # ||cos^2||_1 = L^2 * integral cos^2 dx = L^3/2; ||cos^2||_2^2 = L^2 * 3L/8
        assert lp_norm(f, 1.0) == pytest.approx(L**3 / 2.0, rel=1e-12)
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(3.0 * L**3 / 8.0), rel=1e-12)


class TestLittlewoodPaley:
    def test_partition_of_unity(self, grid16):
        assert partition_residual(grid16) <= 1e-10

    def test_ring_support(self, grid16):
        j_min, rings = _lp_rings(grid16)
        kmag = np.sqrt(grid16.mode_squared.astype(float)) * grid16.k_min
        for j, ring in enumerate(rings, j_min):
            outside = (kmag < 2.0 ** (j - 1) - 1e-12) | (kmag > 2.0 ** (j + 1) + 1e-12)
            assert np.max(np.abs(ring[outside])) == 0.0

    def test_block_sum_recovers_field(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        total = np.zeros_like(f.coeffs)
        for ring in _lp_rings(grid16)[1]:
            total += ring * f.coeffs
        expected = f.coeffs.copy()
        expected[0, 0, 0] = 0.0
        assert np.max(np.abs(total - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_blocks_far_apart_are_disjoint(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        rings = _lp_rings(grid16)[1]
        # rings j_min + 3 and j_min + 1
        twice = rings[3] * rings[1] * f.coeffs
        assert np.max(np.abs(twice)) == 0.0

    def test_block_of_shell_inside_ring(self, grid32):
        # |k| = 2^j strictly inside ring j: the block keeps the field intact
        f = single_mode(grid32, (0, 0, 4))  # |k| = 4 = 2^2
        j_min, rings = _lp_rings(grid32)
        blocked = rings[2 - j_min] * f.coeffs
        assert np.max(np.abs(blocked - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_almost_orthogonality(self, grid16, rng):
        f = random_band_limited(grid16, rng)
        total = sum(l2_norm(Field(grid16, ring * f.coeffs)) ** 2 for ring in _lp_rings(grid16)[1])
        n2 = l2_norm(f) ** 2
        assert total <= 3.0 * n2
        assert n2 <= 3.0 * total


class TestBesov:
    def test_zero_field(self, grid16):
        assert besov_norm(Field.zeros(grid16), 1.0) == 0.0

    def test_single_ring_value(self, grid32):
        f = single_mode(grid32, (0, 0, 4))
        s = 1.0
        # the mode sits at |k| = 4 = 2^2, inside ring 2 where the weight is 1
        expected = 2.0 ** (-s * 2) * l2_norm(f)
        val = besov_norm(f, s)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_requires_mean_zero(self, grid16):
        f = Field.from_physical(grid16, np.ones((16, 16, 16)))
        with pytest.raises(NegativePowerOnNonzeroMean):
            besov_norm(f, 1.0)


class TestRandomFactories:
    def test_phase_field_has_exact_modulus(self, grid16, rng):
        env = lambda r: np.where(r > 0, np.exp(-r), 0.0)
        f = random_phase_field(grid16, rng, env)
        # half-spectrum axes: kx, ky in FFT order, kz = 0..8
        m = np.fft.fftfreq(16, d=1.0 / 16)
        mx, my, mz = m.reshape(-1, 1, 1), m.reshape(1, -1, 1), np.abs(m[:9]).reshape(1, 1, -1)
        kmag = np.sqrt(mx**2 + my**2 + mz**2) * grid16.k_min
        active = np.ones((16, 16, 9), dtype=bool)
        active[0, 0, 0] = False
        active[8, :, :] = active[:, 8, :] = active[:, :, 8] = False
        got = np.abs(f.coeffs[active])
        want = env(kmag[active])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        assert np.max(np.abs(f.coeffs[~active])) == 0.0
        back = Field.from_physical(grid16, f.physical())
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_band_limited_band(self, grid16, rng):
        f = random_band_limited(grid16, rng, band_fraction=0.25)
        assert f.coeffs.shape == (16, 16, 9)
        m = np.abs(np.fft.fftfreq(16, d=1.0 / 16))
        outside = (m.reshape(-1, 1, 1) > 4) | (m.reshape(1, -1, 1) > 4) | (m[:9].reshape(1, 1, -1) > 4)
        assert np.max(np.abs(f.coeffs[outside])) == 0.0
        assert np.max(np.abs(f.coeffs[~outside])) > 0.0


@settings(max_examples=20, deadline=None)
@given(
    s=st.floats(min_value=0.1, max_value=1.4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fractional_inverse_property(s, seed):
    grid = GridSpec(8, 2.0 * math.pi)
    f = random_band_limited(grid, np.random.default_rng(seed))
    g = fractional(fractional(f, s), -s)
    expected = f.coeffs.copy()
    expected[0, 0, 0] = 0.0
    scale = np.max(np.abs(expected))
    if scale > 0:
        assert np.max(np.abs(g.coeffs - expected)) <= 1e-11 * scale


# -- the half layout against an independent full-spectrum reference -------------


def full_spectrum(f):
    """Full complex FFT of a field's samples, built without the half layout."""
    return np.fft.fftn(f.physical(), axes=(-3, -2, -1))


def full_wavenumbers(grid):
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    k[grid.n // 2] = 0.0  # Nyquist excluded from the calculus
    return k.reshape(-1, 1, 1), k.reshape(1, -1, 1), k.reshape(1, 1, -1)


def full_sum(grid, order, a, b=None):
    """w * sum over the full spectrum of |k|^(2 order) Re<a, b>; order 0 keeps every mode."""
    kx, ky, kz = full_wavenumbers(grid)
    k2 = kx**2 + ky**2 + kz**2
    wk = np.ones_like(k2) if order == 0 else np.where(k2 > 0, np.where(k2 > 0, k2, 1.0) ** order, 0.0)
    prod = np.real(a * np.conj(a if b is None else b))
    if prod.ndim == 4:
        prod = prod.sum(axis=0)
    return grid.norm_weight * float(np.sum(wk * prod))


def full_gradient(grid, c):
    return np.stack([1j * k * c for k in full_wavenumbers(grid)])


def full_curl(grid, v):
    kx, ky, kz = full_wavenumbers(grid)
    return 1j * np.stack([ky * v[2] - kz * v[1], kz * v[0] - kx * v[2], kx * v[1] - ky * v[0]])


def full_besov(grid, c, s):
    from emlab.spectral import cutoff_profile

    m = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    m[grid.n // 2] = 0.0
    r = np.sqrt(m.reshape(-1, 1, 1) ** 2 + m.reshape(1, -1, 1) ** 2 + m.reshape(1, 1, -1) ** 2) * grid.k_min
    power = np.abs(c) ** 2
    vals = []
    j_min, rings = _lp_rings(grid)
    for j in range(j_min, j_min + len(rings)):
        ring = cutoff_profile(r * 2.0**-j) - cutoff_profile(r * 2.0 ** (-j + 1))
        vals.append(2.0 ** (-s * j) * math.sqrt(grid.norm_weight * np.sum(ring * power)))
    return max(vals)


def white_field(grid, rng, vector=False):
    """Mean-zero white noise: content on every mode, the Nyquist planes included."""
    shape = ((3,) if vector else ()) + (grid.n,) * 3
    values = rng.standard_normal(shape)
    return Field.from_physical(grid, values - values.mean(axis=(-3, -2, -1), keepdims=True))


def stepped_state(grid):
    from emlab.dynamics import cfl_dt, step
    from emlab.model import PhysicalConstants, make_initial_data

    constants = PhysicalConstants(b_infty=(0.0, 0.0, 1.0))
    st = make_initial_data("decay_class", 1e-2, 3, grid, constants, include_transverse_e=True)
    return step(st, cfl_dt(st, grid, constants), constants)


def white_state(grid, rng):
    from emlab.model import PerturbationState

    return PerturbationState(
        n=white_field(grid, rng),
        u=white_field(grid, rng, vector=True),
        E=white_field(grid, rng, vector=True),
        B=white_field(grid, rng, vector=True),
    )


class TestHalfLayoutAgainstFullSpectrum:
    def test_norms_of_random_real_fields(self, grid16, rng):
        g = grid16
        for vector in (False, True):
            f = white_field(g, rng, vector)
            h = f + white_field(g, rng, vector)  # correlated: <f, h> is O(||f||^2)
            F, H = full_spectrum(f), full_spectrum(h)
            assert l2_norm(f) == pytest.approx(math.sqrt(full_sum(g, 0, F)), rel=1e-12)
            for order in range(4):
                assert homog_norm(f, order) == pytest.approx(math.sqrt(full_sum(g, order, F)), rel=1e-12)
            assert neg_sobolev_norm(f, 0.7) == pytest.approx(math.sqrt(full_sum(g, -0.7, F)), rel=1e-12)
            assert besov_norm(f, 1.2) == pytest.approx(full_besov(g, F, 1.2), rel=1e-12)
            assert inner_product(f, h) == pytest.approx(full_sum(g, 0, F, H), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::emlab.errors.DerivativeOrderExceedsResolution")
    @pytest.mark.parametrize("which", ["stepped", "white"])
    def test_functionals(self, grid16, rng, which):
        from emlab import energetics as en

        g = grid16
        st = stepped_state(g) if which == "stepped" else white_state(g, rng)
        full = {name: full_spectrum(f) for name, f in st.fields().items()}
        table = en._table(st, range(4))

        def orders(names, lo, hi):
            return sum(full_sum(g, l, full[f]) for f in names for l in range(lo, hi + 1))

        N = 3
        assert en._energy(table, N) == pytest.approx(orders("nuEB", 0, N), rel=1e-12)
        d_ref = orders("nu", 0, N) + orders("E", 0, N - 1) + orders("B", 1, N - 1)
        assert en._dissipation(table, N) == pytest.approx(d_ref, rel=1e-12)
        k = 1
        e_win, d_win = en._window_energy(table, k)
        assert e_win == pytest.approx(orders("nuEB", k, k + 2), rel=1e-12)
        d_ref = orders("nu", k, k + 2) + orders("E", k, k + 1) + orders("B", k + 1, k + 1)
        assert d_win == pytest.approx(d_ref, rel=1e-12)

        i_n, i_e, i_b = en._interactive(table, k)
        grad_n, curl_b = full_gradient(g, full["n"]), full_curl(g, full["B"])
        refs = [
            (i_n, [(full["u"], grad_n, l) for l in (k, k + 1)]),
            (i_e, [(full["u"], full["E"], l) for l in (k, k + 1)]),
            (-i_b, [(full["E"], curl_b, k)]),
        ]
        for got, terms in refs:
            want = sum(full_sum(g, l, a, b) for a, b, l in terms)
            # signed sums: relative to the Cauchy-Schwarz bound of their terms
            bound = sum(math.sqrt(full_sum(g, l, a) * full_sum(g, l, b)) for a, b, l in terms)
            assert abs(got - want) <= 1e-12 * bound
            assert abs(want) > 1e-3 * bound  # the reference is not cancellation noise

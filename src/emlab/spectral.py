"""Periodic grid, Fourier fields, multiplier calculus, and norm calculators.

Conventions used throughout the package:

* A field lives on a periodic cube of side ``box_length`` sampled at
  ``points_per_axis`` = n points per axis.  Fields are real, so their
  canonical representation is the rfft half-spectrum: coefficients of shape
  (n, n, n//2+1), kx and ky in FFT order and kz = 0..n/2.  The modes with
  kz < 0 are the complex conjugates of stored ones and are not kept.
* Every sum over the spectrum counts each stored mode with its Hermitian
  multiplicity: the interior kz planes stand for themselves and their
  mirror images and count twice; the kz = 0 plane and the kz = n/2
  (Nyquist) plane are their own mirrors and count once.  Only this module
  knows the layout; other modules broadcast against ``GridSpec.k_axis`` and
  take sums through ``GridSpec.weight``.
* The transforms are chains of numpy.fft 1-D passes in the order of
  scipy's n-D transforms: ``_rfftn`` runs z (r2c), then x, then y;
  ``_irfftn`` runs x, then y, then z (c2r), and scales once by 1/n^3.  Their
  numbers are scipy's rfftn and irfftn numbers bit for bit (numpy's own
  rfftn runs y before x).  The passes run in place on the calling thread;
  every function is looked up on numpy.fft at call time, so a wrapper set
  there sees every pass.
* The solver's RHS runs the same 1-D passes (``_x_inverse`` ... ``_y_forward``)
  on its own thread pool, limited to the modes |m_i| <= n//3 that the
  two-thirds rule keeps: a pass given ``band`` runs only on the kz planes
  0..band, and ``rows`` picks the lines of the other axis.  Skipping the
  other lines is exact only on inputs that are zero outside the band, and
  for outputs only on the in-band modes; nothing checks either, so the RHS
  masks its inputs and its products.
* Every weighted Fourier-side quantity is one reduction, ``_sums``: a stack
  of power spectra summed against per-mode weight columns (the |k|^(2l)
  weights, the Sobolev column of order -s, or the 2^(-2sj)-scaled dyadic
  rings of the Besov norm).  The norms below, the monitors' energy and
  dissipation tables and the inequality oracles all call it.
* Wavenumbers are ``k = 2*pi*m/box_length`` with integer ``m`` in the
  symmetric FFT range.  The Nyquist plane is excluded from every derivative
  and multiplier (its odd multipliers cannot stay conjugate-symmetric), so
  spectral calculus silently treats fields as band-limited below Nyquist.
* All L2-type norms use box-measure quadrature: ``||f||^2 = w * sum|f_hat|^2``
  over the full spectrum, with ``w = box_length^3 / points^6``, matching the
  continuum scaling of norms with the box size.
* Homogeneous norms of negative order are defined modulo constants; their
  weight columns (``_negative_weights``) exclude the zero mode.

The module holds the calculus that the solver, the monitors, the linear
analyzer and the inequality oracles run.  The per-field reference forms
(gradient, derivative tensors, fractional powers, the negative-order and
L^p norms of one field, random band-limited fields) live in the test suite,
``tests/spectral_reference.py``, which checks the batched code against them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import check, is_count, is_real

__all__ = [
    "GridSpec",
    "Field",
    "divergence",
    "curl",
    "homog_norm",
    "l2_norm",
    "random_phase_field",
]


def _rows(n: int, band: int) -> tuple[slice, slice]:
    """The indices |m| <= band < n/2 of a full FFT axis of n points, as two slices."""
    return slice(0, band + 1), slice(n - band, n)


# The 1-D passes of the transforms, each on the kz planes 0..band (all for no
# band) of a stack of half-spectra; ``rows`` picks the lines of the other
# axis.  ``_rfftn``, ``_irfftn`` and the solver's RHS run these and no other
# transform call.


def _planes(band: int | None) -> slice:
    return slice(None) if band is None else slice(0, band + 1)


def _x_inverse(a: np.ndarray, band: int | None = None, rows: slice = slice(None), out: np.ndarray | None = None):
    """The inverse x pass of ``a`` on the ky rows ``rows``, into the same lines of ``out`` (default: in place)."""
    lines = a[..., rows, _planes(band)]
    np.fft.ifft(lines, axis=-3, norm="forward", out=lines if out is None else out[..., rows, _planes(band)])


def _y_inverse(a: np.ndarray, band: int | None = None):
    """The inverse y pass of ``a``, in place."""
    lines = a[..., _planes(band)]
    np.fft.ifft(lines, axis=-2, norm="forward", out=lines)


def _z_inverse(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The c2r pass along z of ``a``, then the one 1/n^3 scale of the inverse."""
    out = np.fft.irfft(a, n, axis=-1, norm="forward", out=out)
    out *= 1.0 / n**3
    return out


def _z_forward(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The r2c pass along z of a stack of real samples."""
    return np.fft.rfft(values, axis=-1, out=out)


def _x_forward(a: np.ndarray, band: int | None = None):
    """The forward x pass of ``a``, in place."""
    lines = a[..., _planes(band)]
    np.fft.fft(lines, axis=-3, out=lines)


def _y_forward(a: np.ndarray, band: int | None = None, rows: slice = slice(None)):
    """The forward y pass of ``a`` on the kx rows ``rows``, in place."""
    lines = a[..., rows, :, _planes(band)]
    np.fft.fft(lines, axis=-2, out=lines)


def _rfftn(values: np.ndarray) -> np.ndarray:
    """Half-spectra of a stack of real samples over its last three axes."""
    out = _z_forward(values)
    _x_forward(out)
    _y_forward(out)
    return out


def _irfftn(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real samples of a stack of half-spectra on n points per axis."""
    work = np.empty(coeffs.shape, dtype=np.complex128)
    _x_inverse(coeffs, out=work)
    _y_inverse(work)
    return _z_inverse(work, n)


@dataclass(frozen=True)
class GridSpec:
    """Periodic N^3 grid with its wavenumber bookkeeping."""

    points_per_axis: int
    box_length: float

    def __post_init__(self):
        check(self.points_per_axis, lambda v: is_count(v, 4) and v % 2 == 0, "points_per_axis", "an even integer >= 4")
        check(self.box_length, lambda v: is_real(v) and v > 0, "box_length", "a finite positive number")

    # cached derived arrays; frozen dataclass, so stash via __dict__
    def _cache(self, name: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        if name not in self.__dict__:
            arr = build()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        return self.__dict__[name]

    @property
    def n(self) -> int:
        return self.points_per_axis

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def norm_weight(self) -> float:
        """Weight w with ||f||_{L2}^2 = w * sum |f_hat|^2 over the full spectrum
        (sums over the stored half-spectrum go through ``weight``)."""
        return self.box_length**3 / self.n**6

    @property
    def k_min(self) -> float:
        """Smallest nonzero wavenumber magnitude, 2*pi/box_length."""
        return 2.0 * math.pi / self.box_length

    @property
    def k_max(self) -> float:
        """Largest per-axis wavenumber kept by the calculus (Nyquist excluded)."""
        return self.k_min * (self.n // 2 - 1)

    @property
    def modes(self) -> np.ndarray:
        """Integer mode numbers of a full axis in FFT order."""
        return self._cache("_modes", lambda: np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64))

    def mode_axis(self, axis: int) -> np.ndarray:
        """Integer mode numbers broadcastable along a spatial axis (0, 1, 2) of
        the half-spectrum; the kz axis keeps 0..n/2 (its Nyquist entry is
        -n/2, the same mode up to sign)."""
        shape = [1, 1, 1]
        shape[axis] = -1
        m = self.modes if axis < 2 else self.modes[: self.n // 2 + 1]
        return m.reshape(shape)

    @property
    def k1d(self) -> np.ndarray:
        """Per-axis wavenumbers (full axis, FFT order) with the Nyquist entry zeroed."""

        def build():
            k = 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.spacing)
            k[self.n // 2] = 0.0
            return k

        return self._cache("_k1d", build)

    def k_axis(self, axis: int) -> np.ndarray:
        """Wavenumber array broadcastable along a spatial axis (0, 1, 2) of the half-spectrum."""
        shape = [1, 1, 1]
        shape[axis] = -1
        k = self.k1d if axis < 2 else self.k1d[: self.n // 2 + 1]
        return k.reshape(shape)

    @property
    def k_squared(self) -> np.ndarray:
        return self._cache(
            "_k2",
            lambda: (self.k_axis(0) ** 2 + self.k_axis(1) ** 2 + self.k_axis(2) ** 2),
        )

    @property
    def k_mag(self) -> np.ndarray:
        return self._cache("_kmag", lambda: np.sqrt(self.k_squared))

    @property
    def mode_squared(self) -> np.ndarray:
        """Integer |m|^2 with the Nyquist planes forced to 0, for exact-dedup tricks."""

        def build():
            ny = self.n // 2
            m2 = [np.where(np.abs(m) == ny, 0, m) ** 2 for m in map(self.mode_axis, range(3))]
            return (m2[0] + m2[1] + m2[2]).astype(np.int64)

        return self._cache("_m2", build)

    def weight(self, order: float) -> np.ndarray:
        """Per-mode weight of every spectral sum: the box weight ``norm_weight``
        times the Hermitian multiplicity times |k|^(2*order).

        ``sum(weight(l) * |f_hat|^2)`` over the half-spectrum is
        ||grad^l f||_{L2}^2.  For order != 0 the modes with k = 0 (the zero
        mode and the axis-pure Nyquist combinations) get weight zero.
        """

        def build():
            mult = np.full(self.n // 2 + 1, 2.0)
            mult[0] = mult[-1] = 1.0  # kz = 0 and kz = n/2 are their own mirrors
            base = self.norm_weight * mult.reshape(1, 1, -1)
            if order == 0:
                return np.broadcast_to(base, self.k_squared.shape).copy()
            k2 = self.k_squared
            with np.errstate(divide="ignore"):
                power = np.where(k2 > 0, k2, 1.0) ** order
            return np.where(k2 > 0, power, 0.0) * base

        return self._cache(f"_weight_{float(order)!r}", build)

    @property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule: keep |m_i| <= floor(n/3) on every axis."""

        def build():
            keep = [np.abs(self.mode_axis(a)) <= self.n // 3 for a in range(3)]
            return keep[0] & keep[1] & keep[2]

        return self._cache("_dealias", build)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = np.arange(self.n) * self.spacing
        return np.meshgrid(x, x, x, indexing="ij")


@dataclass(frozen=True)
class Field:
    """Real scalar or 3-vector field in canonical Fourier representation.

    ``coeffs`` holds the rfft half-spectrum: shape (n, n, n//2+1) for scalars
    and (3, n, n, n//2+1) for vectors.  Fields are immutable; operations
    return new instances.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        n, h = self.grid.n, self.grid.n // 2 + 1
        if c.shape not in {(n, n, h), (3, n, n, h)}:
            raise ValueError(f"coefficient shape {c.shape} is not the half-spectrum of grid {n}^3")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_physical(cls, grid: GridSpec, values: np.ndarray) -> "Field":
        values = np.asarray(values, dtype=float)
        return cls(grid, _rfftn(values))

    @classmethod
    def zeros(cls, grid: GridSpec, vector: bool = False) -> "Field":
        n = grid.n
        shape = (3, n, n, n // 2 + 1) if vector else (n, n, n // 2 + 1)
        return cls(grid, np.zeros(shape, dtype=np.complex128))

    # -- basic queries ----------------------------------------------------

    @property
    def is_vector(self) -> bool:
        return self.coeffs.ndim == 4

    def physical(self) -> np.ndarray:
        """Real-space samples, transformed anew on every call: a caller that
        reads them twice holds them."""
        return _irfftn(self.coeffs, self.grid.n)

    # -- arithmetic (convenience for tests and monitors) -------------------

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


# -- differential operators ----------------------------------------------------


def divergence(v: Field) -> Field:
    if not v.is_vector:
        raise ValueError("divergence expects a vector field")
    g = v.grid
    out = sum(1j * g.k_axis(a) * v.coeffs[a] for a in range(3))
    return Field(g, out)


def curl(v: Field) -> Field:
    if not v.is_vector:
        raise ValueError("curl expects a vector field")
    g = v.grid
    kx, ky, kz = (g.k_axis(a) for a in range(3))
    cx = 1j * (ky * v.coeffs[2] - kz * v.coeffs[1])
    cy = 1j * (kz * v.coeffs[0] - kx * v.coeffs[2])
    cz = 1j * (kx * v.coeffs[1] - ky * v.coeffs[0])
    return Field(g, np.stack([cx, cy, cz]))


def _multi_indices(order: int) -> Iterator[tuple[int, int, int]]:
    for a in range(order, -1, -1):
        for b in range(order - a, -1, -1):
            yield (a, b, order - a - b)


def _derivative_multiplier(g: GridSpec, alpha: tuple[int, int, int]):
    """(i kx)^a (i ky)^b (i kz)^c for alpha = (a, b, c); 1.0 for alpha = 0."""
    mult = (1j * g.k_axis(0)) ** alpha[0] if alpha[0] else 1.0
    mult = mult * (1j * g.k_axis(1)) ** alpha[1] if alpha[1] else mult
    return mult * (1j * g.k_axis(2)) ** alpha[2] if alpha[2] else mult


def resolved_part(f: Field) -> Field:
    """Zero the modes invisible to the derivative calculus.

    These are the k = 0 mode and the axis-pure Nyquist combinations, where
    every odd multiplier vanishes (it cannot stay conjugate-symmetric there);
    constraint functionals are defined away from them.
    """
    c = f.coeffs.copy()
    c[..., f.grid.mode_squared == 0] = 0.0
    return Field(f.grid, c)


# -- norms ----------------------------------------------------------------------


def _power(coeffs: np.ndarray) -> np.ndarray:
    return coeffs.real**2 + coeffs.imag**2


def _field_power(f: Field) -> np.ndarray:
    """|f_hat|^2 summed over vector components; shape (n, n, n//2+1)."""
    p = _power(f.coeffs)
    return p.sum(axis=0) if f.is_vector else p


def _cross_power(f: Field, g: Field) -> np.ndarray:
    """Re(f_hat . conj g_hat) summed over vector components; shape (n, n, n//2+1)."""
    prod = np.real(f.coeffs * np.conj(g.coeffs))
    return prod.sum(axis=0) if f.is_vector else prod


def _weights(grid: GridSpec, orders) -> np.ndarray:
    """GridSpec.weight of each order as the columns of a (modes, orders) matrix."""
    return np.stack([grid.weight(o).ravel() for o in orders], axis=1)


def _sums(power: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted spectral sums of a stack of power spectra: shape (..., columns).

    einsum keeps the product on the calling thread; as a matmul, OpenBLAS
    threads the one-column 32^3 products and the larger stacks, and its
    spinning workers doubled the CPU time of the embedding oracles (2-vCPU
    guest).
    """
    lead = power.shape[:-3]
    return np.einsum("bi,iq->bq", power.reshape(-1, weights.shape[0]), weights).reshape(lead + (-1,))


def _negative_weights(grid: GridSpec, s: float, kind: str) -> np.ndarray:
    """Columns whose largest weighted sum is the squared negative-order norm:
    the one weight of the homogeneous Sobolev norm of order -s, or 2^(-2sj)
    times each dyadic ring j of the Besov norm B^{-s}_{2,inf}."""
    if kind == "sobolev":
        # the zero mode is excluded at every s, including s = 0
        w = grid.weight(-s) if s > 0 else np.where(grid.k_squared > 0, grid.weight(0), 0.0)
        return w.reshape(-1, 1)
    j_min, rings = _lp_rings(grid)
    scaled = [2.0 ** (-2.0 * s * j) * ring * grid.weight(0) for j, ring in enumerate(rings, j_min)]
    return np.stack([r.ravel() for r in scaled], axis=1)


def l2_norm(f: Field) -> float:
    return homog_norm(f, 0)


def homog_norm(f: Field, order: float) -> float:
    """Homogeneous norm ||grad^l f||_{L2} via the |k|^{2l} weighted sum."""
    return math.sqrt(float(_sums(_field_power(f), _weights(f.grid, [order]))[0]))


def _lp_of_magnitude(g: GridSpec, mag: np.ndarray, p: float) -> np.ndarray:
    """L^p norms of pointwise magnitudes, over the last three axes of a stack."""
    if math.isinf(p):
        return mag.max(axis=(-3, -2, -1))
    return (np.sum(mag**p, axis=(-3, -2, -1)) * g.cell_volume) ** (1.0 / p)


# -- Gauss-Legendre rule ------------------------------------------------------


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence; x inside (-1, 1)."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (p_prev - x * p) / (1.0 - x * x)


@functools.lru_cache(maxsize=4)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton on P_n from Tricomi's guesses cos(pi (i - 1/4) / (n + 1/2)) for the
    nodes in [0, 1), mirrored; weights 2 / ((1 - x^2) P_n'(x)^2).  O(n^2) time
    and O(n) memory.  The cache holds what a linear report reuses for every k:
    its coarse and refined radial rules and its theta rule."""
    x = np.cos(math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if np.abs(dx).max() <= 1e-15:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n={n} did not converge")
    odd = n % 2
    if odd:
        x[-1] = 0.0
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = np.concatenate([-x[: x.size - odd], x[::-1]])
    w = np.concatenate([w[: w.size - odd], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# -- Littlewood-Paley family -----------------------------------------------------

# built past the cache, whose slots are the linear report's
_GL_NODES, _GL_WEIGHTS = _gauss_legendre.__wrapped__(48)


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 / (ti * ti - 1.0))
    return out


_BUMP_MASS = float(np.sum(_GL_WEIGHTS * _bump(_GL_NODES)))


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """Normalized integral of the standard bump over [-1, x]: 0 below, 1 above."""
    x = np.asarray(x, dtype=float)
    y = np.clip(x, -1.0, 1.0)
    half = (y + 1.0) / 2.0
    nodes = -1.0 + np.multiply.outer(half, _GL_NODES + 1.0)
    vals = _bump(nodes) @ _GL_WEIGHTS
    return half * vals / _BUMP_MASS


def cutoff_profile(r: np.ndarray) -> np.ndarray:
    """Smooth radial cutoff: 1 for r <= 1, 0 for r >= 2, C-infinity ramp between.

    Built from the normalized integral of exp(1/(t^2-1)); the exact quadrature
    rule is fixed so results are reproducible bit for bit.
    """
    r = np.asarray(r, dtype=float)
    return 1.0 - _smoothstep(2.0 * r - 3.0)


def _lp_rings(grid: GridSpec) -> tuple[int, np.ndarray]:
    """The dyadic rings covering the resolved band of a grid: j_min, and the
    rings phi_j(k) = phi(k/2^j) - phi(k/2^(j-1)) for j = j_min..j_max stacked
    along the first axis (cached on the grid)."""
    j_min = math.floor(math.log2(grid.k_min))

    def build():
        j_max = math.ceil(math.log2(math.sqrt(3.0) * grid.k_max))
        m2 = grid.mode_squared
        uniq, inv = np.unique(m2, return_inverse=True)
        r = np.sqrt(uniq.astype(float)) * grid.k_min
        vals = [cutoff_profile(r * 2.0**-j) - cutoff_profile(r * 2.0 ** (-j + 1)) for j in range(j_min, j_max + 1)]
        return np.stack(vals)[:, inv.ravel()].reshape((-1,) + m2.shape)

    return j_min, grid._cache("_lp_rings", build)


# -- random field factories -------------------------------------------------------


def _zero_nyquist(coeffs: np.ndarray) -> np.ndarray:
    """Zero the three Nyquist planes of half-spectra (or a stack of them) in
    place: the calculus treats them as unresolved."""
    ny = coeffs.shape[-2] // 2
    coeffs[..., ny, :, :] = 0.0
    coeffs[..., :, ny, :] = 0.0
    coeffs[..., :, :, ny] = 0.0
    return coeffs


def _band_envelope(grid: GridSpec, slope: float, band_fraction: float) -> np.ndarray:
    """|k|^slope on |m_i| <= band_fraction * n per axis, zero outside and at k = 0
    (cached on the grid)."""

    def build():
        cut = math.floor(grid.n * band_fraction)
        keep = [np.abs(grid.mode_axis(a)) <= cut for a in range(3)]
        kmag = grid.k_mag
        envelope = np.where(kmag > 0, np.where(kmag > 0, kmag, 1.0) ** slope, 0.0)
        return (keep[0] & keep[1] & keep[2]) * envelope

    return grid._cache(f"_band_{float(slope)!r}_{float(band_fraction)!r}", build)


def _band_limited_block(grid: GridSpec, white: np.ndarray, slopes, band_fraction: float) -> np.ndarray:
    """Half-spectra of a stack of real samples: row i is white noise shaped by
    the envelope |k|^slopes[i] on |m_i| <= band_fraction * n per axis, mean
    zero; a row whose slope is None is only transformed (callers mix exact
    test fields into the same stacked transform).
    """
    coeffs = _rfftn(white)
    for row, slope in zip(coeffs, slopes):
        if slope is not None:
            row *= _band_envelope(grid, slope, band_fraction)
            row[..., 0, 0, 0] = 0.0
    return coeffs


def random_phase_field(
    grid: GridSpec,
    rng: np.random.Generator,
    envelope: Callable[[np.ndarray], np.ndarray],
    vector: bool = False,
) -> Field:
    """Hermitian field with exact modulus envelope(|k|) and random phases.

    The phase is taken from the FFT of white noise, which is Hermitian by
    construction, so the output has exactly the requested modulus while
    remaining the transform of a real field.
    """
    n = grid.n
    shape = (3, n, n, n) if vector else (n, n, n)
    white = _rfftn(rng.standard_normal(shape))
    mag = np.abs(white)
    phase = np.where(mag > 1e-300, white / np.where(mag > 1e-300, mag, 1.0), 1.0)
    env = envelope(grid.k_mag)
    coeffs = env * phase
    coeffs[..., 0, 0, 0] = 0.0
    return Field(grid, _zero_nyquist(coeffs))

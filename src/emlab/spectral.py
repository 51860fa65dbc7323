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
* Wavenumbers are ``k = 2*pi*m/box_length`` with integer ``m`` in the
  symmetric FFT range.  The Nyquist plane is excluded from every derivative
  and multiplier (its odd multipliers cannot stay conjugate-symmetric), so
  spectral calculus silently treats fields as band-limited below Nyquist.
* All L2-type norms use box-measure quadrature: ``||f||^2 = w * sum|f_hat|^2``
  over the full spectrum, with ``w = box_length^3 / points^6``, matching the
  continuum scaling of norms with the box size.
* Homogeneous norms of negative order are defined modulo constants; the zero
  mode is excluded, and applying a negative power to a field with
  non-negligible mean is an error.

On a truncated box the negative-order norms approximate their whole-space
counterparts only for data localized well inside the box; the ``with_info``
variants report the smallest contributing wavenumber so callers can judge
the truncation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator

import numpy as np
import scipy.fft as sfft

from .errors import BlockOutOfRange, NegativePowerOnNonzeroMean

__all__ = [
    "GridSpec",
    "Field",
    "LPFamily",
    "DerivativeTensor",
    "gradient",
    "divergence",
    "curl",
    "laplacian",
    "differentiate",
    "fractional",
    "homog_norm",
    "sobolev_norm",
    "neg_sobolev_norm",
    "lp_block",
    "besov_norm",
    "lp_norm",
    "l2_norm",
    "inner_product",
    "random_band_limited",
    "random_phase_field",
]


def _rfftn(values: np.ndarray) -> np.ndarray:
    return sfft.rfftn(values, axes=(-3, -2, -1), workers=-1)


def _irfftn(coeffs: np.ndarray, n: int) -> np.ndarray:
    return sfft.irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1), workers=-1)


@dataclass(frozen=True)
class GridSpec:
    """Periodic N^3 grid with its wavenumber bookkeeping."""

    points_per_axis: int
    box_length: float

    def __post_init__(self):
        if self.points_per_axis < 4 or self.points_per_axis % 2:
            raise ValueError("points_per_axis must be an even integer >= 4")
        if not self.box_length > 0:
            raise ValueError("box_length must be positive")

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
        """Real-space samples (cached)."""
        if "_phys" not in self.__dict__:
            phys = _irfftn(self.coeffs, self.grid.n)
            phys.setflags(write=False)
            object.__setattr__(self, "_phys", phys)
        return self.__dict__["_phys"]

    def mean(self) -> complex | np.ndarray:
        return self.coeffs[..., 0, 0, 0] / self.grid.n**3

    def is_mean_zero(self, rel_tol: float = 1e-12) -> bool:
        """Zero-mode coefficient small against the root-sum-square of all of them."""
        scale = l2_norm(self) / math.sqrt(self.grid.norm_weight) or 1.0
        return float(np.max(np.abs(np.atleast_1d(self.coeffs[..., 0, 0, 0])))) <= rel_tol * scale

    def component(self, i: int) -> "Field":
        if not self.is_vector:
            raise ValueError("component() requires a vector field")
        return Field(self.grid, self.coeffs[i])

    # -- arithmetic (convenience for tests and monitors) -------------------

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


# -- differential operators ----------------------------------------------------


def gradient(f: Field) -> Field:
    """Spectral gradient of a scalar field."""
    if f.is_vector:
        raise ValueError("gradient expects a scalar field")
    g = f.grid
    out = np.empty((3,) + f.coeffs.shape, dtype=np.complex128)
    for a in range(3):
        out[a] = 1j * g.k_axis(a) * f.coeffs
    return Field(g, out)


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


def laplacian(f: Field) -> Field:
    return Field(f.grid, -f.grid.k_squared * f.coeffs)


def _multi_indices(order: int) -> Iterator[tuple[int, int, int]]:
    for a in range(order, -1, -1):
        for b in range(order - a, -1, -1):
            yield (a, b, order - a - b)


@dataclass(frozen=True)
class DerivativeTensor:
    """All order-l spatial derivatives of a field, with multinomial weights.

    The weighted Frobenius norm reproduces the aggregated identity
    ``||grad^l f||^2 = sum_k |k|^{2l} |f_hat(k)|^2`` exactly.
    """

    order: int
    entries: tuple[tuple[tuple[int, int, int], Field], ...]

    def multiplicity(self, alpha: tuple[int, int, int]) -> int:
        a, b, c = alpha
        return math.factorial(self.order) // (
            math.factorial(a) * math.factorial(b) * math.factorial(c)
        )

    def norm(self) -> float:
        total = 0.0
        for alpha, fld in self.entries:
            total += self.multiplicity(alpha) * l2_norm(fld) ** 2
        return math.sqrt(total)

    def component(self, alpha: tuple[int, int, int]) -> Field:
        for a, fld in self.entries:
            if a == alpha:
                return fld
        raise KeyError(alpha)


def differentiate(f: Field, order: int) -> DerivativeTensor:
    """All spatial derivatives of the given order as a weighted tensor."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    g = f.grid
    entries = []
    for alpha in _multi_indices(order):
        mult = (1j * g.k_axis(0)) ** alpha[0] if alpha[0] else 1.0
        mult = mult * (1j * g.k_axis(1)) ** alpha[1] if alpha[1] else mult
        mult = mult * (1j * g.k_axis(2)) ** alpha[2] if alpha[2] else mult
        entries.append((alpha, Field(g, mult * f.coeffs)))
    return DerivativeTensor(order, tuple(entries))


def resolved_part(f: Field) -> Field:
    """Zero the modes invisible to the derivative calculus.

    These are the k = 0 mode and the axis-pure Nyquist combinations, where
    every odd multiplier vanishes (it cannot stay conjugate-symmetric there);
    constraint functionals are defined away from them.
    """
    c = f.coeffs.copy()
    c[..., f.grid.mode_squared == 0] = 0.0
    return Field(f.grid, c)


def fractional(f: Field, s: float) -> Field:
    """Radial Fourier multiplier |k|^s; the zero mode maps to zero.

    For s < 0 the field must be mean-zero (homogeneous norms of negative
    order are defined modulo constants).
    """
    g = f.grid
    if s < 0 and not f.is_mean_zero():
        raise NegativePowerOnNonzeroMean(
            "negative power |k|^s requires a mean-zero field"
        )
    kmag = g.k_mag
    if s < 0:
        with np.errstate(divide="ignore"):
            mult = np.where(kmag > 0, kmag, 1.0) ** s
        mult = np.where(kmag > 0, mult, 0.0)
    else:
        mult = kmag**s
        if s == 0:
            mult = np.where(kmag > 0, 1.0, 0.0)
    out = mult * f.coeffs
    out[..., 0, 0, 0] = 0.0
    return Field(g, out)


# -- norms ----------------------------------------------------------------------


def _power(f: Field) -> np.ndarray:
    """|f_hat|^2 summed over vector components; shape (n, n, n//2+1)."""
    p = np.abs(f.coeffs) ** 2
    return p.sum(axis=0) if f.is_vector else p


def l2_norm(f: Field) -> float:
    return homog_norm(f, 0)


def inner_product(f: Field, g: Field, order: float = 0) -> float:
    """Real inner product <grad^l f, grad^l g> over the box (order l; 0 is L2)."""
    prod = np.real(f.coeffs * np.conj(g.coeffs))
    if f.is_vector:
        prod = prod.sum(axis=0)
    return float(np.sum(f.grid.weight(order) * prod))


def homog_norm(f: Field, order: float) -> float:
    """Homogeneous norm ||grad^l f||_{L2} via the |k|^{2l} weighted sum."""
    return math.sqrt(float(np.sum(f.grid.weight(order) * _power(f))))


def sobolev_norm(f: Field, k: int) -> float:
    """Inhomogeneous H^k norm, sqrt(sum of squared homogeneous norms)."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    return math.sqrt(sum(homog_norm(f, l) ** 2 for l in range(k + 1)))


def neg_sobolev_norm(f: Field, s: float, with_info: bool = False):
    """Negative-order homogeneous norm ||f|| with multiplier |k|^{-s}, s in [0, 3/2).

    When ``with_info`` is true, also returns a dict with the smallest
    contributing wavenumber (to judge box truncation of the infrared sum).
    """
    if not 0 <= s < 1.5:
        raise ValueError("s must lie in [0, 3/2)")
    if s > 0 and not f.is_mean_zero():
        raise NegativePowerOnNonzeroMean("negative-order norm requires a mean-zero field")
    g = f.grid
    k2 = g.k_squared
    # the zero mode is excluded at every s, including s = 0
    w = g.weight(-s) if s > 0 else np.where(k2 > 0, g.weight(0), 0.0)
    power = _power(f)
    value = math.sqrt(float(np.sum(w * power)))
    if not with_info:
        return value
    active = power > (power.max() * 1e-28 if power.max() > 0 else np.inf)
    active &= k2 > 0
    kmin = float(np.sqrt(k2[active].min())) if active.any() else math.inf
    return value, {"min_contributing_k": kmin, "box_k_min": g.k_min}


def lp_norm(f: Field, p: float) -> float:
    """Physical-space L^p norm by box quadrature; p = inf gives the max."""
    if p < 1:
        raise ValueError("p must be >= 1")
    phys = f.physical()
    mag = np.sqrt((phys**2).sum(axis=0)) if f.is_vector else np.abs(phys)
    if math.isinf(p):
        return float(mag.max())
    return float((np.sum(mag**p) * f.grid.cell_volume) ** (1.0 / p))


# -- Littlewood-Paley family -----------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


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


@dataclass(frozen=True)
class LPFamily:
    """Dyadic ring decomposition covering the resolved band of a grid."""

    grid: GridSpec
    j_min: int = dc_field(init=False)
    j_max: int = dc_field(init=False)

    def __post_init__(self):
        g = self.grid
        kmax = math.sqrt(3.0) * g.k_max
        object.__setattr__(self, "j_min", math.floor(math.log2(g.k_min)))
        object.__setattr__(self, "j_max", math.ceil(math.log2(kmax)))
        object.__setattr__(self, "_rings", {})

    def ring_weights(self, j: int) -> np.ndarray:
        """phi_j(k) = phi(k/2^j) - phi(k/2^(j-1)) evaluated on the grid."""
        if not self.j_min <= j <= self.j_max:
            raise BlockOutOfRange(f"block {j} outside [{self.j_min}, {self.j_max}]")
        rings = self.__dict__["_rings"]
        if j not in rings:
            g = self.grid
            m2 = g.mode_squared
            uniq, inv = np.unique(m2, return_inverse=True)
            r = np.sqrt(uniq.astype(float)) * g.k_min
            vals = cutoff_profile(r * 2.0**-j) - cutoff_profile(r * 2.0 ** (-j + 1))
            ring = vals[inv].reshape(m2.shape)
            ring.setflags(write=False)
            rings[j] = ring
        return rings[j]

    def indices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def partition_residual(self) -> float:
        """max over resolved nonzero modes of |sum_j phi_j - 1|."""
        g = self.grid
        total = np.zeros(g.mode_squared.shape)
        for j in self.indices():
            total += self.ring_weights(j)
        mask = g.mode_squared > 0
        return float(np.max(np.abs(total[mask] - 1.0)))


@functools.lru_cache(maxsize=4)
def lp_family(grid: GridSpec) -> LPFamily:
    return LPFamily(grid)


def lp_block(f: Field, j: int, family: LPFamily | None = None) -> Field:
    """Dyadic frequency block of the field (ring multiplier in Fourier space)."""
    fam = family or lp_family(f.grid)
    return Field(f.grid, fam.ring_weights(j) * f.coeffs)


def besov_norm(f: Field, s: float, family: LPFamily | None = None, with_info: bool = False):
    """sup_j 2^{-s j} || block_j f ||_{L2} over the resolved dyadic range, s in (0, 3/2]."""
    if not 0 < s <= 1.5:
        raise ValueError("s must lie in (0, 3/2]")
    if not f.is_mean_zero():
        raise NegativePowerOnNonzeroMean("Besov norm of negative order requires a mean-zero field")
    fam = family or lp_family(f.grid)
    power = f.grid.weight(0) * _power(f)
    best, best_j = 0.0, fam.j_min
    for j in fam.indices():
        val = 2.0 ** (-s * j) * math.sqrt(float(np.sum(fam.ring_weights(j) * power)))
        if val > best:
            best, best_j = val, j
    if not with_info:
        return best
    return best, {"arg_j": best_j, "block_k_low": 2.0 ** (best_j - 1), "box_k_min": f.grid.k_min}


# -- random field factories -------------------------------------------------------


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    slope: float = 0.0,
    band_fraction: float = 1.0 / 3.0,
    vector: bool = False,
    mean_zero: bool = True,
) -> Field:
    """Gaussian random field with power-law spectral envelope |k|^slope.

    Content is confined to |m_i| <= band_fraction * n per axis, which keeps
    pointwise products of two such fields alias-free on the same grid.
    """
    n = grid.n
    shape = (3, n, n, n) if vector else (n, n, n)
    white = rng.standard_normal(shape)
    coeffs = _rfftn(white)
    cut = math.floor(n * band_fraction)
    keep = [np.abs(grid.mode_axis(a)) <= cut for a in range(3)]
    mask = keep[0] & keep[1] & keep[2]
    kmag = grid.k_mag
    envelope = np.where(kmag > 0, np.where(kmag > 0, kmag, 1.0) ** slope, 0.0)
    coeffs = coeffs * mask * envelope
    if mean_zero:
        coeffs[..., 0, 0, 0] = 0.0
    return Field(grid, coeffs)


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
    # exclude the Nyquist planes: calculus treats them as unresolved
    ny = n // 2
    coeffs[..., ny, :, :] = 0.0
    coeffs[..., :, ny, :] = 0.0
    coeffs[..., :, :, ny] = 0.0
    return Field(grid, coeffs)

"""Per-field reference forms of the spectral calculus.

The package computes every weighted norm through one batched reduction,
``spectral._sums``, over stacks of fields.  The forms below take one field
at a time; the tests check the batched code, the grid and the dyadic rings
against them.
"""

import math
from dataclasses import dataclass

import numpy as np

from emlab.spectral import (
    Field,
    GridSpec,
    _band_limited_block,
    _cross_power,
    _derivative_multiplier,
    _field_power,
    _lp_of_magnitude,
    _lp_rings,
    _multi_indices,
    _negative_weights,
    _sums,
    _weights,
    l2_norm,
)


class NegativePowerOnNonzeroMean(Exception):
    """Negative fractional power applied to a field with non-negligible mean."""


def is_mean_zero(f: Field) -> bool:
    """Zero-mode coefficient at most 1e-12 times the root-sum-square of all of them."""
    scale = l2_norm(f) / math.sqrt(f.grid.norm_weight) or 1.0
    return float(np.max(np.abs(np.atleast_1d(f.coeffs[..., 0, 0, 0])))) <= 1e-12 * scale


def component(f: Field, i: int) -> Field:
    if not f.is_vector:
        raise ValueError("component() requires a vector field")
    return Field(f.grid, f.coeffs[i])


def gradient(f: Field) -> Field:
    """Spectral gradient of a scalar field."""
    if f.is_vector:
        raise ValueError("gradient expects a scalar field")
    g = f.grid
    out = np.empty((3,) + f.coeffs.shape, dtype=np.complex128)
    for a in range(3):
        out[a] = 1j * g.k_axis(a) * f.coeffs
    return Field(g, out)


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
        return math.factorial(self.order) // (math.factorial(a) * math.factorial(b) * math.factorial(c))

    def norm(self) -> float:
        return math.sqrt(sum(self.multiplicity(alpha) * l2_norm(fld) ** 2 for alpha, fld in self.entries))


def differentiate(f: Field, order: int) -> DerivativeTensor:
    """All spatial derivatives of the given order as a weighted tensor."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    entries = [(alpha, Field(f.grid, _derivative_multiplier(f.grid, alpha) * f.coeffs))
               for alpha in _multi_indices(order)]
    return DerivativeTensor(order, tuple(entries))


def fractional(f: Field, s: float) -> Field:
    """Radial Fourier multiplier |k|^s; the zero mode maps to zero.

    For s < 0 the field must be mean-zero (homogeneous norms of negative
    order are defined modulo constants).
    """
    if s < 0 and not is_mean_zero(f):
        raise NegativePowerOnNonzeroMean("negative power |k|^s requires a mean-zero field")
    kmag = f.grid.k_mag
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
    return Field(f.grid, out)


def inner_product(f: Field, g: Field, order: float = 0) -> float:
    """Real inner product <grad^l f, grad^l g> over the box (order l; 0 is L2)."""
    return float(_sums(_cross_power(f, g), _weights(f.grid, [order]))[0])


def neg_sobolev_norm(f: Field, s: float) -> float:
    """Negative-order homogeneous norm ||f|| with multiplier |k|^{-s}, s in [0, 3/2)."""
    if not 0 <= s < 1.5:
        raise ValueError("s must lie in [0, 3/2)")
    if s > 0 and not is_mean_zero(f):
        raise NegativePowerOnNonzeroMean("negative-order norm requires a mean-zero field")
    return math.sqrt(float(_sums(_field_power(f), _negative_weights(f.grid, s, "sobolev"))[0]))


def besov_norm(f: Field, s: float) -> float:
    """sup_j 2^{-s j} || block_j f ||_{L2} over the resolved dyadic range, s in (0, 3/2]."""
    if not 0 < s <= 1.5:
        raise ValueError("s must lie in (0, 3/2]")
    if not is_mean_zero(f):
        raise NegativePowerOnNonzeroMean("Besov norm of negative order requires a mean-zero field")
    return math.sqrt(float(_sums(_field_power(f), _negative_weights(f.grid, s, "besov")).max()))


def lp_norm(f: Field, p: float) -> float:
    """Physical-space L^p norm by box quadrature; p = inf gives the max."""
    if p < 1:
        raise ValueError("p must be >= 1")
    phys = f.physical()
    mag = np.sqrt((phys**2).sum(axis=0)) if f.is_vector else np.abs(phys)
    return float(_lp_of_magnitude(f.grid, mag, p))


def partition_residual(grid: GridSpec) -> float:
    """max over resolved nonzero modes of |sum_j phi_j - 1|."""
    total = np.zeros(grid.mode_squared.shape)
    for ring in _lp_rings(grid)[1]:
        total += ring
    mask = grid.mode_squared > 0
    return float(np.max(np.abs(total[mask] - 1.0)))


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    slope: float = 0.0,
    band_fraction: float = 1.0 / 3.0,
    vector: bool = False,
) -> Field:
    """Mean-zero Gaussian random field with power-law spectral envelope |k|^slope.

    Content is confined to |m_i| <= band_fraction * n per axis, which keeps
    pointwise products of two such fields alias-free on the same grid.  The
    one-row case of _band_limited_block.
    """
    n = grid.n
    white = rng.standard_normal((1, 3, n, n, n) if vector else (1, n, n, n))
    return Field(grid, _band_limited_block(grid, white, [slope], band_fraction)[0])

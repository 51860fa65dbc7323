"""Energy and dissipation functionals monitored along runs.

All functionals are weighted Fourier-side sums over the state's coefficient
arrays.  The full-order energy sums squared derivative norms of all four
fields up to order N; the matching dissipation rate loses one derivative of
the electric field and both end derivatives of the magnetic field, which is
the structural signature of the electromagnetic regularity loss.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DerivativeOrderExceedsResolution, EquivalenceViolated
from .model import PerturbationState, PhysicalConstants, verify_compatibility
from .spectral import GridSpec, _cross_power, _power, curl, divergence

__all__ = [
    "energy",
    "dissipation",
    "window_energy",
    "interactive",
    "InteractiveTerms",
    "cross_energy_ue",
    "acoustic_energy",
    "grad_norm",
    "FunctionalReport",
    "evaluate_report",
    "standard_monitor",
]


# per-mode spectra of one sample, by name
_Spectra = dict[str, np.ndarray]


def _field_powers(state: PerturbationState) -> _Spectra:
    """|f_hat|^2 of each field; one sample's functionals all read these."""
    return {name: _power(f) for name, f in state.fields().items()}


def _cross_spectra(state: PerturbationState) -> _Spectra:
    """The cross spectra of the interactive and equivalent energies, and
    |div u_hat|^2; one sample's cross terms all read these."""
    div_u = divergence(state.u)
    return {
        "uE": _cross_power(state.u, state.E),
        "E_curlB": _cross_power(state.E, curl(state.B)),
        "divu_n": _cross_power(div_u, state.n),
        "divu": _cross_power(div_u, div_u),
    }


def _weighted_sum(power: np.ndarray, grid: GridSpec, order: int) -> float:
    """||grad^order f||^2 from the power |f_hat|^2, or <grad^order f,
    grad^order g> from the cross spectrum Re(f_hat . conj g_hat)."""
    return float(np.sum(grid.weight(order) * power))


def _check_resolution(powers: _Spectra, grid: GridSpec, order: int):
    """Warn when the top-order weights concentrate at the top of the band."""
    top = grid.k_squared > (2.0 / 3.0 * grid.k_max) ** 2
    wk = grid.weight(order)
    total = sum(_weighted_sum(p, grid, order) for p in powers.values())
    high = sum(float(np.sum(wk[top] * p[top])) for p in powers.values())
    if total > 0 and high > 0.5 * total:
        warnings.warn(
            f"order-{order} derivative weights are dominated by the top of the "
            "resolved band; the value is aliasing-limited",
            DerivativeOrderExceedsResolution,
            stacklevel=4,
        )


def _energy(powers: _Spectra, grid: GridSpec, order: int) -> float:
    if order < 0:
        raise ValueError("order must be nonnegative")
    _check_resolution(powers, grid, order)
    return sum(_weighted_sum(p, grid, l) for p in powers.values() for l in range(order + 1))


def _dissipation(p: _Spectra, grid: GridSpec, order: int) -> float:
    if order < 1:
        raise ValueError("order must be >= 1")
    total = sum(_weighted_sum(p[f], grid, l) for f in ("n", "u") for l in range(order + 1))
    total += sum(_weighted_sum(p["E"], grid, l) for l in range(order))
    total += sum(_weighted_sum(p["B"], grid, l) for l in range(1, order))
    return total


def _window_energy(p: _Spectra, grid: GridSpec, k: int) -> tuple[float, float]:
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_resolution(p, grid, k + 2)
    e = sum(_weighted_sum(p[f], grid, l) for f in p for l in range(k, k + 3))
    d = sum(_weighted_sum(p[f], grid, l) for f in ("n", "u") for l in range(k, k + 3))
    d += sum(_weighted_sum(p["E"], grid, l) for l in range(k, k + 2))
    d += _weighted_sum(p["B"], grid, k + 1)
    return e, d


def energy(state: PerturbationState, order: int) -> float:
    """Sum over derivative orders 0..N of the squared norms of all four fields."""
    return _energy(_field_powers(state), state.grid, order)


def dissipation(state: PerturbationState, order: int) -> float:
    """Dissipation rate matching ``energy``: E enters only to order N-1 and
    B only from 1 to N-1 (the regularity-loss index ranges)."""
    return _dissipation(_field_powers(state), state.grid, order)


def window_energy(state: PerturbationState, k: int) -> tuple[float, float]:
    """Three-order window (k..k+2) of energy and dissipation.

    The window dissipation keeps (n, u) over the whole window, E over
    k..k+1, and only the single order k+1 of B.
    """
    return _window_energy(_field_powers(state), state.grid, k)


@dataclass(frozen=True)
class InteractiveTerms:
    """Signed cross terms that recover dissipation of n, E and B."""

    n_coupling: float  # sum_l <grad^l u, grad grad^l n>, l = k..k+1
    e_coupling: float  # sum_l <grad^l u, grad^l E>, l = k..k+1
    b_coupling: float  # -<grad^k E, curl grad^k B>


def _interactive(cross: _Spectra, grid: GridSpec, k: int) -> InteractiveTerms:
    # <u, grad n> = -<div u, n> mode by mode
    i_n = -sum(_weighted_sum(cross["divu_n"], grid, l) for l in (k, k + 1))
    i_e = sum(_weighted_sum(cross["uE"], grid, l) for l in (k, k + 1))
    i_b = -_weighted_sum(cross["E_curlB"], grid, k)
    return InteractiveTerms(i_n, i_e, i_b)


def interactive(state: PerturbationState, k: int) -> InteractiveTerms:
    return _interactive(_cross_spectra(state), state.grid, k)


# a label names its fields one letter each, plus div u
_NORM_LABELS = ("n", "u", "E", "B", "divu", "uE", "nuE", "nuEB", "ndivu")


def _grad_norm(p: _Spectra, cross: _Spectra, grid: GridSpec, k: int, which: str) -> float:
    if which not in _NORM_LABELS:
        raise ValueError(f"unknown norm label {which!r}")
    total = sum(_weighted_sum(p[f], grid, k) for f in which.removesuffix("divu"))
    if which.endswith("divu"):
        total += _weighted_sum(cross["divu"], grid, k)
    return math.sqrt(total)


def grad_norm(state: PerturbationState, k: int, which: str) -> float:
    """|| grad^k X ||_{L2} for X one of n, u, E, B, divu, or grouped labels.

    Grouped labels sum squares: "nuE", "nuEB" (full state), "uE", "ndivu".
    """
    return _grad_norm(_field_powers(state), _cross_spectra(state), state.grid, k, which)


def _certified(value: float, base: float, slack: float, what: str) -> float:
    """value, checked to lie in the equivalence band (1 -+ slack) * base."""
    tol = 1e-12 * max(1.0, base)
    if not ((1.0 - slack) * base - tol <= value <= (1.0 + slack) * base + tol):
        raise EquivalenceViolated(f"{what} left its certified equivalence band")
    return value


def _cross_energy_ue(p: _Spectra, cross: _Spectra, grid: GridSpec, k: int, eps: float) -> float:
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    base = _weighted_sum(p["u"], grid, k) + _weighted_sum(p["E"], grid, k)
    return _certified(base + eps * _weighted_sum(cross["uE"], grid, k), base, eps / 2.0, "cross energy")


def cross_energy_ue(state: PerturbationState, k: int, eps: float) -> float:
    """||grad^k (u, E)||^2 + eps <grad^k u, grad^k E>, with its equivalence certificate.

    Cauchy-Schwarz forces the value between (1 -+ eps/2) times the plain norm
    square; a violation can only come from an implementation bug.
    """
    return _cross_energy_ue(_field_powers(state), _cross_spectra(state), state.grid, k, eps)


def _acoustic_energy(p: _Spectra, cross: _Spectra, grid: GridSpec, k: int, eps: float, nu: float) -> float:
    if not 0 < eps < 2.0 * nu * min(nu, 1.0):
        raise ValueError("eps must lie in (0, 2*nu*min(nu,1))")
    base = nu**2 * _weighted_sum(p["n"], grid, k) + _weighted_sum(cross["divu"], grid, k)
    value = base - eps * _weighted_sum(cross["divu_n"], grid, k)
    # |<psi, n>| <= (nu^2||n||^2 + ||psi||^2) / (2 nu) with psi = div u
    return _certified(value, base, eps / (2.0 * nu), "acoustic energy")


def acoustic_energy(state: PerturbationState, k: int, eps: float, constants: PhysicalConstants) -> float:
    """nu^2 ||grad^k n||^2 + ||grad^k div u||^2 - eps <grad^k div u, grad^k n>.

    Equivalent to the plain sum for eps below 2*nu*min(nu, 1); certified per
    evaluation.
    """
    return _acoustic_energy(_field_powers(state), _cross_spectra(state), state.grid, k, eps, constants.nu)


@dataclass
class FunctionalReport:
    """One monitored sample: all requested functionals at one time."""

    time: float
    energies: dict[int, float] = dc_field(default_factory=dict)
    dissipations: dict[int, float] = dc_field(default_factory=dict)
    windows: dict[int, tuple[float, float]] = dc_field(default_factory=dict)
    interactions: dict[int, InteractiveTerms] = dc_field(default_factory=dict)
    cross_ue: dict[int, float] = dc_field(default_factory=dict)
    acoustic: dict[int, float] = dc_field(default_factory=dict)
    grad_norms: dict[tuple[int, str], float] = dc_field(default_factory=dict)
    gauss_residual: float = 0.0
    divb_residual: float = 0.0

    def as_row(self) -> dict[str, float]:
        row: dict[str, float] = {"time": self.time}
        for n, v in sorted(self.energies.items()):
            row[f"E_{n}"] = v
        for n, v in sorted(self.dissipations.items()):
            row[f"D_{n}"] = v
        for k, (e, d) in sorted(self.windows.items()):
            row[f"window_E_{k}"] = e
            row[f"window_D_{k}"] = d
        for k, it in sorted(self.interactions.items()):
            row[f"I_n_{k}"] = it.n_coupling
            row[f"I_E_{k}"] = it.e_coupling
            row[f"I_B_{k}"] = it.b_coupling
        for k, v in sorted(self.cross_ue.items()):
            row[f"cross_uE_{k}"] = v
        for k, v in sorted(self.acoustic.items()):
            row[f"acoustic_{k}"] = v
        for (k, which), v in sorted(self.grad_norms.items()):
            row[f"grad{k}_{which}"] = v
        row["gauss_residual"] = self.gauss_residual
        row["divB_residual"] = self.divb_residual
        return row


def evaluate_report(
    state: PerturbationState,
    constants: PhysicalConstants,
    energy_orders: tuple[int, ...] = (3,),
    window_orders: tuple[int, ...] = (0,),
    eps: float = 0.1,
    grad_norms: tuple[tuple[int, str], ...] = (),
) -> FunctionalReport:
    rep = FunctionalReport(time=state.time)
    g = state.grid
    powers = _field_powers(state)
    cross = _cross_spectra(state)
    for n in energy_orders:
        rep.energies[n] = _energy(powers, g, n)
        if n >= 1:
            rep.dissipations[n] = _dissipation(powers, g, n)
    for k in window_orders:
        rep.windows[k] = _window_energy(powers, g, k)
        rep.interactions[k] = _interactive(cross, g, k)
        rep.cross_ue[k] = _cross_energy_ue(powers, cross, g, k, eps)
        rep.acoustic[k] = _acoustic_energy(powers, cross, g, k, eps, constants.nu)
    for k, which in grad_norms:
        rep.grad_norms[(k, which)] = _grad_norm(powers, cross, g, k, which)
    compat = verify_compatibility(state, constants)
    rep.gauss_residual = compat.gauss_residual
    rep.divb_residual = compat.divb_residual
    return rep


def standard_monitor(
    constants: PhysicalConstants,
    energy_orders: tuple[int, ...] = (3,),
    window_orders: tuple[int, ...] = (0,),
    eps: float = 0.1,
    grad_norms: tuple[tuple[int, str], ...] = (),
) -> Callable[[PerturbationState], dict[str, float]]:
    """Monitor callable for the simulator; returns flat CSV-ready rows."""

    def monitor(state: PerturbationState) -> dict[str, float]:
        rep = evaluate_report(
            state,
            constants,
            energy_orders=energy_orders,
            window_orders=window_orders,
            eps=eps,
            grad_norms=grad_norms,
        )
        row = rep.as_row()
        row.pop("time", None)
        return row

    return monitor

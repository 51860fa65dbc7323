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
from .spectral import GridSpec, curl, divergence, gradient, homog_norm, inner_product

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


def _powers(state: PerturbationState) -> dict[str, np.ndarray]:
    """|f_hat|^2 per field, vector components summed."""
    out = {}
    for name, f in state.fields().items():
        p = np.abs(f.coeffs) ** 2
        out[name] = p.sum(axis=0) if f.is_vector else p
    return out


def _weighted_sum(power: np.ndarray, grid: GridSpec, order: int) -> float:
    """||grad^order f||^2 from the power |f_hat|^2."""
    return float(np.sum(grid.weight(order) * power))


def _check_resolution(state: PerturbationState, order: int):
    """Warn when the top-order weights concentrate at the top of the band."""
    g = state.grid
    top = g.k_squared > (2.0 / 3.0 * g.k_max) ** 2
    wk = g.weight(order)
    total = 0.0
    high = 0.0
    for p in _powers(state).values():
        total += float(np.sum(wk * p))
        high += float(np.sum(wk[top] * p[top]))
    if total > 0 and high > 0.5 * total:
        warnings.warn(
            f"order-{order} derivative weights are dominated by the top of the "
            "resolved band; the value is aliasing-limited",
            DerivativeOrderExceedsResolution,
            stacklevel=3,
        )


def energy(state: PerturbationState, order: int) -> float:
    """Sum over derivative orders 0..N of the squared norms of all four fields."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    _check_resolution(state, order)
    g = state.grid
    powers = _powers(state)
    return sum(_weighted_sum(p, g, l) for p in powers.values() for l in range(order + 1))


def dissipation(state: PerturbationState, order: int) -> float:
    """Dissipation rate matching ``energy``: E enters only to order N-1 and
    B only from 1 to N-1 (the regularity-loss index ranges)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    g = state.grid
    p = _powers(state)
    total = sum(_weighted_sum(p[f], g, l) for f in ("n", "u") for l in range(order + 1))
    total += sum(_weighted_sum(p["E"], g, l) for l in range(order))
    total += sum(_weighted_sum(p["B"], g, l) for l in range(1, order))
    return total


def window_energy(state: PerturbationState, k: int) -> tuple[float, float]:
    """Three-order window (k..k+2) of energy and dissipation.

    The window dissipation keeps (n, u) over the whole window, E over
    k..k+1, and only the single order k+1 of B.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_resolution(state, k + 2)
    g = state.grid
    p = _powers(state)
    e = sum(_weighted_sum(p[f], g, l) for f in p for l in range(k, k + 3))
    d = sum(_weighted_sum(p[f], g, l) for f in ("n", "u") for l in range(k, k + 3))
    d += sum(_weighted_sum(p["E"], g, l) for l in range(k, k + 2))
    d += _weighted_sum(p["B"], g, k + 1)
    return e, d


@dataclass(frozen=True)
class InteractiveTerms:
    """Signed cross terms that recover dissipation of n, E and B."""

    n_coupling: float  # sum_l <grad^l u, grad grad^l n>, l = k..k+1
    e_coupling: float  # sum_l <grad^l u, grad^l E>, l = k..k+1
    b_coupling: float  # -<grad^k E, curl grad^k B>


def interactive(state: PerturbationState, k: int) -> InteractiveTerms:
    grad_n = gradient(state.n)
    i_n = sum(inner_product(state.u, grad_n, l) for l in (k, k + 1))
    i_e = sum(inner_product(state.u, state.E, l) for l in (k, k + 1))
    i_b = -inner_product(state.E, curl(state.B), k)
    return InteractiveTerms(i_n, i_e, i_b)


def grad_norm(state: PerturbationState, k: int, which: str) -> float:
    """|| grad^k X ||_{L2} for X one of n, u, E, B, divu, or grouped labels.

    Grouped labels sum squares: "nuE", "nuEB" (full state), "uE", "ndivu".
    """
    groups = {
        "n": ["n"],
        "u": ["u"],
        "E": ["E"],
        "B": ["B"],
        "divu": [],
        "uE": ["u", "E"],
        "nuE": ["n", "u", "E"],
        "nuEB": ["n", "u", "E", "B"],
        "ndivu": ["n"],
    }
    if which not in groups:
        raise ValueError(f"unknown norm label {which!r}")
    g = state.grid
    p = _powers(state)
    total = sum(_weighted_sum(p[f], g, k) for f in groups[which])
    if which in ("divu", "ndivu"):
        total += _weighted_sum(np.abs(divergence(state.u).coeffs) ** 2, g, k)
    return math.sqrt(total)


def cross_energy_ue(state: PerturbationState, k: int, eps: float) -> float:
    """||grad^k (u, E)||^2 + eps <grad^k u, grad^k E>, with its equivalence certificate.

    Cauchy-Schwarz forces the value between (1 -+ eps/2) times the plain norm
    square; a violation can only come from an implementation bug.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    uu = homog_norm(state.u, k) ** 2
    ee = homog_norm(state.E, k) ** 2
    ue = inner_product(state.u, state.E, k)
    value = uu + ee + eps * ue
    base = uu + ee
    lo, hi = (1.0 - eps / 2.0) * base, (1.0 + eps / 2.0) * base
    if not (lo - 1e-12 * max(1.0, base) <= value <= hi + 1e-12 * max(1.0, base)):
        raise EquivalenceViolated("cross energy left its certified equivalence band")
    return value


def acoustic_energy(state: PerturbationState, k: int, eps: float, constants: PhysicalConstants) -> float:
    """nu^2 ||grad^k n||^2 + ||grad^k div u||^2 - eps <grad^k div u, grad^k n>.

    Equivalent to the plain sum for eps below 2*nu*min(nu, 1); certified per
    evaluation.
    """
    nu = constants.nu
    if not 0 < eps < 2.0 * nu * min(nu, 1.0):
        raise ValueError("eps must lie in (0, 2*nu*min(nu,1))")
    psi = divergence(state.u)
    nn = homog_norm(state.n, k) ** 2
    pp = homog_norm(psi, k) ** 2
    pn = inner_product(psi, state.n, k)
    value = nu**2 * nn + pp - eps * pn
    base = nu**2 * nn + pp
    slack = eps / (2.0 * nu)  # |<psi, n>| <= (nu^2||n||^2 + ||psi||^2) / (2 nu)
    lo, hi = (1.0 - slack) * base, (1.0 + slack) * base
    if not (lo - 1e-12 * max(1.0, base) <= value <= hi + 1e-12 * max(1.0, base)):
        raise EquivalenceViolated("acoustic energy left its certified equivalence band")
    return value


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
    for n in energy_orders:
        rep.energies[n] = energy(state, n)
        if n >= 1:
            rep.dissipations[n] = dissipation(state, n)
    for k in window_orders:
        rep.windows[k] = window_energy(state, k)
        rep.interactions[k] = interactive(state, k)
        rep.cross_ue[k] = cross_energy_ue(state, k, eps)
        rep.acoustic[k] = acoustic_energy(state, k, eps, constants)
    for k, which in grad_norms:
        rep.grad_norms[(k, which)] = grad_norm(state, k, which)
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

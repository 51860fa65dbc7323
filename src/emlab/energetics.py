"""Energy and dissipation functionals monitored along runs.

All functionals are weighted Fourier-side sums over the state's coefficient
arrays.  The full-order energy sums squared derivative norms of all four
fields up to order N; the matching dissipation rate loses one derivative of
the electric field and both end derivatives of the magnetic field, which is
the structural signature of the electromagnetic regularity loss.

One sample builds one table and one row: the power spectra of the four
fields, the cross spectra of the interactive and equivalent energies,
|div u_hat|^2 and the top-of-band power go into one stack, reduced once per
derivative order by spectral's weighted sum.  Every functional is a private
lookup in that table, and the monitor that ``standard_monitor`` returns
writes each one straight into the sample's CSV row.  The constraint
residuals are not functionals of the table; the simulator logs them.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Iterable

import numpy as np

from .errors import DerivativeOrderExceedsResolution, EquivalenceViolated, check, is_count, is_real
from .model import PerturbationState, PhysicalConstants
from .spectral import _cross_power, _field_power, _sums, _weights, curl, divergence

__all__ = ["standard_monitor"]


_FIELDS = ("n", "u", "E", "B")
# rows of a sample's table: the field powers |f_hat|^2, the cross spectra
# Re(f_hat . conj g_hat) of the interactive and equivalent energies,
# |div u_hat|^2, and the field powers summed over the top of the band
_ROWS = (*_FIELDS, "uE", "E_curlB", "divu_n", "divu", "top")


def _table(state: PerturbationState, orders: Iterable[int]) -> dict[tuple[str, int], float]:
    """Weighted sums of one sample's spectra: ``table[row, l]`` is the sum
    of weight(l) times the spectrum of that row, for each order l.

    Each order is its own one-column reduction, so a value does not depend
    on which other orders are asked for.
    """
    g = state.grid
    div_u = divergence(state.u)
    stack = np.empty((len(_ROWS),) + g.k_squared.shape)
    fields = state.fields()
    for i, name in enumerate(_FIELDS):
        stack[i] = _field_power(fields[name])
    pairs = ((state.u, state.E), (state.E, curl(state.B)), (div_u, state.n), (div_u, div_u))
    for i, (f, h) in enumerate(pairs, start=len(_FIELDS)):
        stack[i] = _cross_power(f, h)
    top = stack[-1]
    np.sum(stack[: len(_FIELDS)], axis=0, out=top)
    top *= g.k_squared > (2.0 / 3.0 * g.k_max) ** 2
    table = {}
    for l in orders:
        sums = _sums(stack, _weights(g, [l]))[:, 0].tolist()
        table.update({(row, l): value for row, value in zip(_ROWS, sums)})
    return table


def _check_resolution(t: dict, order: int):
    """Warn when the top-order weights concentrate at the top of the band."""
    total = sum(t[f, order] for f in _FIELDS)
    if total > 0 and t["top", order] > 0.5 * total:
        warnings.warn(
            f"order-{order} derivative weights are dominated by the top of the "
            "resolved band; the value is aliasing-limited",
            DerivativeOrderExceedsResolution,
            stacklevel=3,
        )


def _energy(t: dict, order: int) -> float:
    """Sum over derivative orders 0..N of the squared norms of all four fields."""
    _check_resolution(t, order)
    return sum(t[f, l] for f in _FIELDS for l in range(order + 1))


def _dissipation(t: dict, order: int) -> float:
    """Dissipation rate matching ``_energy``: E enters only to order N-1 and
    B only from 1 to N-1 (the regularity-loss index ranges)."""
    total = sum(t[f, l] for f in ("n", "u") for l in range(order + 1))
    total += sum(t["E", l] for l in range(order))
    total += sum(t["B", l] for l in range(1, order))
    return total


def _window_energy(t: dict, k: int) -> tuple[float, float]:
    """Three-order window (k..k+2) of energy and dissipation.

    The window dissipation keeps (n, u) over the whole window, E over
    k..k+1, and only the single order k+1 of B.
    """
    _check_resolution(t, k + 2)
    e = sum(t[f, l] for f in _FIELDS for l in range(k, k + 3))
    d = sum(t[f, l] for f in ("n", "u") for l in range(k, k + 3))
    d += sum(t["E", l] for l in range(k, k + 2))
    d += t["B", k + 1]
    return e, d


def _interactive(t: dict, k: int) -> tuple[float, float, float]:
    """Signed cross terms that recover dissipation of n, E and B:
    sum_l <grad^l u, grad grad^l n> and sum_l <grad^l u, grad^l E> over
    l = k..k+1, and -<grad^k E, curl grad^k B>."""
    # <u, grad n> = -<div u, n> mode by mode
    i_n = -sum(t["divu_n", l] for l in (k, k + 1))
    i_e = sum(t["uE", l] for l in (k, k + 1))
    return i_n, i_e, -t["E_curlB", k]


# a label names its fields one letter each, plus div u
_NORM_LABELS = ("n", "u", "E", "B", "divu", "uE", "nuE", "nuEB", "ndivu")


def _grad_norm(t: dict, k: int, which: str) -> float:
    """|| grad^k X ||_{L2} for X one of n, u, E, B, divu, or grouped labels.

    Grouped labels sum squares: "nuE", "nuEB" (full state), "uE", "ndivu".
    """
    total = sum(t[f, k] for f in which.removesuffix("divu"))
    if which.endswith("divu"):
        total += t["divu", k]
    return math.sqrt(total)


def _certified(value: float, base: float, slack: float, what: str) -> float:
    """value, checked to lie in the equivalence band (1 -+ slack) * base."""
    tol = 1e-12 * max(1.0, base)
    if not ((1.0 - slack) * base - tol <= value <= (1.0 + slack) * base + tol):
        raise EquivalenceViolated(f"{what} left its certified equivalence band")
    return value


def _cross_energy_ue(t: dict, k: int, eps: float) -> float:
    """||grad^k (u, E)||^2 + eps <grad^k u, grad^k E>, with its equivalence certificate.

    Cauchy-Schwarz forces the value between (1 -+ eps/2) times the plain norm
    square; a violation can only come from an implementation bug.
    """
    base = t["u", k] + t["E", k]
    return _certified(base + eps * t["uE", k], base, eps / 2.0, "cross energy")


def _acoustic_eps_limit(nu: float) -> float:
    return 2.0 * nu * min(nu, 1.0)


def _acoustic_energy(t: dict, k: int, eps: float, nu: float) -> float:
    """nu^2 ||grad^k n||^2 + ||grad^k div u||^2 - eps <grad^k div u, grad^k n>.

    Equivalent to the plain sum for eps below 2*nu*min(nu, 1); certified per
    evaluation.
    """
    base = nu**2 * t["n", k] + t["divu", k]
    value = base - eps * t["divu_n", k]
    # |<psi, n>| <= (nu^2||n||^2 + ||psi||^2) / (2 nu) with psi = div u
    return _certified(value, base, eps / (2.0 * nu), "acoustic energy")


def standard_monitor(
    constants: PhysicalConstants,
    energy_orders: tuple[int, ...] = (3,),
    window_orders: tuple[int, ...] = (0,),
    eps: float = 0.1,
    grad_norms: tuple[tuple[int, str], ...] = (),
) -> Callable[[PerturbationState], dict[str, float]]:
    """Monitor callable for the simulator: one table and one flat CSV row
    per sample.  The arguments are checked (InvalidArgument) before the
    first sample."""
    for name, ks in (("energy_orders", energy_orders), ("window_orders", window_orders)):
        check(ks, lambda v: all(is_count(k) for k in v), name, "a list of nonnegative integers")
    check(grad_norms, lambda gs: all(is_count(k) and w in _NORM_LABELS for k, w in gs),
          "grad_norms", f"a list of [order, label] pairs, labels from {list(_NORM_LABELS)}")
    if window_orders:
        limit = min(1.0, _acoustic_eps_limit(constants.nu))
        check(eps, lambda e: is_real(e) and 0 < e < limit, "eps", f"in (0, {limit:.6g})")

    orders = {l for n in energy_orders for l in range(n + 1)}
    orders |= {l for k in window_orders for l in range(k, k + 3)}
    orders |= {k for k, _ in grad_norms}

    def monitor(state: PerturbationState) -> dict[str, float]:
        t = _table(state, orders)
        row: dict[str, float] = {}
        for n in energy_orders:
            row[f"E_{n}"] = _energy(t, n)
            if n >= 1:
                row[f"D_{n}"] = _dissipation(t, n)
        for k in window_orders:
            row[f"window_E_{k}"], row[f"window_D_{k}"] = _window_energy(t, k)
            row[f"I_n_{k}"], row[f"I_E_{k}"], row[f"I_B_{k}"] = _interactive(t, k)
            row[f"cross_uE_{k}"] = _cross_energy_ue(t, k, eps)
            row[f"acoustic_{k}"] = _acoustic_energy(t, k, eps, constants.nu)
        for k, which in grad_norms:
            row[f"grad{k}_{which}"] = _grad_norm(t, k, which)
        return row

    return monitor

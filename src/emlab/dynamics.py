"""Nonlinear right-hand side, RK4 time stepping, and run orchestration.

The evolved system, in perturbation variables:

    dn/dt = -div u - u.grad n - mu n div u
    du/dt = -nu u - u x B_inf - grad n - nu E - u.grad u - mu n grad n - u x B
    dE/dt = nu curl B + nu u + nu closure(n) u
    dB/dt = -nu curl E

Linear terms are Fourier multipliers; products are formed pointwise in
physical space with two-thirds dealiasing applied to both inputs and outputs.
The advection term uses the rotation form u.grad u = grad(|u|^2/2) + (curl u) x u
to save transforms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CflViolation, SimulationDiverged
from .model import (
    PerturbationState,
    PhysicalConstants,
    _transverse_project,
    closure_field,
    density_closure,
    solve_gauss_longitudinal,
    verify_compatibility,
)
from .spectral import Field, GridSpec, curl, divergence, gradient, l2_norm

__all__ = [
    "SolverConfig",
    "rhs",
    "step",
    "cfl_dt",
    "simulate",
    "RunLog",
    "SimulationResult",
]


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping controls.

    gauss_projection_stride: if set, every that many steps the longitudinal
    electric part is replaced by the constraint-consistent solve (the residual
    is logged before projection, so projection never masks integrator error).
    """

    dt: float | str = "auto"
    end_time: float = 1.0
    dealias: bool = True
    gauss_projection_stride: int | None = 50
    output_stride: int = 10
    gauss_tol: float = 1e-6
    cfl_safety: float = 0.5
    max_steps: int | None = None

    def __post_init__(self):
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ValueError("dt must be positive or 'auto'")
        elif not self.dt > 0:
            raise ValueError("dt must be positive or 'auto'")
        if self.end_time < 0:
            raise ValueError("end_time must be nonnegative")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        if self.gauss_projection_stride is not None and self.gauss_projection_stride < 1:
            raise ValueError("gauss_projection_stride must be >= 1 or None")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def _blend(base: PerturbationState, ks, weights, dt: float, time: float) -> PerturbationState:
    """base + dt * sum(w_i * k_i) per field."""
    fields = {}
    for name, f in base.fields().items():
        acc = f.coeffs.copy()
        for w, k in zip(weights, ks):
            acc += (dt * w) * k.fields()[name].coeffs
        fields[name] = Field(base.grid, acc)
    return PerturbationState(time=time, **fields)


def _is_finite(state: PerturbationState) -> bool:
    return all(bool(np.isfinite(f.coeffs).all()) for f in state.fields().values())


def _rk4(state: PerturbationState, dt: float, f) -> PerturbationState:
    k1 = f(state)
    k2 = f(_blend(state, [k1], [0.5], dt, state.time + dt / 2))
    k3 = f(_blend(state, [k2], [0.5], dt, state.time + dt / 2))
    k4 = f(_blend(state, [k3], [1.0], dt, state.time + dt))
    return _blend(
        state,
        [k1, k2, k3, k4],
        [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        dt,
        state.time + dt,
    )


def _project_gauss(state: PerturbationState, constants: PhysicalConstants) -> PerturbationState:
    """Replace the longitudinal electric part by the constraint-consistent solve."""
    g = state.grid
    e_long = solve_gauss_longitudinal(closure_field(state.n, constants.gamma), constants.nu)
    e_new = _transverse_project(state.E.coeffs, g) + e_long
    return replace(state, E=Field(g, e_new))


# -- public operations -------------------------------------------------------------


def rhs(state: PerturbationState, constants: PhysicalConstants, dealias: bool = True) -> PerturbationState:
    """Time derivative of the state (returned as a state-shaped object)."""
    g = state.grid
    nu, mu = constants.nu, constants.mu
    m = g.dealias_mask if dealias else 1.0
    n, u, E, B = state.n, state.u, state.E, state.B

    def phys(coeffs):  # dealiased physical samples
        return Field(g, m * coeffs).physical()

    def spec(values):  # dealiased coefficients of physical samples
        return m * Field.from_physical(g, values).coeffs

    # linear part, spectral
    div_u = divergence(u).coeffs
    grad_n = gradient(n).coeffs
    curl_u = curl(u).coeffs
    ndot = -div_u
    udot = -nu * u.coeffs - nu * E.coeffs - grad_n
    if not constants.b_infty_is_zero:
        udot -= _cross(u.coeffs, constants.b_infty_vector()[:, None, None, None])
    edot = nu * curl(B).coeffs + nu * u.coeffs
    bdot = -nu * curl(E).coeffs

    # nonlinear products on dealiased physical samples
    n_p, u_p, b_p = phys(n.coeffs), phys(u.coeffs), phys(B.coeffs)
    grad_n_p, div_u_p, curl_u_p = phys(grad_n), phys(div_u), phys(curl_u)
    closure_p = density_closure(n_p, constants.gamma)

    ndot -= spec((u_p * grad_n_p).sum(axis=0) + mu * n_p * div_u_p)
    # u.grad u = grad(|u|^2/2) + (curl u) x u
    udot -= gradient(Field(g, spec(0.5 * (u_p * u_p).sum(axis=0)))).coeffs
    udot -= spec(_cross(curl_u_p, u_p) + mu * n_p * grad_n_p + _cross(u_p, b_p))
    edot += nu * spec(closure_p * u_p)

    return PerturbationState(
        n=Field(g, ndot), u=Field(g, udot), E=Field(g, edot), B=Field(g, bdot), time=state.time
    )


def cfl_dt(state: PerturbationState, grid: GridSpec, constants: PhysicalConstants, safety: float = 0.5) -> float:
    """Advisory step size: safety / (k_max * (1 + nu + |u|_inf + |n|_inf)).

    The 1 covers the unit sound and light speeds of the rescaled system.
    """
    kmax = math.pi * grid.n / grid.box_length
    u_inf = float(np.max(np.abs(state.u.physical()))) if state.u.coeffs.any() else 0.0
    n_inf = float(np.max(np.abs(state.n.physical()))) if state.n.coeffs.any() else 0.0
    speed = 1.0 + constants.nu + u_inf + n_inf
    return safety / (kmax * speed)


def step(
    state: PerturbationState,
    dt: float,
    constants: PhysicalConstants,
    dealias: bool = True,
    rhs_fn: Callable | None = None,
) -> PerturbationState:
    """One classical RK4 step; ``rhs_fn(state)`` replaces the physics if given."""
    advisory = cfl_dt(state, state.grid, constants)
    if dt > 1.0001 * advisory:
        warnings.warn(
            f"dt={dt:.3e} exceeds advisory CFL step {advisory:.3e}",
            CflViolation,
            stacklevel=2,
        )
    out = _rk4(state, dt, rhs_fn or (lambda st: rhs(st, constants, dealias)))
    if not _is_finite(out):
        raise SimulationDiverged(f"non-finite state after step at t={state.time}")
    return out


@dataclass
class RunLog:
    """Time series of monitored quantities plus run metadata."""

    times: list[float] = dc_field(default_factory=list)
    columns: dict[str, list[float]] = dc_field(default_factory=dict)
    metadata: dict = dc_field(default_factory=dict)

    def append(self, time: float, row: dict[str, float]):
        self.times.append(time)
        for key, val in row.items():
            self.columns.setdefault(key, [float("nan")] * (len(self.times) - 1)).append(val)
        for key in self.columns:
            if len(self.columns[key]) < len(self.times):
                self.columns[key].append(float("nan"))

    def series(self, name: str):
        from .analysis import NormSeries

        return NormSeries(
            label=name,
            times=np.asarray(self.times),
            values=np.asarray(self.columns[name]),
            metadata=dict(self.metadata),
        )

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.columns[name])


@dataclass
class SimulationResult:
    log: RunLog
    final_state: PerturbationState


def simulate(
    initial: PerturbationState,
    config: SolverConfig,
    constants: PhysicalConstants,
    monitors: Sequence[Callable[[PerturbationState], dict[str, float]]] = (),
) -> SimulationResult:
    """March the state to end_time, sampling monitors every output stride.

    Results inside one wraparound horizon (box_length / 4 time units at unit
    wave speeds) approximate free-space evolution; the horizon is recorded in
    the log metadata.  The electrostatic residual is always logged before any
    projection so the projector cannot mask integrator drift.
    """
    grid = initial.grid
    dt = cfl_dt(initial, grid, constants, config.cfl_safety) if config.dt == "auto" else float(config.dt)
    n_steps = max(0, math.ceil(config.end_time / dt - 1e-12))
    if config.max_steps is not None:
        n_steps = min(n_steps, config.max_steps)

    log = RunLog()
    log.metadata.update(
        {
            "dt": dt,
            "steps": n_steps,
            "horizon": grid.box_length / 4.0,
            "grid_points": grid.n,
            "box_length": grid.box_length,
            "dealias": config.dealias,
            "gauss_projection_stride": config.gauss_projection_stride,
        }
    )

    def physics(st):
        return rhs(st, constants, config.dealias)

    def sample(st):
        row: dict[str, float] = {}
        for mon in monitors:
            row.update(mon(st))
        log.append(st.time, row)
        return row

    state = initial
    sample(state)
    max_gauss = 0.0
    for istep in range(1, n_steps + 1):
        state = _rk4(state, dt, physics)
        if not _is_finite(state):
            raise SimulationDiverged(
                f"non-finite state at step {istep}, t={state.time:.6g}; "
                f"last logged time {log.times[-1]:.6g}"
            )
        if config.gauss_projection_stride and istep % config.gauss_projection_stride == 0:
            # measure before projecting so projection cannot mask drift
            res = verify_compatibility(state, constants).gauss_residual
            max_gauss = max(max_gauss, res)
            state = _project_gauss(state, constants)
        if istep % config.output_stride == 0 or istep == n_steps:
            row = sample(state)
            if "gauss_residual" in row:
                max_gauss = max(max_gauss, row["gauss_residual"])

    state_scale = max(l2_norm(f) for f in state.fields().values())
    budget = max(config.gauss_tol, 10.0 * dt**4 * (dt * n_steps) * max(state_scale, 1e-300))
    log.metadata["gauss_residual_max"] = max_gauss
    log.metadata["gauss_drift_budget"] = budget
    log.metadata["gauss_within_budget"] = bool(max_gauss <= budget)
    return SimulationResult(log=log, final_state=state)

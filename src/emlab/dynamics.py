"""Nonlinear right-hand side, RK4 time stepping, and run orchestration.

The evolved system, in perturbation variables:

    dn/dt = -div u - u.grad n - mu n div u
    du/dt = -nu u - u x B_inf - grad n - nu E - u.grad u - mu n grad n - u x B
    dE/dt = nu curl B + nu u + nu closure(n) u
    dB/dt = -nu curl E

Linear terms are Fourier multipliers read off model.linear_generator, the
generator the mode analyzer in ``linear`` uses; products are formed pointwise
in physical space with two-thirds dealiasing applied to both inputs and outputs.
The advection term uses the rotation form u.grad u = grad(|u|^2/2) + (curl u) x u
to save transforms, and (curl u) x u + u x B = u x (B - curl u) takes the
difference in spectral space, so one product input serves both terms.

Packed layout.  The stepper works on one contiguous complex array of shape
(10, n, n, n//2+1): the rfft half-spectra of n, u (3), E (3) and B (3)
stacked in that order.  A state is packed once on entry to ``simulate`` or
``step`` and again only after a Gauss projection; every state the solver
hands out (to monitors, to ``verify_compatibility``, as ``final_state`` or
from ``step``) has four fields that are zero-copy views of such an array.

Who writes where.  The solver never writes into an array that a handed-out
state views: each RK4 step writes its result into a fresh array, and the
stage and slope buffers are scratch owned by one ``simulate`` (or ``step``)
call.

Transforms per RHS.  The 11 masked product inputs (n, u, grad n, div u,
B - curl u) go back in one ``_band_irfftn`` call and the 8 products forward
in one ``_band_rfftn`` call: a pass along z, and an (x, y) pass only on the
kz planes below b = n//3 + 1, which the two-thirds rule keeps.  The numbers
are those of full transforms, bit for bit.

Threads.  Between the transforms, the elementwise work of the RHS and the
RK4 stage sums runs on x-slabs of the grid, one slab per CPU, from a thread
pool that one ``simulate``, ``step`` or ``rhs`` call owns.  The slabs are
disjoint, so the numbers do not depend on the CPU count.

Samples.  Every sample of a run logs the electrostatic (Gauss) and
solenoidal constraint residuals of ``model.verify_compatibility`` as the
columns ``gauss_residual`` and ``divB_residual``, next to whatever the
monitors return.  The Gauss projection every ``gauss_projection_stride``
steps is ``model._project_gauss``, the solve that builds the initial data.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import CflViolation, SimulationDiverged, check, is_count, is_real
from .model import (
    PerturbationState,
    PhysicalConstants,
    _project_gauss,
    density_closure,
    linear_generator,
    verify_compatibility,
)
from .spectral import Field, GridSpec, _band_irfftn, _band_rfftn, l2_norm

__all__ = [
    "SolverConfig",
    "rhs",
    "step",
    "cfl_dt",
    "simulate",
    "RunLog",
    "SimulationResult",
]

_SLOTS = 10  # scalar fields of the packed state: n, u (3), E (3), B (3)
# x-planes per thread slab at least; thinner slabs lose more to thread
# hand-offs than they gain (N=16: 12 ms per RK4 step on one thread, 19 ms on two)
_MIN_SLAB = 16


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping controls.

    gauss_projection_stride: if set, every that many steps the longitudinal
    electric part is replaced by the constraint-consistent solve (the residual
    is logged before projection, so projection never masks integrator error).
    """

    dt: float | str = "auto"
    end_time: float = 1.0
    gauss_projection_stride: int | None = 50
    output_stride: int = 10
    gauss_tol: float = 1e-6
    cfl_safety: float = 0.5

    def __post_init__(self):
        check(self.dt, lambda v: v == "auto" or (is_real(v) and v > 0), "dt", "positive or 'auto'")
        check(self.end_time, lambda v: is_real(v) and v >= 0, "end_time", "nonnegative")
        check(self.gauss_projection_stride, lambda v: v is None or is_count(v, 1),
              "gauss_projection_stride", "null or a positive integer")
        check(self.output_stride, lambda v: is_count(v, 1), "output_stride", "a positive integer")
        check(self.gauss_tol, lambda v: is_real(v) and v >= 0, "gauss_tol", "nonnegative")
        check(self.cfl_safety, lambda v: is_real(v) and v > 0, "cfl_safety", "positive")


def _pack(state: PerturbationState, out: np.ndarray | None = None) -> np.ndarray:
    """The four fields stacked in the packed (10, n, n, n//2+1) layout."""
    if out is None:
        out = np.empty((_SLOTS,) + state.n.coeffs.shape, dtype=np.complex128)
    out[0] = state.n.coeffs
    out[1:4] = state.u.coeffs
    out[4:7] = state.E.coeffs
    out[7:10] = state.B.coeffs
    return out


def _view(y: np.ndarray, grid: GridSpec, time: float) -> PerturbationState:
    """State whose fields are zero-copy views of the packed array ``y``."""
    return PerturbationState(
        n=Field(grid, y[0]), u=Field(grid, y[1:4]), E=Field(grid, y[4:7]), B=Field(grid, y[7:10]), time=time
    )


class _Slabs:
    """Runs an elementwise job on x-slabs of the grid: by default one slab
    per CPU, each at least ``_MIN_SLAB`` planes thick.

    numpy releases the interpreter lock inside its loops, so the slabs run
    in parallel, and each slab gives the same numbers as one whole-array
    pass.  Jobs write only into preallocated arrays: memory that a worker
    thread allocates stays in that thread's malloc arena and raises the
    peak memory of the process.  The thread pool lives until ``close``.
    """

    def __init__(self, n: int, workers: int | None = None):
        if workers is None:
            workers = max(1, min(os.cpu_count() or 1, n // _MIN_SLAB))
        cut = [n * i // workers for i in range(workers + 1)]
        self.slabs = [slice(lo, hi) for lo, hi in zip(cut, cut[1:])]
        self._pool = ThreadPoolExecutor(workers) if workers > 1 else None

    def run(self, job: Callable[[slice], None]):
        """``job(slab)`` for every slab; returns when all are done."""
        if self._pool is None:
            job(self.slabs[0])
            return
        futures = [self._pool.submit(job, slab) for slab in self.slabs]
        wait(futures)
        for f in futures:
            f.result()

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "_Slabs":
        return self

    def __exit__(self, *exc):
        self.close()


def _x(slab: slice) -> tuple:
    """Index of an x-slab in any stack of spectral or physical fields."""
    return (Ellipsis, slab, slice(None), slice(None))


class _Rhs:
    """The fused right-hand side on packed arrays.

    Holds the linear terms, the i*k multipliers, the dealias mask and the
    work buffers of one grid and one set of constants; ``rhs(y, time, out)``
    writes the time derivative of the packed state ``y`` into ``out`` (the
    system is autonomous, so ``time`` is unused).  It writes nothing else
    outside its own buffers.  The elementwise stages run on the x-slabs of
    ``slabs``; the transforms between them run on whole stacks.  The
    transforms skip the kz planes from b = n//3 + 1 up, where the masked
    product inputs are zero and the mask discards the products; the
    elementwise stages still run on whole planes, because numpy's passes
    over the planes below b alone, strided, were slower.  The products are
    formed in each call's c2r output.

    The linear part is read off ``model.linear_generator``: row r of
    A(k) = A0 + i sum_a k_a A1[a] is a list of nonzero terms (a, column,
    coefficient), taken times i*k_a, or times 1 for a = 3 (the A0 entries).
    """

    def __init__(self, grid: GridSpec, constants: PhysicalConstants, slabs: _Slabs):
        n, h = grid.n, grid.n // 2 + 1
        self.n = n
        self.slabs = slabs
        self.nu, self.mu, self.gamma = constants.nu, constants.mu, constants.gamma
        self.ik = [1j * grid.k_axis(a) for a in range(3)]
        a0, a1 = linear_generator(constants)
        table = np.concatenate([a1, a0[None]])
        self.terms = [[(a, c, table[a, r, c]) for a, c in zip(*np.nonzero(table[:, r]))] for r in range(_SLOTS)]
        # complex, so that no multiply casts it; 1+0j and 0j are what a bool casts to
        self.mask = grid.dealias_mask.astype(np.complex128)
        self.spec = np.empty((11, n, n, h), dtype=np.complex128)
        self.tmp = np.empty((n, n, h), dtype=np.complex128)
        self.work = np.empty((2, n, n, n))

    def __call__(self, y: np.ndarray, time: float, out: np.ndarray):
        self.slabs.run(lambda slab: self._linear(y, out, slab))
        phys = _band_irfftn(self.spec, self.n)
        closure = density_closure(phys[0], self.gamma)
        self.slabs.run(lambda slab: self._products(phys, closure, slab))
        # [0] |u|^2/2, [1:4] closure(n) u, [4:7] the vector term, [7] the density term
        prods = _band_rfftn(phys[0:8])
        self.slabs.run(lambda slab: self._accumulate(prods, out, slab))

    def _multipliers(self, slab: slice):
        return (self.ik[0][slab], self.ik[1], self.ik[2]), self.mask[slab]

    def _linear(self, y: np.ndarray, out: np.ndarray, slab: slice):
        """The linear part into ``out`` and the masked product inputs into ``spec``."""
        ik, m = self._multipliers(slab)
        x = _x(slab)
        y, out, spec, tmp = y[x], out[x], self.spec[x], self.tmp[slab]
        mults = (*ik, 1.0)
        for r, terms in enumerate(self.terms):
            for i, (a, c, coeff) in enumerate(terms):
                np.multiply(y[c], coeff * mults[a], out=tmp if i else out[r])
                if i:
                    out[r] += tmp

        # masked product inputs: n, u, grad n, div u, B - curl u
        u, grad_n, div_u, w = y[1:4], spec[4:7], spec[7], spec[8:11]
        np.multiply(ik[0], u[0], out=div_u)
        for a in (1, 2):
            np.multiply(ik[a], u[a], out=tmp)
            div_u += tmp
        for a in range(3):
            i, j = (a + 1) % 3, (a + 2) % 3
            np.multiply(ik[a], y[0], out=grad_n[a])
            np.multiply(ik[i], u[j], out=w[a])
            np.multiply(ik[j], u[i], out=tmp)
            w[a] -= tmp
            np.subtract(y[7 + a], w[a], out=w[a])
        np.multiply(y[0:4], m, out=spec[0:4])
        spec[4:11] *= m

    def _products(self, phys: np.ndarray, closure: np.ndarray, slab: slice):
        """The 8 products into slots 0-7 of ``phys``, each written into a slot
        whose input is dead."""
        x = _x(slab)
        phys = phys[x]
        acc, prod = self.work[x]
        pn, pu, pg, pd, pw = phys[0], phys[1:4], phys[4:7], phys[7], phys[8:11]
        pn *= self.mu  # mu n
        # slot 7: u.grad n + mu n div u
        pd *= pn
        np.multiply(pu[0], pg[0], out=acc)
        for a in (1, 2):
            np.multiply(pu[a], pg[a], out=prod)
            acc += prod
        pd += acc
        # slots 4-6: mu n grad n + u x (B - curl u)
        for a in range(3):
            i, j = (a + 1) % 3, (a + 2) % 3
            np.multiply(pu[i], pw[j], out=acc)
            np.multiply(pu[j], pw[i], out=prod)
            acc -= prod
            pg[a] *= pn
            pg[a] += acc
        # slot 0: |u|^2 / 2, whose gradient completes u.grad u
        ke = pn
        np.multiply(pu[0], pu[0], out=ke)
        for a in (1, 2):
            np.multiply(pu[a], pu[a], out=prod)
            ke += prod
        ke *= 0.5
        # slots 1-3: closure(n) u
        pu *= closure[slab]

    def _accumulate(self, prods: np.ndarray, out: np.ndarray, slab: slice):
        """The masked transformed products into ``out``."""
        ik, m = self._multipliers(slab)
        x = _x(slab)
        prods, out, tmp = prods[x], out[x], self.tmp[slab]
        dn, du, de = out[0], out[1:4], out[4:7]
        prods *= m
        dn -= prods[7]
        for a in range(3):
            np.multiply(ik[a], prods[0], out=tmp)
            du[a] -= tmp
        du -= prods[4:7]
        prods[1:4] *= self.nu
        de += prods[1:4]


def _rk4(f, y: np.ndarray, time: float, dt: float, k: np.ndarray, stage: np.ndarray, slabs: _Slabs) -> np.ndarray:
    """One classical RK4 step of the packed state ``y`` into a fresh array.

    ``f(y, time, out)`` writes dy/dt into ``out``; ``k`` and ``stage`` are
    scratch of y's shape.  Each stage is y + c*k and the result accumulates
    y + sum (dt*w_i) k_i in stage order.
    """
    out = np.empty_like(y)

    def combine(w: float, c: float, first: bool):
        def job(slab):  # out (+)= (dt*w) k, then stage = y + (dt*c) k
            x = _x(slab)
            np.multiply(k[x], dt * w, out=stage[x])
            if first:
                np.add(stage[x], y[x], out=out[x])
            else:
                out[x] += stage[x]
            if c:
                np.multiply(k[x], dt * c, out=stage[x])
                stage[x] += y[x]

        return job

    f(y, time, k)
    slabs.run(combine(1.0 / 6.0, 0.5, True))
    half = time + dt / 2
    for t, w, c in ((half, 1.0 / 3.0, 0.5), (half, 1.0 / 3.0, 1.0), (time + dt, 1.0 / 6.0, 0.0)):
        f(stage, t, k)
        slabs.run(combine(w, c, False))
    return out


# -- public operations -------------------------------------------------------------


def rhs(state: PerturbationState, constants: PhysicalConstants) -> PerturbationState:
    """Time derivative of the state (returned as a state-shaped object)."""
    y = _pack(state)
    out = np.empty_like(y)
    with _Slabs(state.grid.n) as slabs:
        _Rhs(state.grid, constants, slabs)(y, state.time, out)
    return _view(out, state.grid, state.time)


def cfl_dt(
    state: PerturbationState,
    grid: GridSpec,
    constants: PhysicalConstants,
    safety: float = SolverConfig.cfl_safety,
) -> float:
    """Advisory step size: safety / (k_max * (1 + nu + |u|_inf + |n|_inf)).

    The 1 covers the unit sound and light speeds of the rescaled system.
    """
    kmax = math.pi * grid.n / grid.box_length
    sup_u, sup_n = (float(np.max(np.abs(f.physical()))) for f in (state.u, state.n))
    return safety / (kmax * (1.0 + constants.nu + sup_u + sup_n))


def _cfl_margin(state: PerturbationState, dt: float, constants: PhysicalConstants, safety: float, stacklevel: int) -> float:
    """advisory / dt for the state; warns CflViolation when dt exceeds the advisory step by over 1e-4."""
    advisory = cfl_dt(state, state.grid, constants, safety)
    if dt > 1.0001 * advisory:
        warnings.warn(
            f"dt={dt:.3e} exceeds advisory CFL step {advisory:.3e} at t={state.time:.6g}",
            CflViolation,
            stacklevel=stacklevel,
        )
    return advisory / dt


def step(state: PerturbationState, dt: float, constants: PhysicalConstants) -> PerturbationState:
    """One classical RK4 step; warns CflViolation, as ``simulate`` does, when
    dt exceeds the advisory step at the default ``SolverConfig.cfl_safety``."""
    _cfl_margin(state, dt, constants, SolverConfig.cfl_safety, stacklevel=3)
    g = state.grid
    y = _pack(state)
    with _Slabs(g.n) as slabs:
        out = _rk4(_Rhs(g, constants, slabs), y, state.time, dt, np.empty_like(y), np.empty_like(y), slabs)
    if not np.isfinite(out).all():
        raise SimulationDiverged(f"non-finite state after step at t={state.time}")
    return _view(out, g, state.time + dt)


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
    the log metadata.  Every sample logs ``gauss_residual`` and
    ``divB_residual``, with or without monitors.  The largest in-run Gauss
    residual, each one measured before any projection so the projector
    cannot mask integrator drift, is recorded as ``gauss_residual_max``.

    dt is fixed from the initial state, so at every sample it is compared
    with the advisory ``cfl_dt`` of the current state: a step above 1.0001x
    the advisory one warns ``CflViolation``, and the smallest ratio
    advisory / dt is recorded as ``cfl_margin_min``.  The smallest positivity
    margin min(1 + mu*n) over the samples is recorded as ``positivity_margin_min``.
    """
    grid = initial.grid
    dt = cfl_dt(initial, grid, constants, config.cfl_safety) if config.dt == "auto" else float(config.dt)
    n_steps = max(0, math.ceil(config.end_time / dt - 1e-12))

    log = RunLog()
    log.metadata.update(
        {
            "dt": dt,
            "steps": n_steps,
            "horizon": grid.box_length / 4.0,
            "grid_points": grid.n,
            "box_length": grid.box_length,
            "gauss_projection_stride": config.gauss_projection_stride,
        }
    )
    cfl_margin_min = positivity_margin_min = math.inf

    def sample(st):
        nonlocal cfl_margin_min, positivity_margin_min
        cfl_margin_min = min(cfl_margin_min, _cfl_margin(st, dt, constants, config.cfl_safety, stacklevel=4))
        row: dict[str, float] = {}
        for mon in monitors:
            row.update(mon(st))
        compat = verify_compatibility(st, constants)
        row["gauss_residual"] = compat.gauss_residual
        row["divB_residual"] = compat.divb_residual
        positivity_margin_min = min(positivity_margin_min, compat.positivity_margin)
        log.append(st.time, row)
        return compat.gauss_residual

    y = _pack(initial)
    with _Slabs(grid.n) as slabs:
        kernel = _Rhs(grid, constants, slabs)
        k, stage = np.empty_like(y), np.empty_like(y)
        state = _view(y, grid, initial.time)
        sample(state)
        max_gauss = 0.0
        for istep in range(1, n_steps + 1):
            y = _rk4(kernel, y, state.time, dt, k, stage, slabs)
            if not np.isfinite(y).all():
                raise SimulationDiverged(
                    f"non-finite state at step {istep}, t={state.time + dt:.6g}; "
                    f"last logged time {log.times[-1]:.6g}"
                )
            state = _view(y, grid, state.time + dt)
            if config.gauss_projection_stride and istep % config.gauss_projection_stride == 0:
                # measure before projecting so projection cannot mask drift
                res = verify_compatibility(state, constants).gauss_residual
                max_gauss = max(max_gauss, res)
                y = _pack(_project_gauss(state, constants))
                state = _view(y, grid, state.time)
            if istep % config.output_stride == 0 or istep == n_steps:
                max_gauss = max(max_gauss, sample(state))

    state_scale = max(l2_norm(f) for f in state.fields().values())
    budget = max(config.gauss_tol, 10.0 * dt**4 * (dt * n_steps) * max(state_scale, 1e-300))
    log.metadata["gauss_residual_max"] = max_gauss
    log.metadata["gauss_drift_budget"] = budget
    log.metadata["gauss_within_budget"] = bool(max_gauss <= budget)
    log.metadata["cfl_margin_min"] = cfl_margin_min
    log.metadata["positivity_margin_min"] = positivity_margin_min
    return SimulationResult(log=log, final_state=state)

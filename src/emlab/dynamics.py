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
stacked in that order.  A state is packed once on entry to ``simulate``,
``step`` or ``rhs`` and again only after a Gauss projection; every state
the solver hands out (to monitors, to ``verify_compatibility``, as
``final_state``, from ``step`` or from ``rhs``) has four fields that are
zero-copy views of such an array.

Who writes where.  An RK4 step holds three registers: its input, which it
only reads; its result, a fresh array; and the stage register, scratch
owned by one ``simulate`` (or ``step``) call, which holds each stage and
then that stage's slope.  The RHS writes its result over its input: one
x-chunk at a time, it writes the chunk's product inputs, forms the chunk's
linear part in a buffer and copies it over the chunk.  So the solver never
writes into an array that a handed-out state views, and ``rhs`` returns
the derivative written over its own packed copy of the input.

Transforms per RHS.  The 11 masked product inputs go back and the 8
products forward through the 1-D passes of ``spectral``'s transforms, in
their order: each x and y pass runs only on the kz planes 0..n//3, which
the two-thirds rule keeps and which are all the RHS's product buffer
holds, and the inverse x pass and the forward y pass only on the in-band
rows of the other axis.  The numbers are those of full transforms, bit for
bit.

Threads.  One thread pool, owned by one ``simulate``, ``step`` or ``rhs``
call, runs every parallel part of a step: the five runs of each RHS (the
elementwise stages on x-slabs, the transform passes on slabs of the rows
they cover) and the RK4 stage blends, whose last one also flags non-finite
entries.  The calling thread runs the last slab of each run.  The slabs are
disjoint, so the numbers do not depend on the CPU count.  The jobs on an
x-slab go through it in chunks of x-planes, in buffers preallocated for
that slab, whose size is capped in bytes (``_CHUNK_BYTES``): the worker
threads allocate nothing, and the buffers do not grow with n^3.  A cut
into chunks does not change the numbers either.

Samples.  Every sample of a run logs the electrostatic (Gauss) and
solenoidal constraint residuals of ``model.verify_compatibility`` as the
columns ``gauss_residual`` and ``divB_residual``, next to whatever the
monitors return.  The Gauss projection every ``gauss_projection_stride``
steps is ``model._project_gauss``, the solve that builds the initial data.
A step transforms n once for its projection, its residual check and its
sample together; the first sample reuses the samples of the t = 0 advisory
step.
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
from .spectral import (
    Field,
    GridSpec,
    _rows,
    _x_forward,
    _x_inverse,
    _y_forward,
    _y_inverse,
    _z_forward,
    _z_inverse,
    l2_norm,
)

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
# bytes of an x-slab's chunk buffers at most (see ``_Rhs``): whole 16-plane slabs
# at N=32, where thinner chunks were slower, and chunks of 4-5 planes at N=64
_CHUNK_BYTES = 4 << 20


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


def _chunk_buffers(slab: slice, n: int) -> list[tuple]:
    """The x-chunks of ``slab``, each as (chunk, phys, work, half): views of
    one set of buffers, contiguous and sized to the chunk (see ``_Rhs``).
    The chunks are the fewest even runs of planes whose buffers take at most
    ``_CHUNK_BYTES`` (at least one plane)."""
    kinds = (((11, n, n), np.float64), ((3, n, n), np.float64), ((_SLOTS + 1, n, n // 2 + 1), np.complex128))
    plane = sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in kinds)
    size = slab.stop - slab.start
    count = -(-size // max(1, _CHUNK_BYTES // plane))
    cut = [slab.start + size * i // count for i in range(count + 1)]
    chunks = [slice(lo, hi) for lo, hi in zip(cut, cut[1:])]
    most = max(c.stop - c.start for c in chunks)
    bufs = [np.empty(math.prod(shape) * most, dtype=dtype) for shape, dtype in kinds]

    def views(planes: int) -> list[np.ndarray]:
        return [buf[: math.prod(shape) * planes].reshape(shape[0], planes, *shape[1:])
                for buf, (shape, _) in zip(bufs, kinds)]

    return [(c, *views(c.stop - c.start)) for c in chunks]


class _Slabs:
    """Runs a job on slabs of one grid axis: by default x-slabs, one per
    CPU, each at least ``_MIN_SLAB`` planes thick.

    numpy releases the interpreter lock inside its loops and transforms, so
    the slabs run in parallel, and each slab gives the same numbers as one
    whole-array pass.  The calling thread runs the last slab; a pool of the
    other workers runs the rest and lives until ``close``.  Jobs write only
    into preallocated arrays: memory that a worker thread allocates stays in
    that thread's malloc arena and raises the peak memory of the process.
    So each x-slab comes with its ``chunks``: runs of x-planes, each with
    views of the slab's own work buffers (``_chunk_buffers``), which the
    jobs of the RHS and of the RK4 blends on that slab take turns to use.
    """

    def __init__(self, n: int, workers: int | None = None):
        if workers is None:
            workers = max(1, min(os.cpu_count() or 1, n // _MIN_SLAB))
        self.workers = workers
        self.slabs = self.split([slice(0, n)])
        self.chunks = {slab.start: _chunk_buffers(slab, n) for slab in self.slabs}
        self._pool = ThreadPoolExecutor(workers - 1) if workers > 1 else None

    def split(self, ranges: Sequence[slice]) -> list[slice]:
        """The indices of ``ranges`` cut into one run per worker, as slices
        (a run that crosses from one range to the next takes one slice in each)."""
        total = sum(r.stop - r.start for r in ranges)
        cut = [total * i // self.workers for i in range(self.workers + 1)]
        out, offset = [], 0
        for r in ranges:
            for lo, hi in zip(cut, cut[1:]):
                lo, hi = max(lo - offset, 0), min(hi - offset, r.stop - r.start)
                if lo < hi:
                    out.append(slice(r.start + lo, r.start + hi))
            offset += r.stop - r.start
        return out

    def run(self, job: Callable[[slice], None], slabs: Sequence[slice] | None = None):
        """``job(slab)`` for every slab (default: the x-slabs); returns when
        all are done, raising the first failure in slab order."""
        slabs = self.slabs if slabs is None else slabs
        futures = [self._pool.submit(job, slab) for slab in slabs[:-1]] if self._pool else []
        error = None
        try:
            for slab in slabs[len(futures):]:
                job(slab)
        except BaseException as exc:  # raised once every slab is done, after earlier slabs' failures
            error = exc
        wait(futures)
        for f in futures:
            f.result()
        if error is not None:
            raise error

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
    writes the time derivative of the packed state ``y`` into ``out``, which
    may be ``y`` itself (the system is autonomous, so ``time`` is unused).
    It writes nothing else outside its own buffers and its slabs' chunk
    buffers: ``spec`` holds the product inputs and then the transformed
    products, on the kz planes 0..n//3 only.

    One call is five runs on the slabs of the pool, each a set of disjoint
    jobs that write only into ``out`` and these buffers: (1) the masked
    product inputs and the linear part, on x-slabs; (2) the inverse x pass,
    on the in-band ky rows; (3) the inverse y and z passes, the scale, the
    closure, the products and the forward z pass, on x-slabs; (4) the
    forward x pass, on y-slabs; (5) the forward y pass and the accumulation
    into ``out``, on the in-band kx rows.  The transforms run only on the kz
    planes 0..n//3: the two-thirds rule zeroes the inputs above them, and
    the c2r z pass reads the missing planes as zeros, as it would read the
    zeros themselves; the products above them are discarded.

    Runs (1) and (3) go through each x-slab in chunks of x-planes, each
    chunk in the slab's buffers (``_Slabs.chunks``): ``phys`` for the
    samples and then the products, ``work`` for the products' temporaries,
    and ``half`` for a chunk of half-spectra (run 1's linear part and its
    temporary, run 3's forward z pass, the RK4 blends of ``_rk4``).  Run (1)
    writes a chunk's product inputs, then forms its linear part in ``half``
    and copies it over the chunk of ``out`` after the last read of ``y``.
    A slab's buffers hold at most ``_CHUNK_BYTES`` (or one plane), so they
    do not grow with the grid.

    The linear part is read off ``model.linear_generator``: row r of
    A(k) = A0 + i sum_a k_a A1[a] is a list of nonzero terms (a, column,
    coefficient), taken times i*k_a, or times 1 for a = 3 (the A0 entries).
    """

    def __init__(self, grid: GridSpec, constants: PhysicalConstants, slabs: _Slabs):
        n = grid.n
        self.n, self.band = n, n // 3
        b = self.band + 1
        self.slabs = slabs
        self.rows = slabs.split(_rows(n, self.band))  # the in-band rows of a full axis, a run per worker
        self.nu, self.mu, self.gamma = constants.nu, constants.mu, constants.gamma
        self.ik = [1j * grid.k_axis(a) for a in range(3)]
        a0, a1 = linear_generator(constants)
        table = np.concatenate([a1, a0[None]])
        self.terms = [[(a, c, table[a, r, c]) for a, c in zip(*np.nonzero(table[:, r]))] for r in range(_SLOTS)]
        # complex, so that no multiply casts it; 1+0j and 0j are what a bool casts to
        self.mask = grid.dealias_mask[..., :b].astype(np.complex128)
        self.spec = np.empty((11, n, n, b), dtype=np.complex128)
        self.tmp = np.empty((n, n, b), dtype=np.complex128)

    def __call__(self, y: np.ndarray, time: float, out: np.ndarray):
        run = self.slabs.run
        run(lambda slab: self._linear(y, out, slab))
        run(self._inverse_x, self.rows)
        run(self._physical)
        run(self._forward_x)
        run(lambda rows: self._accumulate(out, rows), self.rows)

    def _linear(self, y: np.ndarray, out: np.ndarray, slab: slice):
        """The masked product inputs into ``spec`` and the linear part into
        ``out``, a chunk at a time; ``out`` may be ``y``."""
        b = self.band + 1
        for chunk, _, _, half in self.slabs.chunks[slab.start]:
            x = _x(chunk)
            ik, m = (self.ik[0][chunk], self.ik[1], self.ik[2]), self.mask[chunk]
            y_c, spec, lin, tmp = y[x], self.spec[x], half[:_SLOTS], half[_SLOTS]

            # masked product inputs on the kz planes 0..band: n, u, grad n, div u, B - curl u
            yb, ikb = y_c[..., :b], (*ik[:2], ik[2][..., :b])
            u, grad_n, div_u, w = yb[1:4], spec[4:7], spec[7], spec[8:11]
            tmpb = tmp.ravel()[: div_u.size].reshape(div_u.shape)  # contiguous: faster than tmp[..., :b]
            np.multiply(ikb[0], u[0], out=div_u)
            for a in (1, 2):
                np.multiply(ikb[a], u[a], out=tmpb)
                div_u += tmpb
            for a in range(3):
                i, j = (a + 1) % 3, (a + 2) % 3
                np.multiply(ikb[a], yb[0], out=grad_n[a])
                np.multiply(ikb[i], u[j], out=w[a])
                np.multiply(ikb[j], u[i], out=tmpb)
                w[a] -= tmpb
                np.subtract(yb[7 + a], w[a], out=w[a])
            np.multiply(yb[0:4], m, out=spec[0:4])
            spec[4:11] *= m

            # the linear part, copied over the chunk once it is read
            mults = (*ik, 1.0)
            for r, terms in enumerate(self.terms):
                for i, (a, c, coeff) in enumerate(terms):
                    np.multiply(y_c[c], coeff * mults[a], out=tmp if i else lin[r])
                    if i:
                        lin[r] += tmp
            out[x] = lin

    def _inverse_x(self, rows: slice):
        _x_inverse(self.spec, self.band, rows)

    def _physical(self, slab: slice):
        """The samples of the product inputs of one x-slab, their products,
        and the products' forward z pass, written back into ``spec``, a chunk
        at a time."""
        b = self.band + 1
        for chunk, phys, work, half in self.slabs.chunks[slab.start]:
            spec = self.spec[:, chunk]
            _y_inverse(spec)
            _z_inverse(spec, self.n, out=phys)  # whole planes: one numpy loop a field
            self._products(phys, work)
            # [0] |u|^2/2, [1:4] closure(n) u, [4:7] the vector term, [7] the density term
            _z_forward(phys[0:8], out=half[0:8])
            spec[0:8] = half[0:8, ..., :b]

    def _products(self, phys: np.ndarray, work: np.ndarray):
        """The 8 products into slots 0-7 of ``phys``, each written into a slot
        whose input is dead."""
        acc, prod, closure = work
        pn, pu, pg, pd, pw = phys[0], phys[1:4], phys[4:7], phys[7], phys[8:11]
        density_closure(pn, self.gamma, out=closure)
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
        pu *= closure

    def _forward_x(self, slab: slice):
        _x_forward(self.spec[0:8, :, slab], self.band)

    def _accumulate(self, out: np.ndarray, rows: slice):
        """The forward y pass of the products on the kx rows ``rows``, masked,
        into the kz planes 0..n//3 of ``out``."""
        _y_forward(self.spec[0:8], self.band, rows)
        prods = self.spec[0:8, rows]
        ik, m = (self.ik[0][rows], self.ik[1], self.ik[2][..., : self.band + 1]), self.mask[rows]
        out, tmp = out[:, rows, :, : self.band + 1], self.tmp[rows]
        dn, du, de = out[0], out[1:4], out[4:7]
        prods *= m
        dn -= prods[7]
        for a in range(3):
            np.multiply(ik[a], prods[0], out=tmp)
            du[a] -= tmp
        du -= prods[4:7]
        prods[1:4] *= self.nu
        de += prods[1:4]


def _scratch(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The RK4 work arrays of packed states shaped like ``y``: the stage
    register, which holds each stage and then its slope, and the finite flags."""
    return np.empty_like(y), np.empty(y.shape, dtype=bool)


def _rk4(f, y: np.ndarray, time: float, dt: float, scratch: tuple, slabs: _Slabs) -> tuple[np.ndarray, bool]:
    """One classical RK4 step of the packed state ``y`` into a fresh array,
    and whether every entry of that array is finite.

    Three registers: ``y``, which is only read, the result, and the stage
    register of ``_scratch(y)``.  ``f(y, time, out)`` writes dy/dt into
    ``out``, which may be ``y``: the first slope goes into the stage
    register, and ``f(stage, t, stage)`` turns each later stage into its
    slope k in place.  After each slope a blend adds (dt*w_i) k to the
    result (y + sum (dt*w_i) k_i in stage order, each product formed in a
    chunk buffer of ``slabs``) and overwrites k with the next stage,
    y + (dt*c) k; the last blend flags the finite entries instead.
    """
    stage, finite = scratch
    out = np.empty_like(y)

    def combine(w: float, c: float, first: bool):
        def job(slab):  # out (+)= (dt*w) k, then stage = y + (dt*c) k, over the k in stage
            for chunk, _, _, buf in slabs.chunks[slab.start]:
                x = _x(chunk)
                k, term = stage[x], buf[:_SLOTS]
                np.multiply(k, dt * w, out=term)
                if first:
                    np.add(term, y[x], out=out[x])
                else:
                    out[x] += term
                if c:
                    k *= dt * c
                    k += y[x]
                else:
                    np.isfinite(out[x], out=finite[x])

        return job

    f(y, time, stage)
    slabs.run(combine(1.0 / 6.0, 0.5, True))
    half = time + dt / 2
    for t, w, c in ((half, 1.0 / 3.0, 0.5), (half, 1.0 / 3.0, 1.0), (time + dt, 1.0 / 6.0, 0.0)):
        f(stage, t, stage)
        slabs.run(combine(w, c, False))
    return out, bool(finite.all())


# -- public operations -------------------------------------------------------------


def rhs(state: PerturbationState, constants: PhysicalConstants) -> PerturbationState:
    """Time derivative of the state (returned as a state-shaped object)."""
    y = _pack(state)
    with _Slabs(state.grid.n) as slabs:
        _Rhs(state.grid, constants, slabs)(y, state.time, y)
    return _view(y, state.grid, state.time)


def cfl_dt(
    state: PerturbationState,
    grid: GridSpec,
    constants: PhysicalConstants,
    safety: float = SolverConfig.cfl_safety,
) -> float:
    """Advisory step size: safety / (k_max * (1 + nu + |u|_inf + |n|_inf)).

    The 1 covers the unit sound and light speeds of the rescaled system.
    """
    return _advisory(grid, constants, safety, state.u.physical(), state.n.physical())


def _advisory(grid: GridSpec, constants: PhysicalConstants, safety: float, u_phys, n_phys) -> float:
    """``cfl_dt`` from the samples of u and n."""
    kmax = math.pi * grid.n / grid.box_length
    sup_u, sup_n = (float(np.max(np.abs(v))) for v in (u_phys, n_phys))
    return safety / (kmax * (1.0 + constants.nu + sup_u + sup_n))


def _cfl_margin(advisory: float, dt: float, time: float, stacklevel: int) -> float:
    """advisory / dt; warns CflViolation when dt exceeds the advisory step by over 1e-4."""
    if dt > 1.0001 * advisory:
        warnings.warn(
            f"dt={dt:.3e} exceeds advisory CFL step {advisory:.3e} at t={time:.6g}",
            CflViolation,
            stacklevel=stacklevel,
        )
    return advisory / dt


def step(state: PerturbationState, dt: float, constants: PhysicalConstants) -> PerturbationState:
    """One classical RK4 step; warns CflViolation, as ``simulate`` does, when
    dt exceeds the advisory step at the default ``SolverConfig.cfl_safety``."""
    g = state.grid
    _cfl_margin(cfl_dt(state, g, constants, SolverConfig.cfl_safety), dt, state.time, stacklevel=3)
    y = _pack(state)
    with _Slabs(g.n) as slabs:
        out, finite = _rk4(_Rhs(g, constants, slabs), y, state.time, dt, _scratch(y), slabs)
    if not finite:
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
    n_phys = initial.n.physical()
    advisory = _advisory(grid, constants, config.cfl_safety, initial.u.physical(), n_phys)
    dt = advisory if config.dt == "auto" else float(config.dt)
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

    def sample(st, n_phys, advisory):
        """Logs one sample of ``st``, whose n has the samples ``n_phys``."""
        nonlocal cfl_margin_min, positivity_margin_min
        cfl_margin_min = min(cfl_margin_min, _cfl_margin(advisory, dt, st.time, stacklevel=4))
        row: dict[str, float] = {}
        for mon in monitors:
            row.update(mon(st))
        compat = verify_compatibility(st, constants, n_phys)
        row["gauss_residual"] = compat.gauss_residual
        row["divB_residual"] = compat.divb_residual
        positivity_margin_min = min(positivity_margin_min, compat.positivity_margin)
        log.append(st.time, row)
        return compat.gauss_residual

    y = _pack(initial)
    with _Slabs(grid.n) as slabs:
        kernel = _Rhs(grid, constants, slabs)
        scratch = _scratch(y)
        state = _view(y, grid, initial.time)
        sample(state, n_phys, advisory)
        max_gauss = 0.0
        for istep in range(1, n_steps + 1):
            y, finite = _rk4(kernel, y, state.time, dt, scratch, slabs)
            if not finite:
                raise SimulationDiverged(
                    f"non-finite state at step {istep}, t={state.time + dt:.6g}; "
                    f"last logged time {log.times[-1]:.6g}"
                )
            state = _view(y, grid, state.time + dt)
            n_phys = None  # the samples of state.n, once a projection or a sample takes them
            if config.gauss_projection_stride and istep % config.gauss_projection_stride == 0:
                # measure before projecting so projection cannot mask drift; n is unchanged by it
                n_phys = state.n.physical()
                res = verify_compatibility(state, constants, n_phys).gauss_residual
                max_gauss = max(max_gauss, res)
                y = _pack(_project_gauss(state, constants, n_phys))
                state = _view(y, grid, state.time)
            if istep % config.output_stride == 0 or istep == n_steps:
                if n_phys is None:
                    n_phys = state.n.physical()
                advisory = _advisory(grid, constants, config.cfl_safety, state.u.physical(), n_phys)
                max_gauss = max(max_gauss, sample(state, n_phys, advisory))

    state_scale = max(l2_norm(f) for f in state.fields().values())
    budget = max(config.gauss_tol, 10.0 * dt**4 * (dt * n_steps) * max(state_scale, 1e-300))
    log.metadata["gauss_residual_max"] = max_gauss
    log.metadata["gauss_drift_budget"] = budget
    log.metadata["gauss_within_budget"] = bool(max_gauss <= budget)
    log.metadata["cfl_margin_min"] = cfl_margin_min
    log.metadata["positivity_margin_min"] = positivity_margin_min
    return SimulationResult(log=log, final_state=state)

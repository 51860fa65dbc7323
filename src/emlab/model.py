"""Physical constants, the density closure, the linearization, and initial data.

The solver evolves perturbation variables (n, u, E, B) measuring deviation
from the equilibrium (background density, zero velocity, zero electric field,
background magnetic field) after an enthalpy-type change of variables.  The
closure ``density_closure(n) = (1 + mu*n)^(1/mu) - 1`` equals the physical
density deviation, and the electrostatic constraint reads
``div E = -nu * closure(n)`` together with ``div B = 0``.

In these rescaled units the pressure constant, relaxation time, Debye length,
light speed and background density are one: gamma and B_inf are the only
parameters.

States on the constraint manifold are built here only: the three initial-data
kinds (``decay_class``, ``bump``, ``single_mode``) build raw parts, and one
tail of ``make_initial_data`` puts them on the manifold through the Gauss
solve that the solver's ``_project_gauss`` calls.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .analysis import check_s
from .errors import (
    AmplitudeTooLarge, ClosureShiftNotConverged, DensityNonpositive, SOutOfRange, check, is_count, is_real
)
from .spectral import (
    Field,
    GridSpec,
    divergence,
    l2_norm,
    random_phase_field,
    resolved_part,
)

__all__ = [
    "PhysicalConstants",
    "PerturbationState",
    "CompatibilityReport",
    "density_closure",
    "closure_field",
    "linear_generator",
    "make_initial_data",
    "verify_compatibility",
    "solve_gauss_longitudinal",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """The parameters of the rescaled system, the only ones in these units:
    gamma, the adiabatic exponent, and b_infty, the background magnetic
    field of the equilibrium (exactly three finite numbers)."""

    gamma: float = 5.0 / 3.0
    b_infty: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        check(self.gamma, lambda v: is_real(v) and v >= 1.0, "gamma", "a finite number >= 1")
        check(self.b_infty, lambda b: len(b) == 3 and all(map(is_real, b)), "b_infty", "3 finite numbers")
        object.__setattr__(self, "b_infty", tuple(float(b) for b in self.b_infty))

    @property
    def mu(self) -> float:
        return (self.gamma - 1.0) / 2.0

    @property
    def nu(self) -> float:
        return 1.0 / math.sqrt(self.gamma)

    @property
    def b_infty_is_zero(self) -> bool:
        return all(b == 0.0 for b in self.b_infty)


@dataclass(frozen=True)
class PerturbationState:
    """Perturbation variables at one instant of rescaled time."""

    n: Field
    u: Field
    E: Field
    B: Field
    time: float = 0.0

    def __post_init__(self):
        if self.n.is_vector:
            raise ValueError("n must be scalar")
        for name in ("u", "E", "B"):
            if not getattr(self, name).is_vector:
                raise ValueError(f"{name} must be a 3-vector field")

    @property
    def grid(self) -> GridSpec:
        return self.n.grid

    def fields(self) -> dict[str, Field]:
        return {"n": self.n, "u": self.u, "E": self.E, "B": self.B}


# -- the nonlinear closure -----------------------------------------------------


def density_closure(n, gamma: float, out: np.ndarray | None = None):
    """(1 + mu*n)^(2/(gamma-1)) - 1 for gamma > 1; expm1(n) in the log variable
    at gamma = 1.  Strictly increasing with closure(0) = 0.  Given ``out``,
    the samples are written there and no array is allocated."""
    n = np.asarray(n, dtype=float)
    mu = (gamma - 1.0) / 2.0
    if gamma == 1.0:
        out = np.expm1(n, out=out)
    else:
        out = np.multiply(n, mu, out=np.empty_like(n) if out is None else out)
        # 1 + mu*n <= 0 exactly when mu*n <= -1: near -1 the sum is exact (Sterbenz)
        if np.fmin.reduce(out, axis=None) <= -1.0:
            raise DensityNonpositive("1 + mu*n must stay positive")
        if mu != 1.0:  # gamma = 3 collapses the exponent exactly
            np.log1p(out, out=out)
            out /= mu
            np.expm1(out, out=out)
    return float(out) if out.ndim == 0 else out


def closure_field(grid: GridSpec, n_phys: np.ndarray, gamma: float) -> Field:
    """The closure of the density samples n_phys, applied pointwise, as a field on grid."""
    return Field.from_physical(grid, density_closure(n_phys, gamma))


# -- the linearization -------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def linear_generator(constants: PhysicalConstants) -> tuple[np.ndarray, np.ndarray]:
    """The linearized generator A(xi) = A0 + i sum_a xi_a A1[a] on S = (n, u, E, B).

    Returns the read-only real tables A0 (10, 10) and A1 (3, 10, 10).  The
    density couples to div u; the velocity relaxes and feels the pressure
    gradient, the background rotation -u x B_inf and the electric field; the
    fields close the Maxwell block through curls.  Only the three velocity
    diagonal entries are nonzero on the diagonal, so trace(A) = -3*nu.
    """
    nu = constants.nu
    eye = np.eye(3)
    a0 = np.zeros((10, 10))
    a0[1:4, 1:4] = -nu * eye + np.cross(constants.b_infty, eye).T  # v -> B_inf x v
    a0[1:4, 4:7] = -nu * eye
    a0[4:7, 1:4] = nu * eye
    a1 = np.zeros((3, 10, 10))
    for a in range(3):
        a1[a, 0, 1 + a] = a1[a, 1 + a, 0] = -1.0
        a1[a, 4:7, 7:10] = nu * np.cross(eye[a], eye).T  # v -> e_a x v, the curl
        a1[a, 7:10, 4:7] = -nu * np.cross(eye[a], eye).T
    a0.setflags(write=False)
    a1.setflags(write=False)
    return a0, a1


def _direction_frame(omega, axis=(0.0, 0.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (e1, e2) completing a direction, or each of a stack of
    directions (..., 3), to an orthonormal frame (the polarizations).

    e1 = omega x axis / |omega x axis| and e2 = omega x e1, so the frame is
    covariant under rotations R about the axis: e1(R omega) = R e1(omega).
    Only a direction along the axis (|omega x axis| <= 1e-6) takes another
    trial vector: the coordinate axis it is least aligned with (x for z)."""
    omega = np.asarray(omega, dtype=float)
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    along = np.linalg.norm(np.cross(omega, axis), axis=-1, keepdims=True) <= 1e-6
    e1 = np.cross(omega, np.where(along, np.eye(3)[np.argmin(np.abs(omega), axis=-1)], axis))
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(omega, e1)
    return e1, e2


# -- initial data -----------------------------------------------------------------


def solve_gauss_longitudinal(source: Field, nu: float) -> np.ndarray:
    """Longitudinal field L with div L = -nu * source, solved per Fourier mode.

    Returns vector coefficients i*k*|k|^-2 * nu * source_hat; the zero mode is
    zero, so the source must have (numerically) zero mean for exact solvability.
    """
    g = source.grid
    k2 = np.where(g.k_squared > 0, g.k_squared, 1.0)
    out = np.empty((3,) + source.coeffs.shape, dtype=np.complex128)
    for a in range(3):
        out[a] = 1j * g.k_axis(a) / k2 * nu * source.coeffs
    out[:, 0, 0, 0] = 0.0
    return out


def _transverse_project(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Remove the longitudinal part: P = I - k k^T / |k|^2 per mode."""
    k2 = np.where(grid.k_squared > 0, grid.k_squared, 1.0)
    kdotv = sum(grid.k_axis(a) * coeffs[a] for a in range(3))
    out = coeffs.copy()
    for a in range(3):
        out[a] -= grid.k_axis(a) * kdotv / k2
    return out


# Newton steps with bisection fallback; bisection alone narrows the initial
# bracket to the tolerance in about 60
_SHIFT_MAX_STEPS = 100


def _shift_to_zero_closure_mean(n_phys: np.ndarray, gamma: float) -> np.ndarray:
    """Shift n by a constant so the pointwise closure has zero spatial mean.

    Needed because div E has zero mean on the torus; the closure is strictly
    increasing, so the shift is unique and small (O(amplitude^2)).

    The shift c solves f(c) = mean closure(n + c) = 0 by Newton's method from
    c = 0, with f'(c) = mean (1 + closure(n + c))^(1 - mu) (also at gamma = 1).
    Each evaluation narrows a sign-change bracket, and a Newton step that
    leaves the bracket is replaced by bisection.  The iteration stops at the
    first step |dc| <= 1e-16 + 8.9e-16 |c|; after _SHIFT_MAX_STEPS steps it
    raises ClosureShiftNotConverged."""
    if not np.any(n_phys):
        return n_phys
    mu = (gamma - 1.0) / 2.0
    if mu > 0 and float(np.min(1.0 + mu * n_phys)) <= 0.0:
        raise AmplitudeTooLarge("perturbation drives 1 + mu*n nonpositive")
    span = 2.0 * float(np.max(np.abs(n_phys))) + 1e-12
    # shifts must keep 1 + mu*(n + c) positive
    c_floor = -math.inf if mu == 0 else 0.5 * (-(1.0 + mu * float(n_phys.min())) / mu)
    # f(b) > 0 because n + b > 0 everywhere; f(a) < 0 unless a is the floor
    a, b = max(-span, c_floor), span
    if float(np.mean(density_closure(n_phys + a, gamma))) > 0.0:
        raise AmplitudeTooLarge("no zero-mean shift keeps 1 + mu*n positive")
    c = 0.0
    for _ in range(_SHIFT_MAX_STEPS):
        closure = density_closure(n_phys + c, gamma)
        f = float(np.mean(closure))
        if f < 0.0:
            a = c
        else:
            b = c
        dc = -f / float(np.mean((1.0 + closure) ** (1.0 - mu)))
        if not a <= c + dc <= b:
            dc = 0.5 * (a + b) - c
        c += dc
        if abs(dc) <= 1e-16 + 8.9e-16 * abs(c):
            return n_phys + c
    raise ClosureShiftNotConverged(f"closure shift did not converge in {_SHIFT_MAX_STEPS} steps")


def _decay_class_envelope(s: float, plateau: float, rolloff: float):
    """Borderline envelope of the negative-index-s class: |xi|^(s-3/2) below
    the plateau edge, Gaussian rolloff above it, zero at xi = 0.  decay_class
    data (plateau edge _PLATEAU_EDGE) and linear.SpectralProfile.decay_class
    both read it."""
    a = s - 1.5

    def env(r):
        r = np.asarray(r, dtype=float)
        ramp = np.where(r <= plateau, 1.0, np.exp(-(((r - plateau) / rolloff) ** 2)))
        with np.errstate(divide="ignore"):
            core = np.where(r > 0, np.minimum(1.0, r / plateau) ** a, 0.0)
        return core * ramp

    return env


def _unit_bump(rho2: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - rho^2)) inside the unit ball, 0 outside, of squared radii
    rho2: the profile of bump data and of the embedding oracles' bumps."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(rho2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - rho2)), 0.0)


def _max_scale(samples: np.ndarray, target: float) -> float:
    """The factor that scales a field to max |samples| = target (1 if all are zero)."""
    m = float(np.max(np.abs(samples)))
    return target / m if m > 0 else 1.0


def _gauss_e(e_t: np.ndarray, closure: Field, nu: float) -> Field:
    """E with the given transverse part e_t plus the longitudinal solve of
    the electrostatic constraint div E = -nu * closure."""
    return Field(closure.grid, e_t + solve_gauss_longitudinal(closure, nu))


def _project_gauss(state: PerturbationState, constants: PhysicalConstants, n_phys: np.ndarray) -> PerturbationState:
    """The state with its longitudinal electric part replaced by the
    constraint-consistent solve; ``n_phys`` holds the samples of state.n."""
    closure = closure_field(state.grid, n_phys, constants.gamma)
    return replace(state, E=_gauss_e(_transverse_project(state.E.coeffs, state.grid), closure, constants.nu))


_KINDS = ("decay_class", "bump", "single_mode")
# the plateau edge |k| of decay_class data: the first shell of the default box, L = 2 pi
_PLATEAU_EDGE = 1.0


def make_initial_data(
    kind: str,
    amplitude: float,
    seed: int,
    grid: GridSpec,
    constants: PhysicalConstants,
    s: float = 1.5,
    rolloff_width: float = 0.5,
    mode: tuple[int, int, int] = (1, 0, 0),
    bump_radius_fraction: float = 0.2,
    include_transverse_e: bool = False,
    normalization: str = "physical",
) -> PerturbationState:
    """Compatible initial data of the requested class.

    Kinds:
      * ``decay_class``: random phases under the envelope of
        linear.SpectralProfile.decay_class(s, plateau=1, rolloff=rolloff_width):
        |k|^(s-3/2) for |k| <= 1 with a Gaussian rolloff above; s = 3/2,
        flat below the edge, is the L1-like endpoint class.  The class acts
        only through modes with 0 < |k| < 1, so an s other than 3/2 on a box
        with none (L <= 2 pi) raises SOutOfRange before any draw.
      * ``bump``: compactly supported physical bump, the L^p class.
      * ``single_mode``: one Fourier mode, for exactness tests.

    Only ``decay_class`` reads s: the other kinds raise SOutOfRange for an s
    other than 3/2, on any box, rather than ignore it.

    Each kind builds only raw parts: the density samples, the velocity, the
    exactly transverse magnetic part and, with ``include_transverse_e``, a
    transverse electric part (else zero).  One tail puts them on the
    constraint manifold: the zero-mean closure shift of the density, the
    positivity check, and the longitudinal electric part from Gauss's law.

    For ``decay_class`` data, ``normalization="physical"`` scales each
    component to max-abs amplitude (solver experiments), while
    ``"continuum"`` scales coefficients like a fixed whole-space datum
    (n^3/L^3 per unit envelope), making the negative-order class norms stable
    under box refinement.

    Every argument is checked (InvalidArgument) before any work, including
    those the chosen kind does not read.
    """
    check(kind, lambda v: v in _KINDS, "kind", f"one of {list(_KINDS)}")
    check(amplitude, lambda v: is_real(v) and v >= 0, "amplitude", "a nonnegative number")
    check(seed, is_count, "seed", "a nonnegative integer")
    check_s(s)
    for name, value in (("rolloff_width", rolloff_width), ("bump_radius_fraction", bump_radius_fraction)):
        check(value, lambda v: is_real(v) and v > 0, name, "positive")
    check(mode, lambda m: len(m) == 3 and any(m)
          and all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in m),
          "mode", "three integers, not all zero")
    check(include_transverse_e, lambda v: isinstance(v, bool), "include_transverse_e", "true or false")
    check(normalization, lambda v: v in ("physical", "continuum"), "normalization", "'physical' or 'continuum'")
    if kind != "decay_class" and s != 1.5:
        raise SOutOfRange(f"s = {s!r} cannot act on {kind} data, which do not read the data class; use s = 1.5 "
                          "or kind decay_class")
    if kind == "decay_class" and s != 1.5 and grid.k_min >= _PLATEAU_EDGE:
        raise SOutOfRange(
            f"s = {s!r} cannot act on a box of length {grid.box_length:.6g} <= 2 pi: no mode lies below the "
            f"plateau edge |k| = {_PLATEAU_EDGE:g}, where the class sets the envelope; use s = 1.5 or a longer box"
        )
    if amplitude == 0.0:
        zero = Field.zeros(grid, vector=True)
        return PerturbationState(n=Field.zeros(grid), u=zero, E=zero, B=zero)
    rng = np.random.default_rng(seed)
    e_t = None

    if kind == "single_mode":
        x, y, z = grid.coordinates()
        kvec = 2.0 * math.pi / grid.box_length * np.asarray(mode, dtype=float)
        phase = kvec[0] * x + kvec[1] * y + kvec[2] * z
        n_phys = amplitude * np.cos(phase)
        # polarizations orthogonal to the mode for u and B
        khat = kvec / np.linalg.norm(kvec)
        e1, e2 = _direction_frame(khat)
        u_phys = amplitude * (e1[:, None, None, None] * np.cos(phase) + khat[:, None, None, None] * np.sin(phase))
        b_phys = amplitude * e2[:, None, None, None] * np.cos(phase)
        u0 = Field.from_physical(grid, u_phys)
        b_coeffs = _transverse_project(Field.from_physical(grid, b_phys).coeffs, grid)
    elif kind == "bump":
        x, y, z = grid.coordinates()
        L = grid.box_length
        R = bump_radius_fraction * L
        c = L / 2.0
        b = _unit_bump(((x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2) / R**2)
        n_phys = amplitude * b
        shifts = [np.roll(b, grid.n // 7 * (a + 1), axis=a) for a in range(3)]
        u0 = Field.from_physical(grid, amplitude * np.stack(shifts))
        braw = Field.from_physical(grid, amplitude * np.stack(shifts[::-1]))
        b_coeffs = _transverse_project(braw.coeffs, grid)
        if include_transverse_e:
            e_t = _transverse_project(
                Field.from_physical(grid, amplitude * np.stack([b, shifts[0], shifts[2]])).coeffs, grid
            )
    else:  # decay_class
        env = _decay_class_envelope(s, _PLATEAU_EDGE, rolloff_width)
        n_f = random_phase_field(grid, rng, env)
        u_f = random_phase_field(grid, rng, env, vector=True)
        # B, then E if loaded; freeing the raw draws early raised simulate's peak RSS by 6 MB at N=64
        raw = [random_phase_field(grid, rng, env, vector=True) for _ in range(2 if include_transverse_e else 1)]
        parts = [_transverse_project(f.coeffs, grid) for f in raw]
        if normalization == "continuum":
            coeff_scale = amplitude * grid.n**3 / grid.box_length**3
            n_phys = Field(grid, coeff_scale * n_f.coeffs).physical()
            u0 = Field(grid, coeff_scale * u_f.coeffs)
            parts = [coeff_scale * v for v in parts]
        else:
            n_phys = n_f.physical()
            n_phys *= _max_scale(n_phys, amplitude)
            u0 = Field(grid, u_f.coeffs * _max_scale(u_f.physical(), amplitude))
            parts = [v * _max_scale(Field(grid, v).physical(), amplitude) for v in parts]
        b_coeffs, e_t = parts[0], parts[1] if include_transverse_e else None

    n0 = Field.from_physical(grid, _shift_to_zero_closure_mean(n_phys, constants.gamma))
    n_phys = n0.physical()  # the samples of n0, for the positivity check and the Gauss solve
    margin = float(np.min(1.0 + constants.mu * n_phys))
    if margin <= 0:
        raise AmplitudeTooLarge(
            f"amplitude {amplitude} drives 1 + mu*n to {margin:.3e}"
        )
    e_t = np.zeros_like(b_coeffs) if e_t is None else e_t
    e = _gauss_e(e_t, closure_field(grid, n_phys, constants.gamma), constants.nu)
    return PerturbationState(n=n0, u=u0, E=e, B=Field(grid, b_coeffs))


@dataclass(frozen=True)
class CompatibilityReport:
    gauss_residual: float
    divb_residual: float
    positivity_margin: float


def verify_compatibility(
    state: PerturbationState, constants: PhysicalConstants, n_phys: np.ndarray | None = None
) -> CompatibilityReport:
    """Residuals of the electrostatic and solenoidal constraints, plus positivity.

    The electrostatic functional is evaluated on the resolved band (Nyquist
    planes excluded): the closure is computed pointwise, so it carries Nyquist
    content that no real longitudinal field can match.  ``n_phys``, the
    samples of state.n, spares a transform to a caller that holds them.
    """
    if n_phys is None:
        n_phys = state.n.physical()
    closure = resolved_part(closure_field(state.grid, n_phys, constants.gamma))
    gauss = l2_norm(divergence(state.E) + constants.nu * closure)
    divb = l2_norm(divergence(state.B))
    margin = float(np.min(1.0 + constants.mu * n_phys))
    return CompatibilityReport(gauss, divb, margin)

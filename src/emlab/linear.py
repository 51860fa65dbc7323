"""Exact analysis of the linearized system: per-mode evolution and decay fits.

For each wavenumber xi the linearized equations close into a 10x10 constant
system on S = (n, u, E, B).  Weighted norms over continuous xi (no box
truncation) are computed by radial Gauss-Legendre quadrature times a
spherical rule; with zero background magnetic field the flow is rotation
equivariant, so a single direction per radius suffices and the angular
integral is analytic.

The quadrature runs in blocks of _MODE_BLOCK (radius, direction) modes.  A
block assembles its generators and initial vectors as stacks (the direction
frames are built once per pass), diagonalizes them with one stacked
eig / cond / solve, and forms vec . exp(lambda t) . c at every time.  Each
monitored quantity is a sum of squared moduli of linear functionals of the
mode state (QUANTITIES): state components by index, plus the xi-dependent
row i xi . u of n_divu.  One einsum reduces every functional at every time
over the block's modes.  Blocks are generated from mode indices, so peak
memory does not grow with the quadrature.  mode_matrix, initial_mode_vector
and the direction frame are the one-mode case of the same builders.

No fallback is silent.  A mode whose eigenvector condition number exceeds
COND_LIMIT is propagated by a dense expm instead; a block whose stacked
decomposition raises LinAlgError is retried one mode at a time.  The number
of modes, of expm fallbacks and the worst eigenvector condition number seen
are carried in each NormSeries' metadata.  evolve_mode is the one-mode
reference for all of this, and the tests compare the batched quadrature
against it.

Structure worth knowing before reading fits: on the constraint manifold the
longitudinal (acoustic/electrostatic) sector is uniformly exponentially
damped, while the transverse electromagnetic sector carries a slow branch
with decay rate ~ nu |xi|^2 at low frequency and ~ nu/|xi|^2 at high
frequency (the regularity-loss signature).  All algebraic decay therefore
comes from the transverse sector, and density-type norms collapse
exponentially under this linear flow.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from . import analysis
from .analysis import DecayFit, NormSeries, theoretical_exponent
from .errors import IllConditioned, QuadratureNotConverged, RequiresBInftyZero
from .model import PhysicalConstants

__all__ = [
    "ModeSystem",
    "mode_matrix",
    "evolve_mode",
    "SpectralProfile",
    "QuadratureSpec",
    "weighted_norm_series",
    "decay_report",
    "DecayReportRow",
    "QUANTITIES",
    "COND_LIMIT",
]

# eigenvector condition number above which a mode is propagated by expm
COND_LIMIT = 1e8

# modes per stacked decomposition; the (block, 10, times) intermediates stay
# a few hundred kB, so larger blocks buy little and raise peak memory
_MODE_BLOCK = 16


def _cross_matrix(a) -> np.ndarray:
    """Matrix of v -> a x v for a vector or a stack of vectors (..., 3)."""
    a = np.asarray(a, dtype=float)
    m = np.zeros(a.shape[:-1] + (3, 3), dtype=complex)
    m[..., 0, 1], m[..., 0, 2] = -a[..., 2], a[..., 1]
    m[..., 1, 0], m[..., 1, 2] = a[..., 2], -a[..., 0]
    m[..., 2, 0], m[..., 2, 1] = -a[..., 1], a[..., 0]
    return m


@dataclass(frozen=True)
class ModeSystem:
    """The 10x10 constant-coefficient system at one wavenumber."""

    xi: np.ndarray
    matrix: np.ndarray
    constants: PhysicalConstants

    def eigensystem(self):
        if "_eig" not in self.__dict__:
            lam, vec = np.linalg.eig(self.matrix)
            cond = np.linalg.cond(vec)
            object.__setattr__(self, "_eig", (lam, vec, cond))
        return self.__dict__["_eig"]


def _mode_matrices(xi, constants: PhysicalConstants) -> np.ndarray:
    """The linearized generators at a wavenumber or a stack of them (..., 3),
    shape (..., 10, 10); see mode_matrix."""
    xi = np.asarray(xi, dtype=float)
    nu = constants.nu
    eye = np.eye(3)
    A = np.zeros(xi.shape[:-1] + (10, 10), dtype=complex)
    A[..., 0, 1:4] = -1j * xi
    A[..., 1:4, 0] = -1j * xi
    A[..., 1:4, 1:4] = -nu * eye + _cross_matrix(constants.b_infty_vector())
    A[..., 1:4, 4:7] = -nu * eye
    A[..., 4:7, 1:4] = nu * eye
    A[..., 4:7, 7:10] = 1j * nu * _cross_matrix(xi)
    A[..., 7:10, 4:7] = -1j * nu * _cross_matrix(xi)
    return A


def mode_matrix(xi, constants: PhysicalConstants) -> ModeSystem:
    """Assemble the linearized generator at wavenumber xi.

    Rows follow S = (n, u, E, B): the density couples to div u, the velocity
    relaxes and feels the pressure gradient, the background rotation and the
    electric field, and the fields close the Maxwell block through curls.
    Only the three velocity diagonal entries are nonzero on the diagonal, so
    trace(A) = -3*nu identically.
    """
    xi = np.asarray(xi, dtype=float)
    return ModeSystem(xi=xi, matrix=_mode_matrices(xi, constants), constants=constants)


def evolve_mode(mode: ModeSystem, t: float, s0: np.ndarray) -> np.ndarray:
    """exp(t A) s0, by eigendecomposition with a dense fallback."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    s0 = np.asarray(s0, dtype=complex)
    try:
        lam, vec, cond = mode.eigensystem()
        if cond > COND_LIMIT:
            raise IllConditioned("fallback")
        c = np.linalg.solve(vec, s0)
        return vec @ (np.exp(lam * t) * c)
    except (IllConditioned, np.linalg.LinAlgError):
        return scipy.linalg.expm(mode.matrix * t) @ s0


@dataclass
class _PropagationCounts:
    """What the propagation did; the quadrature adds to it once per block."""

    modes: int = 0
    expm_fallbacks: int = 0
    max_eig_cond: float = 0.0

    def add(self, modes: int, fallbacks: int, max_cond: float) -> None:
        self.modes += modes
        self.expm_fallbacks += fallbacks
        self.max_eig_cond = max(self.max_eig_cond, max_cond)


def _expm_states(A: np.ndarray, s0: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.stack([scipy.linalg.expm(A * t) @ s0 for t in times], axis=1)


def _propagate(
    A: np.ndarray, s0: np.ndarray, times: np.ndarray, counts: _PropagationCounts
) -> np.ndarray:
    """States exp(t A_m) s0_m of a stack of modes at every time: (M, 10, T).

    One stacked eig / cond / solve for the whole stack; ill-conditioned modes
    take expm, and a stack whose decomposition fails is retried per mode.
    """
    try:
        lam, vec = np.linalg.eig(A)
        cond = np.linalg.cond(vec)
        good = ~(cond > COND_LIMIT)
        c = np.linalg.solve(vec[good], s0[good, :, None])
    except np.linalg.LinAlgError:
        if len(A) > 1:
            return np.concatenate(
                [_propagate(A[i : i + 1], s0[i : i + 1], times, counts) for i in range(len(A))]
            )
        counts.add(1, 1, 0.0)  # no condition number without a decomposition
        return _expm_states(A[0], s0[0], times)[None]
    states = np.zeros((len(A), 10, len(times)), dtype=complex)
    states[good] = vec[good] @ (np.exp(lam[good, :, None] * times) * c)
    bad = np.flatnonzero(~good)
    for i in bad:
        states[i] = _expm_states(A[i], s0[i], times)
    counts.add(len(A), len(bad), float(cond.max()))
    return states


# -- initial profiles ---------------------------------------------------------------


@dataclass(frozen=True)
class SpectralProfile:
    """Radial amplitude profile and component loading for per-mode data.

    ``envelope`` gives the coefficient modulus per included component as a
    function of |xi|.  The longitudinal electric part is always solved from
    the electrostatic constraint (zero when the density is not loaded) and
    the magnetic part is loaded transverse, so the data sit on the
    constraint manifold exactly.
    """

    envelope: Callable[[np.ndarray], np.ndarray]
    include_n: bool = False
    include_u: bool = True
    include_e: bool = True
    include_b: bool = True
    shell_radius: float | None = None
    label: str = "profile"

    @staticmethod
    def decay_class(
        s: float, plateau: float = 0.3, rolloff: float = 0.1, **kwargs
    ) -> "SpectralProfile":
        """Borderline envelope of the negative-index-s class: |xi|^(s-3/2)
        below the plateau edge, Gaussian rolloff above it.

        The plateau edge sits well inside the weakly damped band so that the
        default fit window is transient-clean; see the module docstring.
        """
        a = s - 1.5

        def env(r):
            r = np.asarray(r, dtype=float)
            ramp = np.where(r <= plateau, 1.0, np.exp(-(((r - plateau) / rolloff) ** 2)))
            with np.errstate(divide="ignore"):
                core = np.where(r > 0, np.minimum(1.0, r / plateau) ** a, 0.0)
            return core * ramp

        return SpectralProfile(envelope=env, label=f"decay_class(s={s})", **kwargs)

    @staticmethod
    def flat_low(**kwargs) -> "SpectralProfile":
        """Flat low-frequency profile: the endpoint (L1-like) class."""
        p = SpectralProfile.decay_class(1.5, **kwargs)
        return replace(p, label="flat_low")

    @staticmethod
    def single_shell(radius: float, **kwargs) -> "SpectralProfile":
        """Dirac shell at one radius; quadrature collapses to a point."""
        return SpectralProfile(
            envelope=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            shell_radius=radius,
            label=f"shell(r={radius})",
            **kwargs,
        )


def _direction_frame(omega) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (e1, e2) completing a direction, or each of a stack of
    directions (..., 3), to an orthonormal frame."""
    omega = np.asarray(omega, dtype=float)
    trial = np.where(np.abs(omega[..., 2:]) < 0.9, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = np.cross(omega, trial)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(omega, e1)
    return e1, e2


def _initial_vectors(
    profile: SpectralProfile, r: np.ndarray, omega: np.ndarray, e1: np.ndarray, e2: np.ndarray, nu: float
) -> np.ndarray:
    """Constraint-consistent 10-vectors at xi = r * omega for a stack of
    radii (M,) and directions (M, 3) with their frames: shape (M, 10)."""
    g = profile.envelope(r)[:, None]
    s = np.zeros((len(r), 10), dtype=complex)
    if profile.include_n:
        s[:, 0] = g[:, 0]
    if profile.include_u:
        s[:, 1:4] = g * (omega + e1 + e2) / math.sqrt(3.0)
    if profile.include_e:
        s[:, 4:7] = g * (e1 + e2) / math.sqrt(2.0)
    if profile.include_n:
        # electrostatic constraint: i xi . E = -nu n
        pos = r > 0
        s[pos, 4:7] += (1j * nu * s[pos, 0] / r[pos])[:, None] * omega[pos]
    if profile.include_b:
        s[:, 7:10] = g * (e1 + e2) / math.sqrt(2.0)
    return s


def initial_mode_vector(profile: SpectralProfile, r: float, omega: np.ndarray, nu: float) -> np.ndarray:
    """Constraint-consistent 10-vector at xi = r * omega."""
    omega = np.asarray(omega, dtype=float)[None]
    return _initial_vectors(profile, np.array([r], dtype=float), omega, *_direction_frame(omega), nu)[0]


# -- output functionals ----------------------------------------------------------

# the functional i xi . u, the one row that depends on the wavenumber
DIV_U = "div_u"

# each quantity is the sum of |l . S|^2 over its functional rows l: a state
# index (S = (n, u, E, B)), or DIV_U
QUANTITIES: dict[str, tuple] = {
    "full_state": tuple(range(10)),
    "nuE": tuple(range(7)),
    "uE": tuple(range(1, 7)),
    "n_only": (0,),
    "B_only": (7, 8, 9),
    "n_divu": (0, DIV_U),
}


def _functional_rows(rows: Sequence, xi: np.ndarray) -> np.ndarray:
    """The functional rows at each wavenumber of a stack xi (M, 3): (M, R, 10)."""
    out = np.zeros((len(xi), len(rows), 10), dtype=complex)
    for j, row in enumerate(rows):
        if row == DIV_U:
            out[:, j, 1:4] = 1j * xi
        else:
            out[:, j, row] = 1.0
    return out


# fit targets: B decays no faster than the basic rate (regularity loss), and
# uE shares the nuE improvement
_TARGET_QUANTITY = {
    "full_state": "full_state",
    "nuE": "nuE",
    "uE": "nuE",
    "n_only": "n_only",
    "B_only": "full_state",
    "n_divu": "n_divu",
}


@dataclass(frozen=True)
class QuadratureSpec:
    radial_nodes: int = 800
    xi_max: float | None = None  # None: from the envelope tail
    n_theta: int = 32
    n_phi: int = 64
    check_convergence: bool = True
    convergence_tol: float = 5e-3


def _auto_xi_max(profile: SpectralProfile, k: int) -> float:
    r = np.linspace(1e-6, 16.0, 16000)
    dens = profile.envelope(r) ** 2 * r ** (2 * k + 2)
    cum = np.cumsum(dens)
    total = cum[-1]
    if total == 0:
        return 2.0
    idx = int(np.searchsorted(cum, (1.0 - 1e-9) * total))
    return max(1.0, float(r[min(idx, len(r) - 1)]) * 1.25)


def _sphere_directions(constants: PhysicalConstants, quad: QuadratureSpec):
    """(directions, weights) with weights summing to 4*pi."""
    if constants.b_infty_is_zero:
        return np.array([[0.0, 0.0, 1.0]]), np.array([4.0 * math.pi])
    ct, wt = np.polynomial.legendre.leggauss(quad.n_theta)
    phis = 2.0 * math.pi * np.arange(quad.n_phi) / quad.n_phi
    wphi = 2.0 * math.pi / quad.n_phi
    dirs = []
    ws = []
    st = np.sqrt(1.0 - ct**2)
    for c, s_t, w in zip(ct, st, wt):
        for p in phis:
            dirs.append([s_t * math.cos(p), s_t * math.sin(p), c])
            ws.append(w * wphi)
    return np.asarray(dirs), np.asarray(ws)


@functools.lru_cache(maxsize=2)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre rule on [-1, 1].  leggauss costs O(n^3); a
    report needs the same coarse and refined rule for every k."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _norm_series_values(
    profile: SpectralProfile,
    k: int,
    quantities: Sequence[str],
    times: np.ndarray,
    constants: PhysicalConstants,
    radial_nodes: int,
    xi_max: float,
    quad: QuadratureSpec,
    counts: _PropagationCounts,
) -> dict[str, np.ndarray]:
    dirs, dir_ws = _sphere_directions(constants, quad)
    e1, e2 = _direction_frame(dirs)
    if profile.shell_radius is not None:
        radii = np.array([profile.shell_radius])
    else:
        x, wq = _gauss_legendre(radial_nodes)
        radii = (x + 1.0) / 2.0 * xi_max
        radial_ws = wq * xi_max / 2.0
    rows = list(dict.fromkeys(row for q in quantities for row in QUANTITIES[q]))
    acc = np.zeros((len(rows), len(times)))
    n_modes = len(radii) * len(dirs)
    for lo in range(0, n_modes, _MODE_BLOCK):
        # modes run radius-major over the (radius, direction) pairs
        i, j = np.divmod(np.arange(lo, min(lo + _MODE_BLOCK, n_modes)), len(dirs))
        r, omega = radii[i], dirs[j]
        if profile.shell_radius is not None:
            # collapse: report the per-shell amplitude, averaged over directions
            w = r ** (2 * k) * dir_ws[j] / (4.0 * math.pi)
        else:
            w = radial_ws[i] * dir_ws[j] * r ** (2 * k + 2)
        xi = r[:, None] * omega
        states = _propagate(
            _mode_matrices(xi, constants),
            _initial_vectors(profile, r, omega, e1[j], e2[j], constants.nu),
            times,
            counts,
        )
        values = _functional_rows(rows, xi) @ states
        acc += np.einsum("m,mrt->rt", w, np.abs(values) ** 2)
    return {
        q: np.sqrt(acc[[rows.index(row) for row in QUANTITIES[q]]].sum(axis=0)) for q in quantities
    }


def weighted_norm_series(
    profile: SpectralProfile,
    k: int,
    quantity: str,
    times: Sequence[float],
    constants: PhysicalConstants,
    quad: QuadratureSpec = QuadratureSpec(),
) -> NormSeries:
    """Time series of the order-k weighted norm of one monitored quantity.

    Computes (integral over xi of |xi|^2k |mask . exp(tA) S0|^2)^(1/2) with
    constraint-consistent initialization.  Raises QuadratureNotConverged when
    doubling the radial nodes moves any reported value by more than the
    configured tolerance.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; known: {sorted(QUANTITIES)}")
    series = multi_norm_series(profile, k, [quantity], times, constants, quad)
    return series[quantity]


def multi_norm_series(
    profile: SpectralProfile,
    k: int,
    quantities: Sequence[str],
    times: Sequence[float],
    constants: PhysicalConstants,
    quad: QuadratureSpec = QuadratureSpec(),
) -> dict[str, NormSeries]:
    """Like weighted_norm_series for several quantities over one quadrature pass.

    Every series carries the same metadata, including what the propagation
    did over both passes: ``modes`` propagated, ``expm_fallbacks`` taken and
    the worst eigenvector condition number ``max_eig_cond``.
    """
    times = np.asarray(sorted(times), dtype=float)
    xi_max = quad.xi_max if quad.xi_max is not None else _auto_xi_max(profile, k)
    # full_state rides along to set the roundoff floor of the propagation
    wanted = list(quantities)
    computed = wanted if "full_state" in wanted else wanted + ["full_state"]
    counts = _PropagationCounts()
    values = _norm_series_values(
        profile, k, computed, times, constants, quad.radial_nodes, xi_max, quad, counts
    )
    meta = {
        "profile": profile.label,
        "k": k,
        "radial_nodes": quad.radial_nodes,
        "xi_max": xi_max,
        "angular": "rotational-reduction" if constants.b_infty_is_zero else f"{quad.n_theta}x{quad.n_phi}",
    }
    if quad.check_convergence and profile.shell_radius is None:
        refined = _norm_series_values(
            profile, k, computed, times, constants, 2 * quad.radial_nodes, xi_max, quad, counts
        )
        # eigen-roundoff noise scales with the total state amplitude, so
        # values far below it carry no convergent signal
        floor = 1e-12 * refined["full_state"]
        worst = 0.0
        for q in computed:
            coarse, fine = values[q], refined[q]
            checked = np.abs(coarse - fine) / np.maximum(np.abs(fine), 1e-300)
            checked[fine < floor] = 0.0
            rel = float(np.max(checked))
            if rel > quad.convergence_tol:
                raise QuadratureNotConverged(
                    f"{q}: doubling radial nodes moved values by {rel:.2%}"
                )
            worst = max(worst, rel)
            values[q] = fine
        meta["radial_nodes"] = 2 * quad.radial_nodes
        meta["convergence_rel_change"] = worst
    meta["roundoff_floor"] = float(1e-12 * values["full_state"].max())
    meta.update(asdict(counts))
    return {
        q: NormSeries(label=q, times=times, values=values[q], metadata=dict(meta))
        for q in wanted
    }


@dataclass(frozen=True)
class DecayReportRow:
    quantity: str
    k: int
    s: float
    fit: DecayFit
    target: float
    min_regularity: int

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "k": self.k,
            "s": self.s,
            "fitted_slope": self.fit.slope,
            "target": self.target,
            "r_squared": self.fit.r_squared,
            "verdict": self.fit.verdict,
            "floor_contaminated": self.fit.floor_contaminated,
            "window": list(self.fit.window),
            "min_regularity": self.min_regularity,
        }


def decay_report(
    constants: PhysicalConstants,
    s: float | None = None,
    p: float | None = None,
    k_list: Sequence[int] = (0, 1),
    quantities: Sequence[str] | None = None,
    window: tuple[float, float] = (20.0, 500.0),
    num_times: int = 32,
    quad: QuadratureSpec = QuadratureSpec(),
    profile: SpectralProfile | None = None,
    tolerance: float = 0.08,
    metrics: dict | None = None,
) -> list[DecayReportRow]:
    """Fitted decay exponents of the linearized flow against their targets.

    The data class is given by the negative index s in (0, 3/2] or by a
    Lebesgue exponent p (mapped through the standard index relation).  By
    default all quantities are fitted, n_divu only with a zero background
    field; requesting n_divu explicitly with a nonzero background raises.
    Samples within 100x of the propagation's roundoff floor mark a fit
    ``floor_contaminated`` and fail its verdict.

    When a ``metrics`` dict is given it is filled with the totals over all k:
    the propagation counts of multi_norm_series, and the wall time spent in
    the quadrature (``quadrature_s``) and in the fits (``fit_s``).
    """
    if (s is None) == (p is None):
        raise ValueError("give exactly one of s or p")
    if p is not None:
        s = analysis.s_of_p(p)
    if quantities is None:
        quantities = ["full_state", "nuE", "n_only", "B_only"]
        if constants.b_infty_is_zero:
            quantities.append("n_divu")
    elif "n_divu" in quantities and not constants.b_infty_is_zero:
        raise RequiresBInftyZero("n_divu requires a zero background magnetic field")
    prof = profile or SpectralProfile.decay_class(s)
    times = np.geomspace(window[0], window[1], num_times)
    rows: list[DecayReportRow] = []
    counts = _PropagationCounts()
    quadrature_s = fit_s = 0.0
    for k in k_list:
        kept = list(quantities)
        start = time.perf_counter()
        series = multi_norm_series(prof, k, kept, times, constants, quad)
        quadrature_s += time.perf_counter() - start
        if series:
            meta = next(iter(series.values())).metadata
            counts.add(meta["modes"], meta["expm_fallbacks"], meta["max_eig_cond"])
        for q in kept:
            target_info = theoretical_exponent(
                _TARGET_QUANTITY[q], k, s, b_infty_zero=constants.b_infty_is_zero
            )
            start = time.perf_counter()
            fit = analysis.fit_decay(
                series[q],
                window=window,
                target=target_info.exponent,
                tol=tolerance,
                floor=series[q].metadata["roundoff_floor"],
            )
            fit_s += time.perf_counter() - start
            rows.append(
                DecayReportRow(
                    quantity=q,
                    k=k,
                    s=s,
                    fit=fit,
                    target=target_info.exponent,
                    min_regularity=target_info.min_regularity,
                )
            )
    if metrics is not None:
        metrics.update(asdict(counts), quadrature_s=quadrature_s, fit_s=fit_s)
    return rows

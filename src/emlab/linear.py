"""Exact analysis of the linearized system: quadrature of the per-mode flow and decay fits.

For each wavenumber xi the linearized equations close into a 10x10 constant
system on S = (n, u, E, B), A(xi) = A0 + i sum_a xi_a A1[a] with the tables
of model.linear_generator (the solver's linear part reads the same tables).
Weighted norms over continuous xi (no box truncation) are computed by radial
Gauss-Legendre quadrature times an angular rule.  The flow commutes with
rotations about the background field B_inf and the monitored quantities are
invariant under them, so for data polarized in a frame that turns with them
(model._direction_frame about the B_inf axis) the azimuthal integral is 2 pi
times one azimuth: the rule is one direction per Gauss-Legendre polar node
about the axis.  With B_inf = 0 one direction per radius suffices.
QuadratureSpec.n_phi, the azimuthal node count that configs set, is still
accepted and checked, but not read.

The radial and polar rules are one Gauss-Legendre rule, spectral's
_gauss_legendre, which also serves the Littlewood-Paley cutoff: Newton on the
three-term Legendre recurrence from Tricomi's initial guesses, O(n^2) time
and O(n) memory, where a companion-matrix eigensolve would take O(n^3) and an
n x n matrix.  It integrates every polynomial of degree up to 2n - 1 to
roundoff.

The eigensolves are real.  With D = diag(1, i I6, I3), D A(xi) D^-1 is real:
the u-E block of A0 is real, the n-u and E-B couplings of i A1 imaginary.
This is checked once per set of constants on the tables (NotRealForm, never
a silent real part), and the quadrature propagates D S0 under the real form.
As |D_jj| = 1, component moduli and the 1-norm eigenvector condition number
are unchanged, and the functional i xi . u reads xi . (D S)_u.

The quadrature runs in blocks of _MODE_BLOCK (radius, direction) modes.  A
block assembles its generators and initial vectors as stacks (the direction
frames are built once per pass), diagonalizes them with one stacked eig and
one stacked inverse of the eigenvectors, and forms vec . exp(lambda t) . c
at every time, with c = vec^-1 D s0.  Each monitored quantity is a sum of
squared moduli of linear functionals of the mode state (QUANTITIES): state
components by index, plus the xi-dependent row i xi . u of n_divu.  One
pass (and one convergence re-run) serves every k of a report: only the
weight |xi|^(2k+2) depends on k, so a block forms the squared moduli once
and one einsum per k reduces every functional at every time over the
block's modes.  Blocks are generated from mode indices, so peak memory does
not grow with the quadrature.

No fallback is silent.  A mode whose eigenvector condition number (in the
1-norm, ||vec||_1 ||vec^-1||_1, which the inverse gives for free) exceeds
COND_LIMIT is propagated by a dense expm instead; scipy.linalg, which
provides it, is imported on the first fallback, not with this module.  A
block whose stacked decomposition raises LinAlgError is retried one mode at
a time.  The number of modes, of expm fallbacks and the worst eigenvector
condition number seen (max_eig_cond, in the 1-norm) are carried in each
NormSeries' metadata.  The tests compare the batched quadrature against a
plain sum over modes, written in the test module, of one mode at a time over
the full (theta, phi) product rule.

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
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import analysis
from .analysis import DecayFit, NormSeries, check_s, theoretical_exponent
from .errors import (
    NotRealForm, QuadratureNotConverged, RequiresBInftyZero, check, is_count, is_real
)
from .model import PhysicalConstants, _decay_class_envelope, _direction_frame, linear_generator
from .spectral import _gauss_legendre

__all__ = [
    "SpectralProfile",
    "QuadratureSpec",
    "multi_norm_series",
    "decay_report",
    "DecayReportRow",
    "QUANTITIES",
    "COND_LIMIT",
    "CONVERGENCE_TOL",
]

# eigenvector condition number above which a mode is propagated by expm
COND_LIMIT = 1e8
# largest relative change that doubling the radial nodes may make to a value
CONVERGENCE_TOL = 5e-3

# modes per stacked decomposition; the (block, 10, times) intermediates stay
# a few hundred kB, so larger blocks buy little and raise peak memory
_MODE_BLOCK = 16


# D = diag(1, i I6, I3) on S = (n, u, E, B): D A(xi) D^-1 is real
_D = np.array([1.0] + [1j] * 6 + [1.0] * 3)


def _real_tables(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D A0 D^-1 and D (i A1) D^-1 for generator tables (A0, A1), which must be real."""
    r0, r1 = (_D[:, None] * table / _D for table in (a0, 1j * np.asarray(a1)))
    if np.any(r0.imag) or np.any(r1.imag):
        raise NotRealForm("D A(xi) D^-1 has an imaginary part; the real eigensolves do not apply")
    return r0.real, r1.real


@functools.lru_cache(maxsize=4)
def _real_generator(constants: PhysicalConstants) -> tuple[np.ndarray, np.ndarray]:
    return _real_tables(*linear_generator(constants))


def _mode_matrices(xi, constants: PhysicalConstants, real: bool = False) -> np.ndarray:
    """The linearized generators A(xi) = A0 + i sum_a xi_a A1[a] at a
    wavenumber or a stack of them (..., 3): shape (..., 10, 10).  With
    ``real``, their real form D A(xi) D^-1."""
    xi = np.asarray(xi, dtype=float)
    a0, a1 = _real_generator(constants) if real else linear_generator(constants)
    terms = (xi @ a1.reshape(3, 100)).reshape(xi.shape[:-1] + (10, 10))
    return a0 + terms if real else a0 + 1j * terms


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
    """exp(t A) s0 at every time by dense expm.  scipy.linalg is imported
    here, so only a run that takes the fallback pays for loading it."""
    import scipy.linalg

    return np.stack([scipy.linalg.expm(A * t) @ s0 for t in times], axis=1)


def _norm1(a: np.ndarray) -> np.ndarray:
    """Matrix 1-norm (largest column sum of moduli) of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _propagate(
    A: np.ndarray, s0: np.ndarray, times: np.ndarray, counts: _PropagationCounts
) -> np.ndarray:
    """States exp(t A_m) s0_m of a stack of modes at every time: (M, 10, T).
    The quadrature passes real forms D A D^-1 with D s0, so eig runs real.

    One stacked eig and one stacked inverse of the eigenvector matrices for
    the whole stack.  The inverse gives both the coefficients V^-1 s0 and the
    1-norm condition number ||V||_1 ||V^-1||_1; ill-conditioned modes take
    expm, and a stack whose decomposition fails is retried per mode.
    """
    try:
        lam, vec = np.linalg.eig(A)
        inv = np.linalg.inv(vec)
    except np.linalg.LinAlgError:
        if len(A) > 1:
            return np.concatenate(
                [_propagate(A[i : i + 1], s0[i : i + 1], times, counts) for i in range(len(A))]
            )
        counts.add(1, 1, 0.0)  # no condition number without a decomposition
        return _expm_states(A[0], s0[0], times)[None]
    cond = _norm1(vec) * _norm1(inv)
    good = ~(cond > COND_LIMIT)
    c = inv[good] @ s0[good, :, None]
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

    ``envelope`` gives the coefficient modulus per loaded component as a
    function of |xi|: u, E and B always, n when ``include_n``.  The longitudinal electric part is always solved from
    the electrostatic constraint (zero when the density is not loaded) and
    the magnetic part is loaded transverse, so the data sit on the
    constraint manifold exactly.
    """

    envelope: Callable[[np.ndarray], np.ndarray]
    include_n: bool = False
    label: str = "profile"

    @staticmethod
    def decay_class(
        s: float, plateau: float = 0.3, rolloff: float = 0.1, **kwargs
    ) -> "SpectralProfile":
        """Borderline envelope of the negative-index-s class: |xi|^(s-3/2)
        below the plateau edge, Gaussian rolloff above it.

        The plateau edge sits well inside the weakly damped band so that the
        default fit window is transient-clean; see the module docstring.
        ``simulate`` draws the same envelope with plateau 1 (model's
        ``decay_class`` initial data), with random phases on the lattice.
        """
        env = _decay_class_envelope(s, plateau, rolloff)
        return SpectralProfile(envelope=env, label=f"decay_class(s={s})", **kwargs)

def _initial_vectors(
    profile: SpectralProfile, r: np.ndarray, omega: np.ndarray, e1: np.ndarray, e2: np.ndarray, nu: float
) -> np.ndarray:
    """Constraint-consistent 10-vectors at xi = r * omega for a stack of
    radii (M,) and directions (M, 3) with their frames: shape (M, 10)."""
    g = profile.envelope(r)[:, None]
    s = np.zeros((len(r), 10), dtype=complex)
    if profile.include_n:
        s[:, 0] = g[:, 0]
    s[:, 1:4] = g * (omega + e1 + e2) / math.sqrt(3.0)
    s[:, 4:7] = g * (e1 + e2) / math.sqrt(2.0)
    if profile.include_n:
        # electrostatic constraint: i xi . E = -nu n
        pos = r > 0
        s[pos, 4:7] += (1j * nu * s[pos, 0] / r[pos])[:, None] * omega[pos]
    s[:, 7:10] = g * (e1 + e2) / math.sqrt(2.0)
    return s


# -- output functionals ----------------------------------------------------------

# the functional i xi . u, the one row that depends on the wavenumber; on the
# real-form state D S it reads xi . (D S)_u
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
    """The functional rows, acting on the real-form state D S, at each
    wavenumber of a stack xi (M, 3): (M, R, 10)."""
    out = np.zeros((len(xi), len(rows), 10))
    for j, row in enumerate(rows):
        if row == DIV_U:
            out[:, j, 1:4] = xi
        else:
            out[:, j, row] = 1.0
    return out


@dataclass(frozen=True)
class QuadratureSpec:
    """The xi quadrature: ``radial_nodes`` Gauss-Legendre radii on [0, xi_max]
    (None: from the envelope tail) and, when B_inf != 0, one direction at each
    of ``n_theta`` Gauss-Legendre polar nodes about the B_inf axis.  ``n_phi``
    is checked but not read: the azimuthal integral is exact by axisymmetry.
    ``check_convergence`` repeats the pass with twice the radial nodes."""

    radial_nodes: int = 800
    xi_max: float | None = None
    n_theta: int = 32
    n_phi: int = 64
    check_convergence: bool = True

    def __post_init__(self):
        for name in ("radial_nodes", "n_theta", "n_phi"):
            check(getattr(self, name), lambda v: is_count(v, 1), name, "a positive integer")
        check(self.xi_max, lambda v: v is None or (is_real(v) and v > 0), "xi_max", "null or positive")
        check(self.check_convergence, lambda v: isinstance(v, bool), "check_convergence", "true or false")


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
    """(directions, weights summing to 4*pi, frame axis).  With B_inf != 0,
    one direction cos(theta) axis + sin(theta) normal per Gauss-Legendre node
    cos(theta), of weight 2 pi w_theta, about the unit axis of B_inf; the
    normal is e1 of the axis' own frame."""
    axis = np.array([0.0, 0.0, 1.0])
    if constants.b_infty_is_zero:
        return axis[None], np.array([4.0 * math.pi]), axis
    axis = np.asarray(constants.b_infty) / np.linalg.norm(constants.b_infty)
    normal, _ = _direction_frame(axis)
    ct, wt = _gauss_legendre(quad.n_theta)
    dirs = ct[:, None] * axis + np.sqrt(1.0 - ct**2)[:, None] * normal
    return dirs, 2.0 * math.pi * wt, axis


def _norm_series_values(
    profile: SpectralProfile,
    ks: Sequence[int],
    quantities: Sequence[str],
    times: np.ndarray,
    constants: PhysicalConstants,
    radial_nodes: int,
    xi_max: float,
    quad: QuadratureSpec,
    counts: _PropagationCounts,
) -> dict[int, dict[str, np.ndarray]]:
    """One quadrature pass on [0, xi_max] for every order k of ``ks``: the
    modes are propagated once and only the weight |xi|^(2k+2) is per k."""
    dirs, dir_ws, axis = _sphere_directions(constants, quad)
    e1, e2 = _direction_frame(dirs, axis)
    x, wq = _gauss_legendre(radial_nodes)
    radii = (x + 1.0) / 2.0 * xi_max
    radial_ws = wq * xi_max / 2.0
    rows = list(dict.fromkeys(row for q in quantities for row in QUANTITIES[q]))
    acc = np.zeros((len(ks), len(rows), len(times)))
    n_modes = len(radii) * len(dirs)
    for lo in range(0, n_modes, _MODE_BLOCK):
        # modes run radius-major over the (radius, direction) pairs
        i, j = np.divmod(np.arange(lo, min(lo + _MODE_BLOCK, n_modes)), len(dirs))
        r, omega = radii[i], dirs[j]
        w = radial_ws[i] * dir_ws[j]
        xi = r[:, None] * omega
        states = _propagate(
            _mode_matrices(xi, constants, real=True),
            _D * _initial_vectors(profile, r, omega, e1[j], e2[j], constants.nu),
            times,
            counts,
        )
        power = np.abs(_functional_rows(rows, xi) @ states) ** 2
        for acc_k, k in zip(acc, ks):
            acc_k += np.einsum("m,mrt->rt", w * r ** (2 * k + 2), power)
    return {
        k: {q: np.sqrt(acc_k[[rows.index(row) for row in QUANTITIES[q]]].sum(axis=0)) for q in quantities}
        for acc_k, k in zip(acc, ks)
    }


def _series_by_k(
    profile: SpectralProfile,
    ks: Sequence[int],
    quantities: Sequence[str],
    times: Sequence[float],
    constants: PhysicalConstants,
    quad: QuadratureSpec,
) -> tuple[dict[int, dict[str, NormSeries]], _PropagationCounts]:
    """multi_norm_series for every order k of ``ks`` (distinct) from one pass
    and one convergence re-run, with the counts of both, which every series
    also carries.  Unless ``quad.xi_max`` is set, the rule reaches the
    largest k's auto xi_max: the weight |xi|^(2k+2) only moves the tail
    outward, so that covers every smaller k."""
    times = np.asarray(sorted(times), dtype=float)
    xi_max = quad.xi_max if quad.xi_max is not None else _auto_xi_max(profile, max(ks))
    # full_state rides along to set the roundoff floor of the propagation
    wanted = list(quantities)
    computed = wanted if "full_state" in wanted else wanted + ["full_state"]
    counts = _PropagationCounts()
    values = _norm_series_values(profile, ks, computed, times, constants, quad.radial_nodes, xi_max, quad, counts)
    nodes = quad.radial_nodes
    rel_change = {}
    if quad.check_convergence:
        nodes = 2 * quad.radial_nodes
        refined = _norm_series_values(profile, ks, computed, times, constants, nodes, xi_max, quad, counts)
        rel_change = {k: _converged(k, values[k], refined[k]) for k in ks}
        values = refined
    angular = "rotational-reduction" if constants.b_infty_is_zero else f"{quad.n_theta} theta nodes about B_inf"
    out: dict[int, dict[str, NormSeries]] = {}
    for k in ks:
        meta = {"profile": profile.label, "k": k, "radial_nodes": nodes, "xi_max": xi_max, "angular": angular}
        if k in rel_change:
            meta["convergence_rel_change"] = rel_change[k]
        meta["roundoff_floor"] = float(1e-12 * values[k]["full_state"].max())
        meta.update(asdict(counts))
        out[k] = {q: NormSeries(label=q, times=times, values=values[k][q], metadata=dict(meta)) for q in wanted}
    return out, counts


def _converged(k: int, coarse: dict[str, np.ndarray], fine: dict[str, np.ndarray]) -> float:
    """The largest relative change of any value from the coarse to the
    refined pass; QuadratureNotConverged when it exceeds CONVERGENCE_TOL."""
    # eigen-roundoff noise scales with the total state amplitude, so
    # values far below it carry no convergent signal
    floor = 1e-12 * fine["full_state"]
    worst = 0.0
    for q, f in fine.items():
        checked = np.abs(coarse[q] - f) / np.maximum(np.abs(f), 1e-300)
        checked[f < floor] = 0.0
        rel = float(np.max(checked))
        if rel > CONVERGENCE_TOL:
            raise QuadratureNotConverged(
                f"{q} at k={k}: doubling radial nodes moved values by {rel:.2%}"
            )
        worst = max(worst, rel)
    return worst


def multi_norm_series(
    profile: SpectralProfile,
    k: int,
    quantities: Sequence[str],
    times: Sequence[float],
    constants: PhysicalConstants,
    quad: QuadratureSpec = QuadratureSpec(),
) -> dict[str, NormSeries]:
    """Time series of the order-k weighted norms of the monitored quantities.

    Computes (integral over xi of |xi|^2k |l . exp(tA) S0|^2, summed over the
    quantity's functional rows l)^(1/2) for each quantity, with
    constraint-consistent initialization, over one quadrature pass.  When
    ``quad.check_convergence`` is set the pass is repeated with twice the
    radial nodes, and QuadratureNotConverged, naming the quantity and k, is
    raised when that moves any reported value by more than CONVERGENCE_TOL.
    decay_report runs the same passes once for all its k.

    Every series carries the same metadata, including what the propagation
    did over both passes: ``modes`` propagated, ``expm_fallbacks`` taken and
    the worst eigenvector condition number ``max_eig_cond`` (1-norm).
    """
    return _series_by_k(profile, [k], quantities, times, constants, quad)[0][k]


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
    s: float,
    k_list: Sequence[int] = (0, 1),
    quantities: Sequence[str] | None = None,
    fit_window: tuple[float, float] = (20.0, 500.0),
    num_times: int = 32,
    quad: QuadratureSpec = QuadratureSpec(),
    tolerance: float = analysis.LINEAR_FIT_TOLERANCE,
    metrics: dict | None = None,
) -> list[DecayReportRow]:
    """Fitted decay exponents of the linearized flow against their targets.

    The data class is given by the negative index s in [0, 3/2] (a Lebesgue
    exponent p maps to s through analysis.s_of_p).  By default all
    quantities are fitted, n_divu only with a zero background field;
    requesting n_divu explicitly with a nonzero background raises.
    Samples within 100x of the propagation's roundoff floor mark a fit
    ``floor_contaminated`` and fail its verdict.

    The arguments are checked (InvalidArgument) before the quadrature
    starts: k_list and quantities (when given) must be non-empty lists of
    distinct values, so that every report has rows and no row twice.  The
    norms are sampled at num_times geometric times spanning fit_window,
    at least the analysis._MIN_FIT_SAMPLES a fit needs.

    When a ``metrics`` dict is given it is filled with the propagation
    counts of the quadrature, one pass (and one re-run) for all of
    ``k_list``, and the wall time spent in the quadrature
    (``quadrature_s``) and in the fits (``fit_s``).
    """
    check_s(s)
    # an empty list would pass --ci with no rows, a repeated value repeat them
    check(k_list, lambda ks: all(map(is_count, ks)) and len(set(ks)) == len(ks) > 0,
          "k_list", "a non-empty list of distinct nonnegative integers")
    check(quantities, lambda qs: qs is None or set(qs) <= QUANTITIES.keys() and len(set(qs)) == len(qs) > 0,
          "quantities", f"null or a non-empty list of distinct names from {sorted(QUANTITIES)}")
    check(fit_window, lambda w: len(w) == 2 and all(map(is_real, w)) and 0 < w[0] < w[1], "fit_window", "0 < start < end")
    fit_samples = analysis._MIN_FIT_SAMPLES
    check(num_times, lambda v: is_count(v, fit_samples), "num_times", f"an integer >= {fit_samples}")
    check(tolerance, lambda v: is_real(v) and v > 0, "tolerance", "positive")
    if quantities is None:
        quantities = ["full_state", "nuE", "n_only", "B_only"]
        if constants.b_infty_is_zero:
            quantities.append("n_divu")
    elif "n_divu" in quantities and not constants.b_infty_is_zero:
        raise RequiresBInftyZero("n_divu requires a zero background magnetic field")
    prof = SpectralProfile.decay_class(s)
    times = np.geomspace(fit_window[0], fit_window[1], num_times)
    start = time.perf_counter()
    by_k, counts = _series_by_k(prof, k_list, quantities, times, constants, quad)
    quadrature_s = time.perf_counter() - start
    rows: list[DecayReportRow] = []
    fit_s = 0.0
    for k in k_list:
        series = by_k[k]
        for q in quantities:
            target_info = theoretical_exponent(q, k, s, b_infty_zero=constants.b_infty_is_zero)
            start = time.perf_counter()
            fit = analysis.fit_decay(
                series[q],
                window=fit_window,
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

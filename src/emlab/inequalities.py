"""Randomized numerical oracles for the interpolation and embedding inequalities.

Each oracle sweeps an ensemble of random band-limited fields (three spectral
slopes plus adversarial one- and two-mode cases, cycled so extremizers appear
throughout the trial sequence), records the largest ratio of left- to
right-hand side, and checks that the running maximum has plateaued: the
last-half maximum must sit within five percent of the global maximum.  That
detects bugged exponents (which produce growing ratios) without attempting
sharp constants.

One inequality is constant-free on the discrete grid: the interpolation of
an intermediate derivative between the next derivative and a negative-order
norm follows from Hoelder's inequality applied to the Fourier sums, so its
ratio can never exceed one; the oracle asserts this on every trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import product as iter_product

import numpy as np

from .errors import (
    AmplitudeTooLarge,
    ExactViolated,
    ExponentMismatch,
    ThetaOutOfRange,
)
from .model import density_closure
from .spectral import (
    DerivativeTensor,
    Field,
    GridSpec,
    besov_norm,
    differentiate,
    fractional,
    gradient,
    homog_norm,
    l2_norm,
    lp_norm,
    neg_sobolev_norm,
    random_band_limited,
    sobolev_norm,
)

__all__ = [
    "InequalityReport",
    "check_gagliardo_nirenberg",
    "check_closure_estimates",
    "check_commutator",
    "check_embeddings",
    "check_exact_interpolation",
    "default_suite",
]


@dataclass(frozen=True)
class InequalityReport:
    lemma: str
    trials: int
    max_ratio: float
    exact: bool  # constant-free discrete inequality (hard-asserted)
    plateau_ok: bool
    params: dict = dc_field(default_factory=dict)
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "trials": self.trials,
            "max_ratio": self.max_ratio,
            "exact": self.exact,
            "plateau_ok": self.plateau_ok,
            "params": dict(self.params),
            "seed": self.seed,
        }


def _plateau_ok(ratios: list[float]) -> bool:
    """First-half max within 5% of the global max.

    Detects growing ratios (bugged exponents leave the extremizers still
    being discovered in the last half) without demanding sharpness.
    """
    if len(ratios) < 4:
        return True
    arr = np.asarray(ratios)
    global_max = float(arr.max())
    if global_max == 0.0:
        return True
    first_half = float(arr[: len(arr) // 2].max())
    return (global_max - first_half) <= 0.05 * global_max


def _single_mode_field(grid: GridSpec, mode, amp: float = 1.0) -> Field:
    x, y, z = grid.coordinates()
    kv = 2.0 * math.pi / grid.box_length * np.asarray(mode, dtype=float)
    return Field.from_physical(grid, amp * np.cos(kv[0] * x + kv[1] * y + kv[2] * z))


def _two_mode_field(grid: GridSpec, m1, m2, w1=1.0, w2=0.5) -> Field:
    a = _single_mode_field(grid, m1, w1)
    b = _single_mode_field(grid, m2, w2)
    return Field(grid, a.coeffs + b.coeffs)


def _focusing_field(grid: GridSpec, band: int) -> Field:
    """All-in-phase coefficients over a spectral ball: a spike in space.

    Near-extremal for sup-norm ratios, so its presence caps the records the
    random members can set.
    """
    mx, my, mz = (grid.mode_axis(a) for a in range(3))
    m2 = mx * mx + my * my + mz * mz
    inside = (m2 > 0) & (m2 <= band * band)
    inside &= (np.abs(mx) <= band) & (np.abs(my) <= band) & (np.abs(mz) <= band)
    return Field(grid, np.where(inside, 1.0 + 0.0j, 0.0))


def _ensemble(grid: GridSpec, rng: np.random.Generator, trials: int):
    """Cycled mix of random slopes and adversarial nearly-extremal cases.

    Bands are capped so that pairwise products stay strictly below Nyquist,
    keeping grid products of two ensemble members exact for the calculus.
    """
    band = (grid.n // 2 - 1) // 2
    cases = ["flat", -1.0, -2.0, "single", "two", "focus"]
    for i in range(trials):
        kind = cases[i % len(cases)]
        if kind == "single":
            m = rng.integers(1, max(2, band), size=3)
            m[rng.integers(0, 3)] = 0
            if not m.any():
                m[0] = 1
            yield _single_mode_field(grid, m)
        elif kind == "two":
            yield _two_mode_field(grid, (1, 0, 0), (0, 2, 1))
        elif kind == "focus":
            yield _focusing_field(grid, band)
        else:
            slope = 0.0 if kind == "flat" else float(kind)
            yield random_band_limited(grid, rng, slope=slope, band_fraction=band / grid.n)


def check_gagliardo_nirenberg(
    p: float,
    alpha: float,
    m: float,
    l: float,
    trials: int = 200,
    grid: GridSpec | None = None,
    seed: int = 0,
) -> InequalityReport:
    """Ratio oracle for ||grad^alpha f||_p <= C ||grad^m f||_2^(1-theta) ||grad^l f||_2^theta.

    theta is fixed by the index relation alpha + 3(1/2 - 1/p) = m(1-theta) + l*theta
    and must land in [0, 1] (strictly inside for p = infinity).  Derivatives of
    non-integer order are radial multipliers, which coincide with the
    derivative tensors at p = 2.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    gap = alpha + 3.0 * (0.5 - (0.0 if math.isinf(p) else 1.0 / p))
    if l == m:
        if abs(gap - m) > 1e-12:
            raise ThetaOutOfRange("index relation unsatisfiable for l == m")
        theta = 0.0
    else:
        theta = (gap - m) / (l - m)
    if math.isinf(p):
        if not 0.05 <= theta <= 0.95:
            # endpoint cases of the sup-norm inequality are excluded
            raise ThetaOutOfRange(f"theta={theta:.3f} outside [0.05, 0.95] for p=inf")
    elif not 0.0 <= theta <= 1.0:
        raise ThetaOutOfRange(f"theta={theta:.3f} outside [0, 1]")
    grid = grid or GridSpec(16, 2.0 * math.pi)
    rng = np.random.default_rng(seed)
    ratios = []
    for f in _ensemble(grid, rng, trials):
        lhs_field = fractional(f, alpha) if alpha else f
        lhs = l2_norm(lhs_field) if p == 2 else lp_norm(lhs_field, p)
        den = homog_norm(f, m) ** (1.0 - theta) * homog_norm(f, l) ** theta
        if den > 0:
            ratios.append(lhs / den)
    return InequalityReport(
        lemma="gagliardo_nirenberg",
        trials=len(ratios),
        max_ratio=float(max(ratios)),
        exact=False,
        plateau_ok=_plateau_ok(ratios),
        params={"p": p, "alpha": alpha, "m": m, "l": l, "theta": theta},
        seed=seed,
    )


def check_closure_estimates(
    k: int,
    gamma: float,
    amplitude: float = 0.05,
    trials: int = 100,
    grid: GridSpec | None = None,
    seed: int = 0,
) -> InequalityReport:
    """Derivatives of the pointwise closure against derivatives of the field.

    Checks, over random small fields n (the estimates hold in the small-data
    regime ||n||_{H^3} <= 0.1):
      * ||grad^k closure(n)|| <= C_k ||grad^k n||   (ratio 1 exactly at gamma = 3)
      * ||grad^k closure(n)||_inf <= C ||grad^k n||^(1/4) ||grad^(k+2) n||^(3/4)
      * ||grad^k (closure(n) - n)|| <= C ||n||_{H^3} ||grad^k n|| (quadratic remainder)
    """
    if amplitude > 0.1:
        raise AmplitudeTooLarge("the estimates hold in the small-data regime")
    grid = grid or GridSpec(16, 2.0 * math.pi)
    rng = np.random.default_rng(seed)
    r_l2, r_inf, r_quad = [], [], []
    for f in _ensemble(grid, rng, trials):
        phys = f.physical()
        scale = float(np.max(np.abs(phys)))
        if scale == 0:
            continue
        n_phys = phys * (amplitude / scale)
        n_field = Field.from_physical(grid, n_phys)
        fn = Field.from_physical(grid, density_closure(n_phys, gamma))
        dk_fn = fractional(fn, k) if k else fn
        dk_n = fractional(n_field, k) if k else n_field
        nk = l2_norm(dk_n)
        if nk == 0:
            continue
        r_l2.append(l2_norm(dk_fn) / nk)
        den_inf = l2_norm(dk_n) ** 0.25 * homog_norm(n_field, k + 2) ** 0.75
        if den_inf > 0:
            r_inf.append(lp_norm(dk_fn, math.inf) / den_inf)
        rem = Field.from_physical(grid, density_closure(n_phys, gamma) - n_phys)
        dk_rem = fractional(rem, k) if k else rem
        h3 = sobolev_norm(n_field, 3)
        if h3 * nk > 0:
            r_quad.append(l2_norm(dk_rem) / (h3 * nk))
    return InequalityReport(
        lemma="closure_estimates",
        trials=len(r_l2),
        max_ratio=float(max(r_l2)),
        exact=bool(gamma == 3.0),
        plateau_ok=_plateau_ok(r_l2) and _plateau_ok(r_inf) and _plateau_ok(r_quad),
        params={
            "k": k,
            "gamma": gamma,
            "amplitude": amplitude,
            "max_ratio_inf": float(max(r_inf)) if r_inf else 0.0,
            "max_ratio_quadratic": float(max(r_quad)) if r_quad else 0.0,
        },
        seed=seed,
    )


def check_commutator(
    k: int,
    trials: int = 100,
    grid: GridSpec | None = None,
    seed: int = 0,
    identity_tol: float = 1e-10,
) -> InequalityReport:
    """Commutator [grad^k, g]h = grad^k(gh) - g grad^k h, two ways and bounded.

    The definition is compared against the Leibniz expansion term by term
    (they must agree to identity_tol; band-limited inputs make the products
    exact on the grid), and the aggregated norm is checked against
    C (||grad g||_inf ||grad^(k-1) h|| + ||grad^k g|| ||h||_inf).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grid = grid or GridSpec(16, 2.0 * math.pi)
    rng = np.random.default_rng(seed)
    ratios = []
    worst_identity = 0.0
    gen = _ensemble(grid, rng, 2 * trials)
    for _ in range(trials):
        g_f = next(gen)
        h_f = next(gen)
        g_p = g_f.physical()
        gh = Field.from_physical(grid, g_p * h_f.physical())
        # every derivative of g and h up to order k, by multi-index
        d_g = {a: t for l in range(k + 1) for a, t in differentiate(g_f, l).entries}
        d_h = {a: t for l in range(k + 1) for a, t in differentiate(h_f, l).entries}
        comm, diff = [], []
        for alpha, d_gh in differentiate(gh, k).entries:
            c = d_gh - Field.from_physical(grid, g_p * d_h[alpha].physical())
            # Leibniz expansion: sum over beta <= alpha, beta != 0
            leib = np.zeros_like(g_p)
            for beta in iter_product(*(range(a + 1) for a in alpha)):
                if beta == (0, 0, 0):
                    continue
                rest = tuple(a - b for a, b in zip(alpha, beta))
                cmb = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
                leib += cmb * d_g[beta].physical() * d_h[rest].physical()
            comm.append((alpha, c))
            diff.append((alpha, c - Field.from_physical(grid, leib)))
        comm_norm = DerivativeTensor(k, tuple(comm)).norm()
        scale = comm_norm if comm_norm > 0 else 1.0
        worst_identity = max(worst_identity, DerivativeTensor(k, tuple(diff)).norm() / scale)
        grad_g_inf = lp_norm(gradient(g_f), math.inf)
        h_inf = lp_norm(h_f, math.inf)
        bound = grad_g_inf * homog_norm(h_f, k - 1) + homog_norm(g_f, k) * h_inf
        if bound > 0:
            ratios.append(comm_norm / bound)
    if worst_identity > identity_tol:
        raise ExactViolated(
            f"commutator definition and Leibniz expansion differ by {worst_identity:.2e}"
        )
    return InequalityReport(
        lemma="commutator",
        trials=len(ratios),
        max_ratio=float(max(ratios)),
        exact=False,
        plateau_ok=_plateau_ok(ratios),
        params={"k": k, "identity_residual": worst_identity},
        seed=seed,
    )


def _bump_ensemble(grid: GridSpec, rng: np.random.Generator, trials: int):
    """Mean-zero localized bumps well inside the box (embedding oracles).

    Fields are restricted to the resolved band, the space the package's
    calculus actually probes; smooth bumps lose only a rounding-level tail.
    """
    x, y, z = grid.coordinates()
    L = grid.box_length

    def make(centers, radii, amps):
        phys = np.zeros_like(x)
        for c, r, amp in zip(centers, radii, amps):
            rho2 = ((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2) / r**2
            with np.errstate(over="ignore"):
                phys += amp * np.where(
                    rho2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - rho2)), 0.0
                )
        phys -= phys.mean()
        f = Field.from_physical(grid, phys)
        ny = grid.n // 2
        c = f.coeffs.copy()
        c[ny, :, :] = 0.0
        c[:, ny, :] = 0.0
        c[:, :, ny] = 0.0
        return Field(grid, c)

    for i in range(trials):
        if i % 4 == 0:
            # canonical tight bump, cycled in as a stable near-extremizer
            yield make([np.array([L / 2, L / 2, L / 2])], [0.05 * L], [1.0])
            continue
        n_bumps = int(rng.integers(1, 4))
        centers = [L * (0.35 + 0.3 * rng.random(3)) for _ in range(n_bumps)]
        radii = [L * (0.04 + 0.08 * rng.random()) for _ in range(n_bumps)]
        amps = [rng.standard_normal() for _ in range(n_bumps)]
        yield make(centers, radii, amps)


def check_embeddings(
    s: float,
    p: float,
    trials: int = 100,
    grid: GridSpec | None = None,
    seed: int = 0,
) -> InequalityReport:
    """Negative-norm embeddings of L^p data under 1/2 + s/3 = 1/p.

    The negative Sobolev norm applies for s in [0, 3/2) (p > 1) and the
    dyadic-block norm for s in (0, 3/2] (p < 1 excluded at the far end);
    each admissible side is checked on localized mean-zero bumps.
    """
    if abs(0.5 + s / 3.0 - 1.0 / p) > 1e-12:
        raise ExponentMismatch("indices must satisfy 1/2 + s/3 = 1/p")
    check_sobolev = 0.0 <= s < 1.5 and 1.0 < p <= 2.0
    check_besov = 0.0 < s <= 1.5 and 1.0 <= p < 2.0
    if s == 0.0:
        check_besov = False
    if not (check_sobolev or check_besov):
        raise ExponentMismatch("no admissible embedding at these indices")
    grid = grid or GridSpec(32, 2.0 * math.pi)
    rng = np.random.default_rng(seed)
    r_sob, r_bes = [], []
    for f in _bump_ensemble(grid, rng, trials):
        lp = lp_norm(f, p)
        if lp == 0:
            continue
        if check_sobolev:
            r_sob.append(neg_sobolev_norm(f, s) / lp)
        if check_besov:
            r_bes.append(besov_norm(f, s) / lp)
    primary = r_sob if check_sobolev else r_bes
    return InequalityReport(
        lemma="lp_embeddings",
        trials=len(primary),
        max_ratio=float(max(primary)),
        exact=bool(s == 0.0),
        plateau_ok=_plateau_ok(r_sob) and _plateau_ok(r_bes),
        params={
            "s": s,
            "p": p,
            "sobolev_side": check_sobolev,
            "besov_side": check_besov,
            "max_ratio_besov": float(max(r_bes)) if r_bes else 0.0,
        },
        seed=seed,
    )


def check_exact_interpolation(
    l: int,
    s: float,
    kind: str = "sobolev",
    trials: int = 200,
    grid: GridSpec | None = None,
    seed: int = 0,
) -> InequalityReport:
    """||grad^l f|| <= ||grad^(l+1) f||^(1-theta) * |f|_(-s)^theta, theta = 1/(l+1+s).

    The Sobolev kind is exact on the discrete grid (Hoelder applied to the
    Fourier sums): the ratio can never exceed one and the oracle raises on
    any violation.  The dyadic-block kind carries a family-dependent constant
    and is reported as a plateau.
    """
    if kind not in {"sobolev", "besov"}:
        raise ValueError("kind must be 'sobolev' or 'besov'")
    if kind == "sobolev" and s < 0:
        raise ValueError("s must be >= 0")
    if kind == "besov" and not s > 0:
        raise ValueError("besov kind requires s > 0")
    grid = grid or GridSpec(16, 2.0 * math.pi)
    rng = np.random.default_rng(seed)
    theta = 1.0 / (l + 1.0 + s)
    ratios = []
    for f in _ensemble(grid, rng, trials):
        num = homog_norm(f, l)
        den_hi = homog_norm(f, l + 1) ** (1.0 - theta)
        neg = neg_sobolev_norm(f, s) if kind == "sobolev" else besov_norm(f, s)
        den = den_hi * neg**theta
        if den == 0:
            continue
        ratio = num / den
        if kind == "sobolev" and ratio > 1.0 + 1e-9:
            raise ExactViolated(
                f"discrete interpolation ratio {ratio - 1.0:.3e} above one"
            )
        ratios.append(ratio)
    return InequalityReport(
        lemma=f"exact_interpolation_{kind}",
        trials=len(ratios),
        max_ratio=float(max(ratios)),
        exact=kind == "sobolev",
        plateau_ok=_plateau_ok(ratios),
        params={"l": l, "s": s, "theta": theta, "kind": kind},
        seed=seed,
    )


def default_suite(trials: int = 500, seed: int = 0, grid: GridSpec | None = None) -> list[InequalityReport]:
    """The standard oracle battery used by the CLI and the acceptance tests."""
    grid16 = grid or GridSpec(16, 2.0 * math.pi)
    grid32 = GridSpec(32, 2.0 * math.pi) if grid is None else grid
    reports = [
        check_gagliardo_nirenberg(2.0, 1.0, 0.0, 2.0, trials=trials, grid=grid16, seed=seed),
        check_gagliardo_nirenberg(6.0, 0.0, 1.0, 1.0, trials=trials, grid=grid16, seed=seed + 1),
        check_gagliardo_nirenberg(math.inf, 0.0, 0.0, 2.0, trials=trials, grid=grid16, seed=seed + 2),
        check_closure_estimates(1, 5.0 / 3.0, trials=max(50, trials // 5), grid=grid16, seed=seed + 3),
        check_closure_estimates(2, 3.0, trials=max(50, trials // 5), grid=grid16, seed=seed + 4),
        check_commutator(1, trials=max(50, trials // 5), grid=grid16, seed=seed + 5),
        check_commutator(3, trials=max(30, trials // 10), grid=grid16, seed=seed + 6),
        check_embeddings(1.0, 6.0 / 5.0, trials=max(50, trials // 5), grid=grid32, seed=seed + 7),
        check_embeddings(1.5, 1.0, trials=max(50, trials // 5), grid=grid32, seed=seed + 8),
        check_exact_interpolation(1, 1.0, "sobolev", trials=trials, grid=grid16, seed=seed + 9),
        check_exact_interpolation(0, 1.5, "besov", trials=max(100, trials // 2), grid=grid16, seed=seed + 10),
    ]
    return reports

"""Randomized numerical oracles for the interpolation and embedding inequalities.

Each oracle sweeps an ensemble of random band-limited fields (three spectral
slopes plus adversarial one- and two-mode cases, cycled so extremizers appear
throughout the trial sequence), records the largest ratio of left- to
right-hand side, and checks that the running maximum has plateaued: the
first-half maximum must sit within five percent of the global maximum.  That
detects bugged exponents (which produce growing ratios) without attempting
sharp constants.

One inequality is constant-free on the discrete grid: the interpolation of
an intermediate derivative between the next derivative and a negative-order
norm follows from Hoelder's inequality applied to the Fourier sums, so its
ratio can never exceed one; the oracle asserts this on every trial.

Ensembles are evaluated in blocks of consecutive trials, each holding about
_BLOCK_POINTS real grid points in its largest stack (eight 16^3 fields), so
peak memory does not grow with the trial count.  A block draws its random
members from the generator in trial order, so every trial sees the same
random numbers as a one-at-a-time sweep would.  It makes one stacked
transform per quantity and takes every L2-type norm through spectral's one
weighted reduction: the block's power spectra against a matrix of per-mode
weight columns (the |k|^(2l) weights of GridSpec.weight, or the negative-order
columns of _negative_weights); L^p norms are sums over
the stacked physical samples.  The two-mode field and the focusing spike
(and the canonical bump of the embedding ensemble) are the same field in
every cycle: each is evaluated once per oracle and its values are repeated
at its place in the trial sequence, so the ratio sequence that the plateau
test reads, and the first trial that violates an exact bound, are those of
the one-at-a-time sweep.  All members are mean-zero by construction, which
the negative-order norms require.
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
    check,
    is_count,
)
from .model import _unit_bump, density_closure
from .spectral import (
    GridSpec,
    _band_limited_block,
    _derivative_multiplier,
    _irfftn,
    _lp_of_magnitude,
    _multi_indices,
    _negative_weights,
    _power,
    _rfftn,
    _sums,
    _weights,
    _zero_nyquist,
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

# real grid points in the largest stack of one block of trials
_BLOCK_POINTS = 8 * 16**3

# cycle positions 0-2 of the main ensemble are random fields with these
# spectral slopes; 3 is one random mode, 4 the two-mode field, 5 the spike
_SLOPES = (0.0, -1.0, -2.0)

# largest relative gap between the commutator and its Leibniz expansion
_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class InequalityReport:
    lemma: str
    trials: int
    max_ratio: float
    exact: bool  # constant-free discrete inequality (hard-asserted)
    plateau_ok: bool
    params: dict = dc_field(default_factory=dict)
    seed: int = 0


def _report(lemma: str, ratios: np.ndarray, exact: bool, params: dict, seed: int, **columns) -> InequalityReport:
    """The report of one oracle from its kept ratio columns: the trial count
    and record of the primary column ``ratios``, the plateau test over every
    column, and each named column's record (0 if it is empty) in params."""
    return InequalityReport(
        lemma=lemma,
        trials=len(ratios),
        max_ratio=float(ratios.max()),
        exact=exact,
        plateau_ok=all(_plateau_ok(c) for c in (ratios, *columns.values())),
        params={**params, **{name: float(c.max()) if c.size else 0.0 for name, c in columns.items()}},
        seed=seed,
    )


def _plateau_ok(ratios) -> bool:
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


# -- helpers -------------------------------------------------------------------------


def _fractional(grid: GridSpec, coeffs: np.ndarray, s: float) -> np.ndarray:
    """The oracles' grad^s, s >= 0: the identity at s = 0, else the radial
    multiplier |k|^s with the zero mode dropped."""
    if not s:
        return coeffs
    out = grid.k_mag**s * coeffs
    out[..., 0, 0, 0] = 0.0
    return out


def _ratio(num: np.ndarray, den: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """num / den where keep holds, NaN (a skipped trial) elsewhere."""
    return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=keep)


def _kept(values: np.ndarray) -> np.ndarray:
    return values[~np.isnan(values)]


# -- ensembles ------------------------------------------------------------------------


def _block_size(grid: GridSpec, fields: int) -> int:
    """Trials per block when one trial stacks `fields` real fields."""
    return max(1, _BLOCK_POINTS // (fields * grid.n**3))


def _trial_values(trials: int, block: int, period: int, fixed: dict, evaluate_drawn) -> np.ndarray:
    """Values of every trial in trial order, shape (trials, q); NaN marks a
    value the oracle skips.

    Trial i sits at position i % period of its ensemble's cycle.  ``fixed``
    maps the positions of deterministic members to their rows, evaluated
    once by the caller.  The other trials are evaluated ``block`` trials at
    a time by evaluate_drawn(positions), which draws their members in order.
    """
    out = np.empty((trials, len(next(iter(fixed.values())))))
    for lo in range(0, trials, block):
        pos = np.arange(lo, min(lo + block, trials)) % period
        drawn = np.array([p not in fixed for p in pos])
        if drawn.any():
            out[lo + np.flatnonzero(drawn)] = evaluate_drawn(pos[drawn])
        for i in np.flatnonzero(~drawn):
            out[lo + i] = fixed[pos[i]]
    return out


class _Members:
    """Cycled mix of random slopes and adversarial nearly-extremal cases.

    Bands are capped so that pairwise products stay strictly below Nyquist,
    keeping grid products of two ensemble members exact for the calculus.
    """

    def __init__(self, grid: GridSpec, rng: np.random.Generator):
        self.grid, self.rng = grid, rng
        self.band = (grid.n // 2 - 1) // 2
        x = np.arange(grid.n) * grid.spacing
        self.axes = (x.reshape(-1, 1, 1), x.reshape(1, -1, 1), x.reshape(1, 1, -1))

    def cosine(self, mode, amp: float = 1.0) -> np.ndarray:
        kv = 2.0 * math.pi / self.grid.box_length * np.asarray(mode, dtype=float)
        x, y, z = self.axes
        return amp * np.cos(kv[0] * x + kv[1] * y + kv[2] * z)

    def fixed(self) -> np.ndarray:
        """Half-spectra of positions 4 and 5: the two-mode field and the spike.

        The spike has all-in-phase coefficients over a spectral ball, which
        is near-extremal for sup-norm ratios, so its presence caps the
        records the random members can set.
        """
        g, band = self.grid, self.band
        a, b = _rfftn(np.stack([self.cosine((1, 0, 0)), self.cosine((0, 2, 1), 0.5)]))
        mx, my, mz = (g.mode_axis(i) for i in range(3))
        m2 = mx * mx + my * my + mz * mz
        inside = (m2 > 0) & (m2 <= band * band)
        return np.stack([a + b, np.where(inside, 1.0 + 0.0j, 0.0)])

    def draw(self, positions) -> np.ndarray:
        """Half-spectra of random members at cycle positions 0-3, drawn in order."""
        n, rng, band = self.grid.n, self.rng, self.band
        phys = np.empty((len(positions), n, n, n))
        for row, pos in zip(phys, positions):
            if pos == 3:
                m = rng.integers(1, max(2, band), size=3)
                m[rng.integers(0, 3)] = 0
                if not m.any():
                    m[0] = 1
                row[...] = self.cosine(m)
            else:
                rng.standard_normal(out=row)
        slopes = [None if pos == 3 else _SLOPES[pos] for pos in positions]
        return _band_limited_block(self.grid, phys, slopes, band / n)


def _ensemble_values(grid: GridSpec, rng: np.random.Generator, trials: int, evaluate) -> np.ndarray:
    """_trial_values over the six-case ensemble; evaluate maps a stack of
    half-spectra to its rows."""
    members = _Members(grid, rng)
    two, focus = evaluate(members.fixed())
    fixed = {4: two, 5: focus}
    return _trial_values(trials, _block_size(grid, 1), 6, fixed, lambda pos: evaluate(members.draw(pos)))


# -- oracles --------------------------------------------------------------------------


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
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
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
    # at p = 2 the left side is the order-alpha weighted sum as well
    weights = _weights(grid, [m, l, alpha] if p == 2 else [m, l])

    def evaluate(coeffs):
        norms = np.sqrt(_sums(_power(coeffs), weights))
        if p == 2:
            lhs = norms[:, 2]
        else:
            lhs = _lp_of_magnitude(grid, np.abs(_irfftn(_fractional(grid, coeffs, alpha), grid.n)), p)
        den = norms[:, 0] ** (1.0 - theta) * norms[:, 1] ** theta
        return _ratio(lhs, den, den > 0)[:, None]

    ratios = _kept(_ensemble_values(grid, np.random.default_rng(seed), trials, evaluate)[:, 0])
    return _report("gagliardo_nirenberg", ratios, False, {"p": p, "alpha": alpha, "m": m, "l": l, "theta": theta}, seed)


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
    if k < 0:
        raise ValueError("k must be >= 0")
    if amplitude > 0.1:
        raise AmplitudeTooLarge("the estimates hold in the small-data regime")
    grid = grid or GridSpec(16, 2.0 * math.pi)
    # ||grad^k .||^2, ||grad^(k+2) .||^2, then the four terms of the H^3 norm
    weights = _weights(grid, [k, k + 2, 0, 1, 2, 3])

    def evaluate(coeffs):
        phys = _irfftn(coeffs, grid.n)
        scale = np.abs(phys).max(axis=(-3, -2, -1))
        live = scale != 0
        n_phys = phys * (amplitude / np.where(live, scale, 1.0))[:, None, None, None]
        closed = density_closure(n_phys, gamma)
        # the field, its closure and the remainder, in one stacked transform
        spectra = _rfftn(np.stack([n_phys, closed, closed - n_phys]))
        sums = _sums(_power(spectra), weights)
        n_k, fn_k, rem_k = np.sqrt(sums[:, :, 0])
        n_k2 = np.sqrt(sums[0, :, 1])
        h3 = np.sqrt(sums[0, :, 2:].sum(axis=1))
        fn_inf = np.abs(_irfftn(_fractional(grid, spectra[1], k), grid.n)).max(axis=(-3, -2, -1))
        live &= n_k != 0
        den_inf = n_k**0.25 * n_k2**0.75
        return np.stack(
            [
                _ratio(fn_k, n_k, live),
                _ratio(fn_inf, den_inf, live & (den_inf > 0)),
                _ratio(rem_k, h3 * n_k, live & (h3 * n_k > 0)),
            ],
            axis=1,
        )

    values = _ensemble_values(grid, np.random.default_rng(seed), trials, evaluate)
    r_l2, r_inf, r_quad = (_kept(col) for col in values.T)
    return _report(
        "closure_estimates", r_l2, bool(gamma == 3.0), {"k": k, "gamma": gamma, "amplitude": amplitude}, seed,
        max_ratio_inf=r_inf, max_ratio_quadratic=r_quad,
    )


def check_commutator(
    k: int,
    trials: int = 100,
    grid: GridSpec | None = None,
    seed: int = 0,
) -> InequalityReport:
    """Commutator [grad^k, g]h = grad^k(gh) - g grad^k h, two ways and bounded.

    The definition is compared against the Leibniz expansion term by term
    (they must agree to _IDENTITY_TOL; band-limited inputs make the products
    exact on the grid), and the aggregated norm is checked against
    C (||grad g||_inf ||grad^(k-1) h|| + ||grad^k g|| ||h||_inf).

    Trial j is the pair of ensemble members 2j and 2j + 1, so every third
    pair is (two-mode field, spike).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grid = grid or GridSpec(16, 2.0 * math.pi)
    n, shape = grid.n, grid.k_squared.shape
    # every derivative of g and h up to order k, by multi-index; the last
    # `top` are those of order k, in the order of _multi_indices
    betas = [a for order in range(k + 1) for a in _multi_indices(order)]
    index = {beta: i for i, beta in enumerate(betas)}
    mults = np.stack([np.broadcast_to(_derivative_multiplier(grid, b), shape) for b in betas])
    top = list(range(len(betas) - (k + 1) * (k + 2) // 2, len(betas)))
    grad = [index[a] for a in _multi_indices(1)]
    # multinomial weight k! / (a! b! c!) of each order-k alpha = (a, b, c)
    weight_of = np.array([math.factorial(k) // math.prod(map(math.factorial, betas[i])) for i in top], dtype=float)
    # Leibniz expansion of each order-k alpha: sum over beta <= alpha, beta != 0
    leibniz = []
    for i in top:
        alpha, terms = betas[i], []
        for beta in iter_product(*(range(a + 1) for a in alpha)):
            if beta == (0, 0, 0):
                continue
            rest = tuple(a - b for a, b in zip(alpha, beta))
            terms.append((math.prod(math.comb(a, b) for a, b in zip(alpha, beta)), index[beta], index[rest]))
        leibniz.append(terms)
    w_0, w_k1, w_k = (_weights(grid, [order]) for order in (0, k - 1, k))

    def evaluate(g, h):
        d_g = _irfftn(mults * g[:, None], n)
        d_h = _irfftn(mults * h[:, None], n)
        g_p, h_p = d_g[:, 0], d_h[:, 0]
        gh = _rfftn(g_p * h_p)
        comm = mults[top] * gh[:, None] - _rfftn(g_p[:, None] * d_h[:, top])
        leib = np.zeros((len(g), len(top), n, n, n))
        for a, terms in enumerate(leibniz):
            for cmb, b, r in terms:
                leib[:, a] += cmb * d_g[:, b] * d_h[:, r]
        diff = comm - _rfftn(leib)
        comm_norm = np.sqrt(_sums(_power(comm), w_0)[..., 0] @ weight_of)
        diff_norm = np.sqrt(_sums(_power(diff), w_0)[..., 0] @ weight_of)
        grad_g_inf = np.sqrt((d_g[:, grad] ** 2).sum(axis=1)).max(axis=(-3, -2, -1))
        h_inf = np.abs(h_p).max(axis=(-3, -2, -1))
        h_k1 = np.sqrt(_sums(_power(h), w_k1)[:, 0])
        g_k = np.sqrt(_sums(_power(g), w_k)[:, 0])
        bound = grad_g_inf * h_k1 + g_k * h_inf
        identity = diff_norm / np.where(comm_norm > 0, comm_norm, 1.0)
        return np.stack([_ratio(comm_norm, bound, bound > 0), identity], axis=1)

    members = _Members(grid, np.random.default_rng(seed))
    two, focus = members.fixed()
    fixed = {2: evaluate(two[None], focus[None])[0]}

    def evaluate_drawn(pos):
        stack = members.draw([m for p in pos for m in (2 * p, 2 * p + 1)])
        return evaluate(stack[0::2], stack[1::2])

    values = _trial_values(trials, _block_size(grid, len(betas)), 3, fixed, evaluate_drawn)
    ratios = _kept(values[:, 0])
    worst_identity = float(values[:, 1].max(initial=0.0))
    if worst_identity > _IDENTITY_TOL:
        raise ExactViolated(
            f"commutator definition and Leibniz expansion differ by {worst_identity:.2e}"
        )
    return _report("commutator", ratios, False, {"k": k, "identity_residual": worst_identity}, seed)


def _bump_block(grid: GridSpec, bumps) -> np.ndarray:
    """Half-spectra of mean-zero sums of localized bumps (embedding oracles).

    ``bumps`` holds one (centers, radii, amps) triple per field.  Fields are
    restricted to the resolved band, the space the package's calculus
    actually probes; smooth bumps lose only a rounding-level tail.  Each
    bump is evaluated on the bounding box of its support only: centres in
    [0.35, 0.65] L and radii at most 0.12 L keep every support clear of the
    box edges, so nothing wraps.
    """
    n, h = grid.n, grid.spacing
    x = np.arange(n) * h
    phys = np.zeros((len(bumps), n, n, n))
    for out, (centers, radii, amps) in zip(phys, bumps):
        for c, r, amp in zip(centers, radii, amps):
            # a point of margin on each side against rounding in (c +- r) / h
            box = tuple(
                slice(max(0, math.floor((ci - r) / h) - 1), min(n, math.ceil((ci + r) / h) + 2)) for ci in c
            )
            bx, by, bz = x[box[0]], x[box[1]], x[box[2]]
            rho2 = (
                (bx[:, None, None] - c[0]) ** 2 + (by[None, :, None] - c[1]) ** 2 + (bz[None, None, :] - c[2]) ** 2
            ) / r**2
            out[box] += amp * _unit_bump(rho2)
        out -= out.mean()
    return _zero_nyquist(_rfftn(phys))


def _random_bump(rng: np.random.Generator, L: float):
    n_bumps = int(rng.integers(1, 4))
    centers = [L * (0.35 + 0.3 * rng.random(3)) for _ in range(n_bumps)]
    radii = [L * (0.04 + 0.08 * rng.random()) for _ in range(n_bumps)]
    amps = [rng.standard_normal() for _ in range(n_bumps)]
    return centers, radii, amps


def _bump_values(grid: GridSpec, rng: np.random.Generator, trials: int, evaluate) -> np.ndarray:
    """_trial_values over the bump ensemble: every fourth trial, from the
    first, is a canonical tight bump, cycled in as a stable near-extremizer."""
    L = grid.box_length
    canonical = ([np.array([L / 2, L / 2, L / 2])], [0.05 * L], [1.0])
    fixed = {0: evaluate(_bump_block(grid, [canonical]))[0]}

    def evaluate_drawn(pos):
        return evaluate(_bump_block(grid, [_random_bump(rng, L) for _ in pos]))

    return _trial_values(trials, _block_size(grid, 1), 4, fixed, evaluate_drawn)


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
    if not (check_sobolev or check_besov):
        raise ExponentMismatch("no admissible embedding at these indices")
    grid = grid or GridSpec(32, 2.0 * math.pi)
    sides = [
        _negative_weights(grid, s, kind) if on else None
        for kind, on in (("sobolev", check_sobolev), ("besov", check_besov))
    ]

    def evaluate(coeffs):
        lp = _lp_of_magnitude(grid, np.abs(_irfftn(coeffs, grid.n)), p)
        power, skipped = _power(coeffs), np.full(len(coeffs), np.nan)
        return np.stack(
            [skipped if w is None else _ratio(np.sqrt(_sums(power, w).max(axis=1)), lp, lp != 0) for w in sides],
            axis=1,
        )

    values = _bump_values(grid, np.random.default_rng(seed), trials, evaluate)
    r_sob, r_bes = _kept(values[:, 0]), _kept(values[:, 1])
    # without the Sobolev side r_sob is empty, and the Besov column is the primary one
    return _report(
        "lp_embeddings", r_sob if check_sobolev else r_bes, bool(s == 0.0),
        {"s": s, "p": p, "sobolev_side": check_sobolev, "besov_side": check_besov}, seed,
        max_ratio_besov=r_bes,
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
    the first trial that violates it.  The dyadic-block kind carries a
    family-dependent constant and is reported as a plateau.
    """
    if kind not in {"sobolev", "besov"}:
        raise ValueError("kind must be 'sobolev' or 'besov'")
    if kind == "sobolev" and s < 0:
        raise ValueError("s must be >= 0")
    if kind == "besov" and not s > 0:
        raise ValueError("besov kind requires s > 0")
    grid = grid or GridSpec(16, 2.0 * math.pi)
    theta = 1.0 / (l + 1.0 + s)
    weights = np.concatenate([_weights(grid, [l, l + 1]), _negative_weights(grid, s, kind)], axis=1)

    def evaluate(coeffs):
        sums = _sums(_power(coeffs), weights)
        num, hi = np.sqrt(sums[:, 0]), np.sqrt(sums[:, 1])
        neg = np.sqrt(sums[:, 2:].max(axis=1))
        den = hi ** (1.0 - theta) * neg**theta
        return _ratio(num, den, den != 0)[:, None]

    ratios = _kept(_ensemble_values(grid, np.random.default_rng(seed), trials, evaluate)[:, 0])
    if kind == "sobolev":
        over = ratios[ratios > 1.0 + 1e-9]
        if over.size:
            raise ExactViolated(
                f"discrete interpolation ratio {over[0] - 1.0:.3e} above one"
            )
    params = {"l": l, "s": s, "theta": theta, "kind": kind}
    return _report(f"exact_interpolation_{kind}", ratios, kind == "sobolev", params, seed)


def default_suite(trials: int = 500, seed: int = 0) -> list[InequalityReport]:
    """The standard oracle battery used by the CLI and the acceptance tests,
    on 16^3 grids and, for the embeddings, 32^3; trials is checked
    (InvalidArgument) before any oracle runs."""
    check(trials, lambda v: is_count(v, 1), "trials", "a positive integer")
    grid16 = GridSpec(16, 2.0 * math.pi)
    grid32 = GridSpec(32, 2.0 * math.pi)
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

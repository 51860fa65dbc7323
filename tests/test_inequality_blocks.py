"""The block-batched oracles against a one-trial-at-a-time reference.

The reference below is the per-trial form of every oracle: one field per
iteration, norms through the public spectral calculators.  The batched
oracles must report the same trials, ratios, parameters and plateau
verdicts, which also pins the order in which trials draw from the
generator.
"""

import math
from itertools import product as iter_product

import numpy as np
import pytest

from emlab import inequalities
from emlab.errors import ExactViolated
from emlab.inequalities import (
    _plateau_ok,
    check_closure_estimates,
    check_commutator,
    check_embeddings,
    check_exact_interpolation,
    check_gagliardo_nirenberg,
)
from emlab.model import density_closure
from emlab.spectral import Field, GridSpec, homog_norm, l2_norm
from spectral_reference import (
    DerivativeTensor,
    besov_norm,
    differentiate,
    fractional,
    gradient,
    lp_norm,
    neg_sobolev_norm,
    random_band_limited,
)

# -- per-trial reference ------------------------------------------------------------


def _single_mode_field(grid, mode, amp=1.0):
    x, y, z = grid.coordinates()
    kv = 2.0 * math.pi / grid.box_length * np.asarray(mode, dtype=float)
    return Field.from_physical(grid, amp * np.cos(kv[0] * x + kv[1] * y + kv[2] * z))


def _focusing_field(grid, band):
    mx, my, mz = (grid.mode_axis(a) for a in range(3))
    m2 = mx * mx + my * my + mz * mz
    inside = (m2 > 0) & (m2 <= band * band)
    inside &= (np.abs(mx) <= band) & (np.abs(my) <= band) & (np.abs(mz) <= band)
    return Field(grid, np.where(inside, 1.0 + 0.0j, 0.0))


def _ensemble(grid, rng, trials):
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
            a = _single_mode_field(grid, (1, 0, 0))
            b = _single_mode_field(grid, (0, 2, 1), 0.5)
            yield Field(grid, a.coeffs + b.coeffs)
        elif kind == "focus":
            yield _focusing_field(grid, band)
        else:
            slope = 0.0 if kind == "flat" else float(kind)
            yield random_band_limited(grid, rng, slope=slope, band_fraction=band / grid.n)


def reference_gagliardo_nirenberg(p, alpha, m, l, trials, grid, seed):
    gap = alpha + 3.0 * (0.5 - (0.0 if math.isinf(p) else 1.0 / p))
    theta = 0.0 if l == m else (gap - m) / (l - m)
    ratios = []
    for f in _ensemble(grid, np.random.default_rng(seed), trials):
        lhs_field = fractional(f, alpha) if alpha else f
        lhs = l2_norm(lhs_field) if p == 2 else lp_norm(lhs_field, p)
        den = homog_norm(f, m) ** (1.0 - theta) * homog_norm(f, l) ** theta
        if den > 0:
            ratios.append(lhs / den)
    return len(ratios), max(ratios), _plateau_ok(ratios), {"p": p, "alpha": alpha, "m": m, "l": l, "theta": theta}


def reference_closure_estimates(k, gamma, amplitude, trials, grid, seed):
    r_l2, r_inf, r_quad = [], [], []
    for f in _ensemble(grid, np.random.default_rng(seed), trials):
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
        h3 = math.sqrt(sum(homog_norm(n_field, l) ** 2 for l in range(4)))
        if h3 * nk > 0:
            r_quad.append(l2_norm(dk_rem) / (h3 * nk))
    plateau = _plateau_ok(r_l2) and _plateau_ok(r_inf) and _plateau_ok(r_quad)
    params = {
        "k": k,
        "gamma": gamma,
        "amplitude": amplitude,
        "max_ratio_inf": float(max(r_inf)) if r_inf else 0.0,
        "max_ratio_quadratic": float(max(r_quad)) if r_quad else 0.0,
    }
    return len(r_l2), max(r_l2), plateau, params


def reference_commutator(k, trials, grid, seed):
    ratios, worst_identity = [], 0.0
    gen = _ensemble(grid, np.random.default_rng(seed), 2 * trials)
    for _ in range(trials):
        g_f, h_f = next(gen), next(gen)
        g_p = g_f.physical()
        gh = Field.from_physical(grid, g_p * h_f.physical())
        d_g = {a: t for l in range(k + 1) for a, t in differentiate(g_f, l).entries}
        d_h = {a: t for l in range(k + 1) for a, t in differentiate(h_f, l).entries}
        comm, diff = [], []
        for alpha, d_gh in differentiate(gh, k).entries:
            c = d_gh - Field.from_physical(grid, g_p * d_h[alpha].physical())
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
        bound = lp_norm(gradient(g_f), math.inf) * homog_norm(h_f, k - 1) + homog_norm(g_f, k) * lp_norm(
            h_f, math.inf
        )
        if bound > 0:
            ratios.append(comm_norm / bound)
    return len(ratios), max(ratios), _plateau_ok(ratios), {"k": k, "identity_residual": worst_identity}


def _bump_ensemble(grid, rng, trials):
    x, y, z = grid.coordinates()
    L = grid.box_length

    def make(centers, radii, amps):
        phys = np.zeros_like(x)
        for c, r, amp in zip(centers, radii, amps):
            rho2 = ((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2) / r**2
            with np.errstate(over="ignore"):
                phys += amp * np.where(rho2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - rho2)), 0.0)
        phys -= phys.mean()
        c = Field.from_physical(grid, phys).coeffs.copy()
        ny = grid.n // 2
        c[ny, :, :] = c[:, ny, :] = c[:, :, ny] = 0.0
        return Field(grid, c)

    for i in range(trials):
        if i % 4 == 0:
            yield make([np.array([L / 2, L / 2, L / 2])], [0.05 * L], [1.0])
            continue
        n_bumps = int(rng.integers(1, 4))
        centers = [L * (0.35 + 0.3 * rng.random(3)) for _ in range(n_bumps)]
        radii = [L * (0.04 + 0.08 * rng.random()) for _ in range(n_bumps)]
        amps = [rng.standard_normal() for _ in range(n_bumps)]
        yield make(centers, radii, amps)


def reference_embeddings(s, p, trials, grid, seed):
    check_sobolev = 0.0 <= s < 1.5 and 1.0 < p <= 2.0
    check_besov = 0.0 < s <= 1.5 and 1.0 <= p < 2.0 and s != 0.0
    r_sob, r_bes = [], []
    for f in _bump_ensemble(grid, np.random.default_rng(seed), trials):
        lp = lp_norm(f, p)
        if lp == 0:
            continue
        if check_sobolev:
            r_sob.append(neg_sobolev_norm(f, s) / lp)
        if check_besov:
            r_bes.append(besov_norm(f, s) / lp)
    primary = r_sob if check_sobolev else r_bes
    params = {
        "s": s,
        "p": p,
        "sobolev_side": check_sobolev,
        "besov_side": check_besov,
        "max_ratio_besov": float(max(r_bes)) if r_bes else 0.0,
    }
    return len(primary), max(primary), _plateau_ok(r_sob) and _plateau_ok(r_bes), params


def reference_exact_interpolation(l, s, kind, trials, grid, seed):
    theta = 1.0 / (l + 1.0 + s)
    ratios = []
    for f in _ensemble(grid, np.random.default_rng(seed), trials):
        num = homog_norm(f, l)
        neg = neg_sobolev_norm(f, s) if kind == "sobolev" else besov_norm(f, s)
        den = homog_norm(f, l + 1) ** (1.0 - theta) * neg**theta
        if den == 0:
            continue
        ratio = num / den
        if kind == "sobolev" and ratio > 1.0 + 1e-9:
            raise ExactViolated(f"discrete interpolation ratio {ratio - 1.0:.3e} above one")
        ratios.append(ratio)
    return len(ratios), max(ratios), _plateau_ok(ratios), {"l": l, "s": s, "theta": theta, "kind": kind}


# -- equivalence ----------------------------------------------------------------------

G16 = GridSpec(16, 2.0 * math.pi)
G32 = GridSpec(32, 2.0 * math.pi)

# (batched oracle, reference, positional arguments, trials, grid, seed); the
# last two cases are those whose plateau check fails in the default suite at
# 500 trials (config seeds 2 and 3), so a reordered trial sequence shows
CASES = [
    (check_gagliardo_nirenberg, reference_gagliardo_nirenberg, (2.0, 1.0, 0.0, 2.0), 37, G16, 0),
    (check_gagliardo_nirenberg, reference_gagliardo_nirenberg, (6.0, 0.0, 1.0, 1.0), 50, G16, 1),
    (check_gagliardo_nirenberg, reference_gagliardo_nirenberg, (math.inf, 0.0, 0.0, 2.0), 37, G16, 2),
    (check_gagliardo_nirenberg, reference_gagliardo_nirenberg, (4.0, 0.5, 0.0, 2.0), 50, G16, 4),
    (check_gagliardo_nirenberg, reference_gagliardo_nirenberg, (6.0, 0.0, 1.0, 1.0), 13, G32, 5),
    (check_closure_estimates, reference_closure_estimates, (1, 5.0 / 3.0, 0.05), 37, G16, 3),
    (check_closure_estimates, reference_closure_estimates, (2, 3.0, 0.05), 50, G16, 4),
    (check_closure_estimates, reference_closure_estimates, (0, 1.4, 0.08), 37, G16, 6),
    (check_commutator, reference_commutator, (1,), 37, G16, 5),
    (check_commutator, reference_commutator, (2,), 13, G16, 7),
    (check_embeddings, reference_embeddings, (1.5, 1.0), 37, G32, 8),
    (check_embeddings, reference_embeddings, (0.0, 2.0), 13, G32, 1),
    (check_exact_interpolation, reference_exact_interpolation, (1, 1.0, "sobolev"), 50, G16, 9),
    (check_exact_interpolation, reference_exact_interpolation, (0, 1.5, "besov"), 37, G16, 10),
    (check_exact_interpolation, reference_exact_interpolation, (2, 0.0, "sobolev"), 37, G16, 11),
    (check_embeddings, reference_embeddings, (1.0, 6.0 / 5.0), 100, G32, 9),
    (check_commutator, reference_commutator, (3,), 50, G16, 9),
]


def _assert_same(report, reference):
    trials, max_ratio, plateau, params = reference
    assert (report.trials, report.plateau_ok) == (trials, plateau)
    assert report.max_ratio == pytest.approx(max_ratio, rel=1e-12, abs=0.0)
    assert sorted(report.params) == sorted(params)
    for name, want in params.items():
        assert report.params[name] == pytest.approx(want, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize(
    "oracle, reference, args, trials, grid, seed",
    CASES,
    ids=[f"{c[0].__name__}-{c[2]}-{c[3]}-{c[5]}" for c in CASES],
)
def test_blocks_match_per_trial_reference(oracle, reference, args, trials, grid, seed):
    report = oracle(*args, trials=trials, grid=grid, seed=seed)
    _assert_same(report, reference(*args, trials, grid, seed))


def _fingerprints(grid, coeffs):
    # per-member L2 and H^1 seminorm: tells every member of an ensemble apart
    power = np.abs(coeffs) ** 2
    return np.stack([np.sum(grid.weight(o) * power, axis=(-3, -2, -1)) for o in (0, 1)], axis=1)


@pytest.mark.parametrize("grid, trials, seed", [(G16, 37, 0), (G16, 50, 3), (G32, 13, 4)])
def test_members_come_in_reference_order(grid, trials, seed):
    got = inequalities._ensemble_values(
        grid, np.random.default_rng(seed), trials, lambda c: _fingerprints(grid, c)
    )
    want = [_fingerprints(grid, f.coeffs[None])[0] for f in _ensemble(grid, np.random.default_rng(seed), trials)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("trials, seed", [(37, 8), (13, 2)])
def test_bumps_come_in_reference_order(trials, seed):
    got = inequalities._bump_values(G32, np.random.default_rng(seed), trials, lambda c: _fingerprints(G32, c))
    want = [_fingerprints(G32, f.coeffs[None])[0] for f in _bump_ensemble(G32, np.random.default_rng(seed), trials)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_plateau_failures_are_kept():
    # the two reference cases above that fail the plateau test really do
    assert not check_embeddings(1.0, 6.0 / 5.0, trials=100, grid=G32, seed=9).plateau_ok
    assert not check_commutator(3, trials=50, grid=G16, seed=9).plateau_ok


def test_exact_violation_reports_the_first_violating_trial(monkeypatch):
    # inflate the left-hand weight so that only near-extremal members break
    # the bound; both sweeps must stop at the same (first) violating trial
    weight = GridSpec.weight
    monkeypatch.setattr(GridSpec, "weight", lambda self, order: weight(self, order) * (1.05 if order == 1 else 1.0))
    with pytest.raises(ExactViolated) as want:
        reference_exact_interpolation(1, 1.0, "sobolev", 40, G16, 0)
    with pytest.raises(ExactViolated) as got:
        check_exact_interpolation(1, 1.0, "sobolev", trials=40, grid=G16, seed=0)
    assert str(got.value) == str(want.value)


def test_transform_count_is_per_block(fft_lines):
    # one forward and one inverse stacked transform per block, plus one of
    # each for the two deterministic members; each pass runs on every line
    calls, lines = fft_lines
    check_gagliardo_nirenberg(math.inf, 0.0, 0.0, 2.0, trials=48, grid=G16)
    blocks = -(-48 // inequalities._block_size(G16, 1))
    assert calls["rfft", -1] == calls["irfft", -1] == blocks + 1
    members = 48 - 2 * (48 // 6) + 2  # the drawn ones, and the two deterministic ones once
    n, h = 16, 16 // 2 + 1
    assert lines == {
        ("rfft", -1): members * n * n,
        ("fft", -3): members * n * h,
        ("fft", -2): members * n * h,
        ("ifft", -3): members * n * h,
        ("ifft", -2): members * n * h,
        ("irfft", -1): members * n * n,
    }


class TestPlateau:
    def test_fewer_than_four_ratios_pass(self):
        assert _plateau_ok([]) and _plateau_ok([1.0, 5.0, 100.0])

    def test_all_zero_sequence_passes(self):
        assert _plateau_ok([0.0] * 10)

    def test_late_maximum_beyond_five_percent_fails(self):
        assert not _plateau_ok([1.0, 1.0, 1.0, 1.0, 1.0, 1.06])
        assert _plateau_ok([1.0, 1.0, 1.0, 1.0, 1.0, 1.04])

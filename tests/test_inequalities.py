"""Oracle behavior: exact cases, plateaus, guards."""

import math

import numpy as np
import pytest

from emlab.errors import ExponentMismatch, ThetaOutOfRange
from emlab.inequalities import (
    check_closure_estimates,
    check_commutator,
    check_embeddings,
    check_exact_interpolation,
    check_gagliardo_nirenberg,
    default_suite,
)
from emlab.spectral import Field, GridSpec, homog_norm, l2_norm
from spectral_reference import neg_sobolev_norm


class TestGagliardoNirenberg:
    def test_identity_case_ratio_one(self, grid16):
        rep = check_gagliardo_nirenberg(2.0, 1.0, 1.0, 1.0, trials=25, grid=grid16)
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)

    def test_interpolation_theta_half(self, grid16):
        rep = check_gagliardo_nirenberg(2.0, 1.0, 0.0, 2.0, trials=50, grid=grid16)
        assert rep.params["theta"] == pytest.approx(0.5)
        # single-mode members achieve equality; nothing exceeds one at p = 2
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-10)
        assert rep.plateau_ok

    def test_sobolev_embedding_plateau(self, grid16):
        rep = check_gagliardo_nirenberg(6.0, 0.0, 1.0, 1.0, trials=60, grid=grid16)
        assert rep.plateau_ok
        assert 0.0 < rep.max_ratio < 1.0  # well below the grid-free constant

    def test_sobolev_embedding_stable_under_refinement(self):
        coarse = check_gagliardo_nirenberg(6.0, 0.0, 1.0, 1.0, trials=40, grid=GridSpec(16, 2 * math.pi))
        fine = check_gagliardo_nirenberg(6.0, 0.0, 1.0, 1.0, trials=40, grid=GridSpec(32, 2 * math.pi))
        assert fine.max_ratio <= coarse.max_ratio * 1.05

    def test_theta_out_of_range(self, grid16):
        with pytest.raises(ThetaOutOfRange):
            check_gagliardo_nirenberg(2.0, 3.0, 0.0, 1.0, trials=5, grid=grid16)

    def test_negative_orders_are_rejected(self, grid16):
        # the oracles' multiplier |k|^s is defined for s >= 0 only
        with pytest.raises(ValueError, match="alpha"):
            check_gagliardo_nirenberg(6.0, -0.5, 0.0, 1.0, trials=5, grid=grid16)
        with pytest.raises(ValueError, match="k must"):
            check_closure_estimates(-1, 1.4, trials=5, grid=grid16)

    def test_p_inf_endpoint_guard(self, grid16):
        # theta = 1 exactly is excluded at p = infinity
        with pytest.raises(ThetaOutOfRange):
            check_gagliardo_nirenberg(math.inf, 0.5, 0.0, 2.0, trials=5, grid=grid16)

    def test_p_inf_interior_works(self, grid16):
        rep = check_gagliardo_nirenberg(math.inf, 0.0, 0.0, 2.0, trials=30, grid=grid16)
        assert rep.params["theta"] == pytest.approx(0.75)
        assert rep.max_ratio > 0


class TestClosureEstimates:
    def test_gamma_three_ratios_exactly_one(self, grid16):
        rep = check_closure_estimates(2, 3.0, trials=30, grid=grid16)
        assert rep.exact
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.params["max_ratio_quadratic"] <= 1e-12

    def test_first_derivative_bound(self, grid16):
        # the ratio is bounded by max |closure'| which is 1 + O(amplitude)
        rep = check_closure_estimates(1, 5.0 / 3.0, amplitude=0.05, trials=40, grid=grid16)
        assert rep.max_ratio <= 1.1
        assert rep.plateau_ok

    def test_quadratic_remainder_plateau(self, grid16):
        rep = check_closure_estimates(2, 1.4, trials=40, grid=grid16)
        assert rep.params["max_ratio_quadratic"] > 0
        assert rep.plateau_ok

    def test_amplitude_guard(self, grid16):
        from emlab.errors import AmplitudeTooLarge

        with pytest.raises(AmplitudeTooLarge):
            check_closure_estimates(1, 1.4, amplitude=0.5, trials=5, grid=grid16)


class TestCommutator:
    def test_constant_g_gives_zero(self, grid16):
        # [grad^k, const] h = 0: check directly through the definition
        x, _, _ = grid16.coordinates()
        g = Field.from_physical(grid16, np.full_like(x, 2.5))
        h = Field.from_physical(grid16, np.cos(x))
        gh = Field.from_physical(grid16, g.physical() * h.physical())
        kx = 1j * grid16.k_axis(0)
        comm = Field(grid16, kx * gh.coeffs) - Field.from_physical(
            grid16, g.physical() * Field(grid16, kx * h.coeffs).physical()
        )
        assert l2_norm(comm) <= 1e-12

    def test_first_order_product_rule(self, grid16):
        # k=1 single modes: [d, g]h = (dg) h exactly
        x, y, _ = grid16.coordinates()
        g = Field.from_physical(grid16, np.cos(x))
        h = Field.from_physical(grid16, np.cos(2 * y))
        kx = 1j * grid16.k_axis(0)
        gh = Field.from_physical(grid16, g.physical() * h.physical())
        comm = Field(grid16, kx * gh.coeffs) - Field.from_physical(
            grid16, g.physical() * Field(grid16, kx * h.coeffs).physical()
        )
        dg_h = Field.from_physical(
            grid16, Field(grid16, kx * g.coeffs).physical() * h.physical()
        )
        assert l2_norm(comm - dg_h) <= 1e-12 * l2_norm(dg_h)

    def test_two_way_identity_and_plateau(self, grid16):
        rep = check_commutator(3, trials=25, grid=grid16)
        assert rep.params["identity_residual"] <= 1e-10
        assert rep.plateau_ok
        assert rep.max_ratio < 10.0


class TestEmbeddings:
    def test_index_relation_guard(self):
        with pytest.raises(ExponentMismatch):
            check_embeddings(1.0, 1.5, trials=5)

    def test_s_zero_is_equality(self):
        rep = check_embeddings(0.0, 2.0, trials=12)
        assert rep.exact
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_besov_only(self):
        rep = check_embeddings(1.5, 1.0, trials=15)
        assert not rep.params["sobolev_side"]
        assert rep.params["besov_side"]
        assert 0 < rep.params["max_ratio_besov"] < math.inf

    def test_interior_both_sides(self):
        rep = check_embeddings(1.0, 6.0 / 5.0, trials=60)
        assert rep.params["sobolev_side"] and rep.params["besov_side"]
        assert rep.plateau_ok


class TestExactInterpolation:
    def test_single_mode_equality(self, grid16):
        f = Field.from_physical(grid16, np.cos(2 * grid16.coordinates()[0]))
        l, s = 1, 1.0
        theta = 1.0 / (l + 1 + s)
        ratio = homog_norm(f, l) / (
            homog_norm(f, l + 1) ** (1 - theta) * neg_sobolev_norm(f, s) ** theta
        )
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_direct_arithmetic(self, grid16):
        # modes at |k| = 1 and |k| = 2: compare against the two-term sums
        x, y, _ = grid16.coordinates()
        f = Field.from_physical(grid16, np.cos(x) + 0.5 * np.cos(2 * y))
        w = grid16.norm_weight
        n3 = grid16.n**3
        # coefficient magnitudes: n^3/2 and n^3/4 at the two shells
        a1sq, a2sq = 2 * (n3 / 2) ** 2, 2 * (n3 / 4) ** 2
        l, s = 1, 0.5
        theta = 1.0 / (l + 1 + s)
        num = math.sqrt(w * (a1sq * 1.0 + a2sq * 4.0))
        den_hi = math.sqrt(w * (a1sq * 1.0 + a2sq * 16.0))
        den_neg = math.sqrt(w * (a1sq * 1.0 + a2sq * 2.0 ** (-2 * s)))
        expected = num / (den_hi ** (1 - theta) * den_neg**theta)
        got_num = homog_norm(f, l)
        got = got_num / (homog_norm(f, l + 1) ** (1 - theta) * neg_sobolev_norm(f, s) ** theta)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < 1.0

    def test_hard_assertion_over_ensemble(self, grid16):
        rep = check_exact_interpolation(1, 1.0, "sobolev", trials=150, grid=grid16)
        assert rep.exact
        assert rep.max_ratio <= 1.0 + 1e-9

    def test_besov_kind_plateau(self, grid16):
        rep = check_exact_interpolation(0, 1.5, "besov", trials=60, grid=grid16)
        assert not rep.exact
        assert rep.max_ratio <= 2.0
        assert rep.plateau_ok


class TestSuite:
    def test_default_suite_runs_and_plateaus(self):
        reports = default_suite(trials=40, seed=1)
        assert len(reports) >= 10
        assert all(r.plateau_ok for r in reports)
        assert all(np.isfinite(r.max_ratio) for r in reports)

"""Decay regression, exponent tables, index relations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab.analysis import (
    NormSeries,
    fit_decay,
    nonincreasing_within,
    s_of_p,
    theoretical_exponent,
)
from emlab.errors import (
    InsufficientSamples,
    InvalidArgument,
    NonpositiveValue,
    POutOfRange,
    RequiresBInftyZero,
    SOutOfRange,
)


def power_series(rate, c=2.0, t0=1.0, t1=300.0, n=40):
    t = np.geomspace(t0, t1, n)
    return NormSeries(label="synthetic", times=t, values=c * (1 + t) ** rate)


class TestFitDecay:
    def test_exact_power_law(self):
        fit = fit_decay(power_series(-0.75))
        assert fit.slope == pytest.approx(-0.75, abs=1e-6)
        assert fit.r_squared > 1 - 1e-9

    def test_constant_series(self):
        fit = fit_decay(power_series(0.0))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_floor_contamination_flagged(self):
        t = np.geomspace(1, 1e5, 120)
        floor = 1e-12
        vals = 1e-4 * (1 + t) ** -1.5 + floor
        ser = NormSeries(label="x", times=t, values=vals)
        clean = fit_decay(ser, window=(1, 30), floor=floor)
        assert not clean.floor_contaminated
        dirty = fit_decay(ser, window=(1e3, 1e5), floor=floor)
        assert dirty.floor_contaminated
        # the knee flattens the fitted slope below the true rate
        assert abs(dirty.slope) < 1.5

    @pytest.mark.parametrize("bad", [
        {"window": "x"}, {"window": [1.0]}, {"window": (5.0, 1.0)}, {"window": (-1.0, 5.0)},
        {"target": "x"}, {"tol": "x", "target": -1.0}, {"tol": 0.0},
    ], ids=lambda bad: "-".join(map(str, bad.items())))
    def test_arguments_are_checked(self, bad):
        with pytest.raises(InvalidArgument):
            fit_decay(power_series(-0.75), **bad)

    def test_insufficient_samples(self):
        ser = power_series(-1.0, n=5)
        with pytest.raises(InsufficientSamples):
            fit_decay(ser)

    def test_nonpositive_values(self):
        t = np.linspace(1, 10, 12)
        ser = NormSeries(label="x", times=t, values=np.zeros_like(t))
        with pytest.raises(NonpositiveValue):
            fit_decay(ser)

    def test_verdict_against_target(self):
        fit = fit_decay(power_series(-0.75), target=-0.75, tol=0.05)
        assert fit.verdict == "pass"
        fit = fit_decay(power_series(-0.75), target=-1.0, tol=0.05)
        assert fit.verdict == "fail"

    def test_scale_invariance(self):
        a = fit_decay(power_series(-0.6, c=1.0))
        b = fit_decay(power_series(-0.6, c=137.0))
        assert a.slope == pytest.approx(b.slope, abs=1e-12)

    def test_window_shift_robustness(self):
        ser = power_series(-0.6, t0=1.0, t1=1000.0, n=200)
        slopes = [
            fit_decay(ser, window=w).slope
            for w in ((1, 100), (5, 500), (10, 1000))
        ]
        assert max(slopes) - min(slopes) <= 1e-8


class TestTheoreticalExponents:
    def test_full_state_endpoint(self):
        t = theoretical_exponent("full_state", 0, 1.5)
        assert t.exponent == pytest.approx(-0.75)
        assert t.min_regularity == 4

    def test_further_decay_table(self):
        assert theoretical_exponent("nuE", 0, 1.5).exponent == pytest.approx(-1.25)
        assert theoretical_exponent("n_only", 0, 1.5).exponent == pytest.approx(-1.75)
        assert theoretical_exponent(
            "n_divu", 0, 1.5, b_infty_zero=True
        ).exponent == pytest.approx(-3.25)

    def test_n_only_s_zero(self):
        assert theoretical_exponent("n_only", 0, 0.0).exponent == pytest.approx(-1.0)

    def test_basic_k1_half(self):
        assert theoretical_exponent("full_state", 1, 0.5).exponent == pytest.approx(-0.75)

    def test_regularity_requirements(self):
        assert theoretical_exponent("nuE", 0, 1.5).min_regularity == 6
        assert theoretical_exponent("n_only", 0, 0.0).min_regularity == 6
        assert theoretical_exponent("n_divu", 0, 1.5, True).min_regularity == 12

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.5])
    def test_table_is_the_written_out_formulas(self, k, s):
        # B_only takes the basic rate and uE the nuE rate, bit for bit
        written_out = {
            "full_state": (-(k + s) / 2.0, math.ceil(2 * k + 2 + s)),
            "B_only": (-(k + s) / 2.0, math.ceil(2 * k + 2 + s)),
            "nuE": (-(k + 1 + s) / 2.0, math.ceil(2 * k + 4 + s)),
            "uE": (-(k + 1 + s) / 2.0, math.ceil(2 * k + 4 + s)),
            "n_only": (-(k + 2 + s) / 2.0, math.ceil(2 * k + 6 + s)),
            "n_divu": (-(k / 2.0 + 7.0 / 4.0 + s), math.ceil(2 * k + 10 + s)),
        }
        for quantity, target in written_out.items():
            got = theoretical_exponent(quantity, k, s, b_infty_zero=True)
            assert (got.exponent, got.min_regularity) == target, quantity

    def test_guards(self):
        with pytest.raises(RequiresBInftyZero):
            theoretical_exponent("n_divu", 0, 1.5, b_infty_zero=False)
        with pytest.raises(SOutOfRange):
            theoretical_exponent("full_state", 0, 1.6)


class TestIndexRelations:
    def test_s_of_p_endpoints(self):
        assert s_of_p(1.0) == pytest.approx(1.5)
        assert s_of_p(2.0) == pytest.approx(0.0)
        assert s_of_p(6.0 / 5.0) == pytest.approx(1.0)

    def test_s_of_p_guard(self):
        with pytest.raises(POutOfRange):
            s_of_p(0.9)
        with pytest.raises(POutOfRange):
            s_of_p(2.1)


class TestMonotonicity:
    def test_nonincreasing_with_slack(self):
        t = np.linspace(0, 10, 30)
        v = np.exp(-t)
        assert nonincreasing_within(t, v)
        v2 = v.copy()
        v2[10] = v2[9] * 1.5
        assert not nonincreasing_within(t, v2)


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=-3.0, max_value=0.0),
    scale=st.floats(min_value=1e-6, max_value=1e6),
)
def test_fit_recovers_any_rate(rate, scale):
    fit = fit_decay(power_series(rate, c=scale))
    assert fit.slope == pytest.approx(rate, abs=1e-7)

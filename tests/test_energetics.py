"""Energy/dissipation functionals, windows, cross terms, equivalence certificates."""

import math

import numpy as np
import pytest

from emlab import energetics as en
from emlab.dynamics import SolverConfig, simulate
from emlab.energetics import standard_monitor
from emlab.errors import DerivativeOrderExceedsResolution
from emlab.model import PerturbationState, make_initial_data
from emlab.spectral import Field, divergence, l2_norm
from spectral_reference import gradient, inner_product


def table(state):
    """One sample's table at every order these tests read (0..7)."""
    return en._table(state, range(8))


def single_mode_state(grid, amp=0.3, kmod=(0, 0, 2), which="n"):
    x, y, z = grid.coordinates()
    kv = 2.0 * math.pi / grid.box_length * np.asarray(kmod, dtype=float)
    phase = kv[0] * x + kv[1] * y + kv[2] * z
    scalar = Field.from_physical(grid, amp * np.cos(phase))
    zero_s = Field.zeros(grid)
    zero_v = Field.zeros(grid, vector=True)
    fields = {"n": zero_s, "u": zero_v, "E": zero_v, "B": zero_v}
    if which == "n":
        fields["n"] = scalar
    else:
        vec = np.zeros((3,) + scalar.coeffs.shape, dtype=complex)
        vec[0] = scalar.coeffs
        fields[which] = Field(grid, vec)
    return PerturbationState(**fields)


class TestEnergyAndDissipation:
    def test_zero_state(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 0.0, 0, grid16, constants_bz)
        t = table(st)
        assert en._energy(t, 3) == 0.0
        assert en._dissipation(t, 3) == 0.0

    def test_single_mode_geometric_sum(self, grid32):
        amp, kappa, order = 0.3, 2.0, 4
        st = single_mode_state(grid32, amp=amp, kmod=(0, 0, 2), which="n")
        base = l2_norm(st.n) ** 2
        expected = base * sum(kappa ** (2 * l) for l in range(order + 1))
        assert en._energy(table(st), order) == pytest.approx(expected, rel=1e-12)

    def test_order_zero_is_l2(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 1e-2, 3, grid16, constants_bz)
        total = sum(l2_norm(f) ** 2 for f in st.fields().values())
        assert en._energy(table(st), 0) == pytest.approx(total, rel=1e-12)

    def test_constant_b_excluded_from_dissipation(self, grid16):
        vec = np.zeros((3, 16, 16, 9), dtype=complex)  # half-spectrum, kz = 0..8
        vec[2, 0, 0, 0] = 16**3  # constant field: physical value 1
        st = PerturbationState(
            n=Field.zeros(grid16),
            u=Field.zeros(grid16, vector=True),
            E=Field.zeros(grid16, vector=True),
            B=Field(grid16, vec),
        )
        t = table(st)
        assert en._dissipation(t, 3) == 0.0
        assert en._energy(t, 3) > 0.0

    def test_dissipation_by_independent_term_loop(self, grid16, constants_bz, rng):
        st = make_initial_data("decay_class", 1e-2, 8, grid16, constants_bz)
        N = 3
        total = 0.0
        from emlab.spectral import homog_norm

        for f, lo, hi in (
            (st.n, 0, N),
            (st.u, 0, N),
            (st.E, 0, N - 1),
            (st.B, 1, N - 1),
        ):
            for l in range(lo, hi + 1):
                total += homog_norm(f, l) ** 2
        t = table(st)
        assert en._dissipation(t, N) == pytest.approx(total, rel=1e-10)
        assert en._dissipation(t, N) <= en._energy(t, N)

    def test_energy_nondecreasing_in_order(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 1e-2, 8, grid16, constants_bz)
        t = table(st)
        vals = [en._energy(t, N) for N in range(5)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_resolution_warning(self, grid16):
        # a state concentrated at the top of the band trips the warning
        st = single_mode_state(grid16, kmod=(0, 0, 7), which="n")
        with pytest.warns(DerivativeOrderExceedsResolution):
            en._energy(table(st), 6)


class TestWindowFunctionals:
    def test_window_cross_check_with_full(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 1e-2, 8, grid16, constants_bz)
        e_win, d_win = en._window_energy(table(st), 0)
        # window k=0 covers orders 0..2 of the energy
        from emlab.spectral import homog_norm

        manual_e = sum(
            homog_norm(f, l) ** 2 for f in st.fields().values() for l in range(3)
        )
        assert e_win == pytest.approx(manual_e, rel=1e-10)
        manual_d = sum(homog_norm(st.n, l) ** 2 + homog_norm(st.u, l) ** 2 for l in range(3))
        manual_d += sum(homog_norm(st.E, l) ** 2 for l in range(2))
        manual_d += homog_norm(st.B, 1) ** 2
        assert d_win == pytest.approx(manual_d, rel=1e-10)

    def test_zero_state_window(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 0.0, 0, grid16, constants_bz)
        assert en._window_energy(table(st), 1) == (0.0, 0.0)

    def test_single_shell_closed_form(self, grid32):
        st = single_mode_state(grid32, amp=0.2, kmod=(0, 0, 2), which="n")
        base = l2_norm(st.n) ** 2
        e_win, d_win = en._window_energy(table(st), 1)
        expected = base * (2.0**2 + 2.0**4 + 2.0**6)
        assert e_win == pytest.approx(expected, rel=1e-12)
        assert d_win == pytest.approx(expected, rel=1e-12)  # only n loaded


class TestInteractive:
    def test_zero_state(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 0.0, 0, grid16, constants_bz)
        assert en._interactive(table(st), 0) == (0.0, 0.0, 0.0)

    def test_parallel_ue_closed_form(self, grid32):
        # u = E = (a cos kz, 0, 0): I_E = int u.E + int grad u : grad E
        a, kappa = 0.25, 2.0
        st_u = single_mode_state(grid32, amp=a, kmod=(0, 0, 2), which="u")
        st = PerturbationState(n=st_u.n, u=st_u.u, E=st_u.u, B=st_u.B)
        _, i_e, _ = en._interactive(table(st), 0)
        base = l2_norm(st.u) ** 2
        assert i_e == pytest.approx(base * (1.0 + kappa**2), rel=1e-12)

    def test_n_coupling_closed_form(self, grid32):
        # u = (a sin kz ez), n = a cos kz: int u . grad n = -a^2 k int sin^2 = -a^2 k L^3/2
        a, km = 0.2, 2
        x, y, z = grid32.coordinates()
        u = np.zeros((3, 32, 32, 32))
        u[2] = a * np.sin(km * z)
        n = a * np.cos(km * z)
        st = PerturbationState(
            n=Field.from_physical(grid32, n),
            u=Field.from_physical(grid32, u),
            E=Field.zeros(grid32, vector=True),
            B=Field.zeros(grid32, vector=True),
        )
        i_n, _, _ = en._interactive(table(st), 0)
        L = grid32.box_length
        # l=0 term: -a^2 km L^3 / 2; l=1 term: same times km^2
        expected = -(a**2) * km * L**3 / 2.0 * (1.0 + km**2)
        assert i_n == pytest.approx(expected, rel=1e-12)
        # independent check of the l=0 term by direct inner product
        direct = inner_product(st.u, gradient(st.n))
        assert direct == pytest.approx(-(a**2) * km * L**3 / 2.0, rel=1e-12)

    def test_cauchy_schwarz_bound(self, grid16, constants_bz):
        from emlab.spectral import homog_norm

        st = make_initial_data("decay_class", 1e-2, 4, grid16, constants_bz)
        i_n, _, _ = en._interactive(table(st), 0)
        bound = sum(
            homog_norm(st.u, l) * homog_norm(st.n, l + 1) for l in (0, 1)
        )
        assert abs(i_n) <= bound * (1.0 + 1e-12)


class TestEquivalentEnergies:
    def test_cross_ue_small_eps_is_plain_norm(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 1e-2, 4, grid16, constants_bz, include_transverse_e=True)
        from emlab.spectral import homog_norm

        base = homog_norm(st.u, 1) ** 2 + homog_norm(st.E, 1) ** 2
        val = en._cross_energy_ue(table(st), 1, 1e-9)
        assert val == pytest.approx(base, rel=1e-6)

    def test_cross_ue_equal_fields_closed_form(self, grid32):
        st_u = single_mode_state(grid32, amp=0.2, kmod=(0, 0, 2), which="u")
        st = PerturbationState(n=st_u.n, u=st_u.u, E=st_u.u, B=st_u.B)
        eps = 0.3
        base = 2.0 * l2_norm(st.u) ** 2
        # <u, E> = ||u||^2 here
        assert en._cross_energy_ue(table(st), 0, eps) == pytest.approx(
            base + eps * l2_norm(st.u) ** 2, rel=1e-12
        )

    def test_acoustic_energy_irrotational_mode(self, grid32, constants_bz):
        # u = (0, 0, a sin 2z): div u = 2a cos 2z
        a = 0.1
        x, y, z = grid32.coordinates()
        u = np.zeros((3, 32, 32, 32))
        u[2] = a * np.sin(2 * z)
        st = PerturbationState(
            n=Field.zeros(grid32),
            u=Field.from_physical(grid32, u),
            E=Field.zeros(grid32, vector=True),
            B=Field.zeros(grid32, vector=True),
        )
        psi = divergence(st.u)
        val = en._acoustic_energy(table(st), 0, 0.1, constants_bz.nu)
        assert val == pytest.approx(l2_norm(psi) ** 2, rel=1e-12)

    def test_acoustic_energy_solenoidal_u(self, grid32, constants_bz):
        # solenoidal u contributes nothing: G = nu^2 ||n||^2
        a = 0.1
        x, y, z = grid32.coordinates()
        u = np.zeros((3, 32, 32, 32))
        u[0] = a * np.sin(2 * z)  # depends on z only: divergence-free
        n = a * np.cos(x)
        st = PerturbationState(
            n=Field.from_physical(grid32, n),
            u=Field.from_physical(grid32, u),
            E=Field.zeros(grid32, vector=True),
            B=Field.zeros(grid32, vector=True),
        )
        val = en._acoustic_energy(table(st), 0, 0.1, constants_bz.nu)
        assert val == pytest.approx(constants_bz.nu**2 * l2_norm(st.n) ** 2, rel=1e-12)

    def test_certificates_hold_over_random_states(self, grid16, constants_bz):
        from emlab.spectral import homog_norm

        for seed in range(5):
            st = make_initial_data(
                "decay_class", 1e-2, seed, grid16, constants_bz, include_transverse_e=True
            )
            for k in (0, 1):
                base = homog_norm(st.u, k) ** 2 + homog_norm(st.E, k) ** 2
                val = en._cross_energy_ue(table(st), k, 0.1)
                assert (1 - 0.05) * base <= val <= (1 + 0.05) * base


class TestReportsAndMonitors:
    def test_report_row_keys(self, grid16, constants_bz):
        # the residuals and the time are the simulator's columns, not the monitor's
        st = make_initial_data("decay_class", 1e-2, 4, grid16, constants_bz)
        row = standard_monitor(constants_bz, energy_orders=(3,), window_orders=(0,), grad_norms=((0, "B"),))(st)
        assert sorted(row) == sorted(["E_3", "D_3", "window_E_0", "window_D_0", "I_n_0", "I_E_0", "I_B_0",
                                      "cross_uE_0", "acoustic_0", "grad0_B"])

    def test_report_takes_powers_once_per_sample(self, grid16, constants_bz, monkeypatch):
        st = make_initial_data("decay_class", 1e-2, 4, grid16, constants_bz)
        calls = []
        original = en._table
        monkeypatch.setattr(en, "_table", lambda s, orders: calls.append(s) or original(s, orders))
        monitor = standard_monitor(
            constants_bz,
            energy_orders=(1, 2, 3),
            window_orders=(0, 1, 2),
            grad_norms=((1, "u"), (2, "E")),
        )
        row = monitor(st)
        assert len(calls) == 1  # one table of |f_hat|^2 of n, u, E and B, shared by every functional
        monkeypatch.undo()
        # each order is its own reduction: a table of other orders agrees exactly
        t = table(st)
        for n in (1, 2, 3):
            assert row[f"E_{n}"] == en._energy(t, n)
            assert row[f"D_{n}"] == en._dissipation(t, n)
        for k in (0, 1, 2):
            assert (row[f"window_E_{k}"], row[f"window_D_{k}"]) == en._window_energy(t, k)
        assert row["grad1_u"] == en._grad_norm(t, 1, "u")
        assert row["grad2_E"] == en._grad_norm(t, 2, "E")

    def test_report_takes_cross_spectra_once_per_sample(self, grid16, constants_bz, monkeypatch):
        st = make_initial_data("decay_class", 1e-2, 4, grid16, constants_bz)
        calls = []
        original = en._table
        monkeypatch.setattr(en, "_table", lambda s, orders: calls.append(s) or original(s, orders))
        norms = ((0, "divu"), (1, "ndivu"), (2, "u"))
        row = standard_monitor(constants_bz, window_orders=(0, 1, 2), eps=0.1, grad_norms=norms)(st)
        assert len(calls) == 1  # one table: the cross terms of every window order, and div u
        monkeypatch.undo()

        def close(got, want):
            return abs(got - want) <= 1e-14 * max(abs(want), 1e-300)

        t = table(st)
        for k in (0, 1, 2):
            for name, want in zip(("I_n", "I_E", "I_B"), en._interactive(t, k)):
                assert close(row[f"{name}_{k}"], want)
            assert close(row[f"cross_uE_{k}"], en._cross_energy_ue(t, k, 0.1))
            assert close(row[f"acoustic_{k}"], en._acoustic_energy(t, k, 0.1, constants_bz.nu))
        for k, which in norms:
            assert close(row[f"grad{k}_{which}"], en._grad_norm(t, k, which))

    def test_window_energy_decay_balance_on_linear_run(self, grid16, constants_b0):
        # d/dt(window E) + lambda (window D) <= 0 for some lambda in (0, 1]
        st = make_initial_data("decay_class", 1e-8, 5, grid16, constants_b0)
        cfg = SolverConfig(end_time=2.0, output_stride=2)
        res = simulate(st, cfg, constants_b0, monitors=[standard_monitor(constants_b0)])
        t = np.asarray(res.log.times)
        e = np.asarray(res.log.columns["window_E_0"])
        d = np.asarray(res.log.columns["window_D_0"])
        dedt = np.gradient(e, t)
        mid = slice(1, -1)
        lam = -dedt[mid] / np.maximum(d[mid], 1e-300)
        assert np.all(dedt[mid] <= 1e-12 * e[0])
        assert 0.0 < np.min(lam)
        assert np.median(lam) <= 1.0

    def test_grad_norm_groups(self, grid16, constants_bz):
        st = make_initial_data("decay_class", 1e-2, 4, grid16, constants_bz)
        t = table(st)
        full = en._grad_norm(t, 0, "nuEB")
        manual = math.sqrt(sum(l2_norm(f) ** 2 for f in st.fields().values()))
        assert full == pytest.approx(manual, rel=1e-12)
        nd = en._grad_norm(t, 0, "ndivu")
        manual_nd = math.sqrt(l2_norm(st.n) ** 2 + l2_norm(divergence(st.u)) ** 2)
        assert nd == pytest.approx(manual_nd, rel=1e-12)

"""End-to-end runs of the emlab command line."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import emlab
from emlab import analysis, cli, model

# 8 radial nodes x 2 x 3 directions: fast, converged enough to fit every row
TINY_LINEAR = {"linear": {"radial_nodes": 8, "n_theta": 2, "n_phi": 3, "check_convergence": False}}
# N = 16 for two RK4 steps, sampled at both ends
TINY_SIMULATE = {"grid": {"points": 16}, "solver": {"end_time": 0.05}}
# the monitors of the sim32diag benchmark workload, and the CSV headers of
# those and of the default monitors
DIAG_MONITORS = {"energy_orders": [1, 2, 3], "window_orders": [0, 1, 2], "grad_norms": [[1, "u"], [2, "E"]]}
DIAG_HEADER = (
    "time,D_1,D_2,D_3,E_1,E_2,E_3,I_B_0,I_B_1,I_B_2,I_E_0,I_E_1,I_E_2,I_n_0,I_n_1,I_n_2,"
    "acoustic_0,acoustic_1,acoustic_2,cross_uE_0,cross_uE_1,cross_uE_2,divB_residual,gauss_residual,"
    "grad1_u,grad2_E,window_D_0,window_D_1,window_D_2,window_E_0,window_E_1,window_E_2"
)
DEFAULT_HEADER = (
    "time,D_3,E_3,I_B_0,I_E_0,I_n_0,acoustic_0,cross_uE_0,divB_residual,gauss_residual,window_D_0,window_E_0"
)


def _run(tmp_path, command, config, out, *flags):
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(config))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / out), *flags])


class TestLinear:
    def test_report_rows_metrics_and_rerun(self, tmp_path):
        assert _run(tmp_path, "linear", TINY_LINEAR, "first") == 0
        first = tmp_path / "first"
        report = json.loads((first / "decay_report.json").read_text())
        keys = sorted((r["quantity"], r["k"]) for r in report["rows"])
        assert keys == sorted((q, k) for q in ("full_state", "nuE", "n_only", "B_only") for k in (0, 1))
        assert all(isinstance(r["floor_contaminated"], bool) for r in report["rows"])
        metrics = report["metrics"]
        assert metrics["modes"] == 2 * 8 * 2  # k in {0, 1}, radial x theta nodes
        assert metrics["expm_fallbacks"] == 0
        assert metrics["max_eig_cond"] >= 1.0
        assert metrics["quadrature_s"] > 0.0 and metrics["fit_s"] > 0.0

        resolved = json.loads((first / "resolved_config.json").read_text())
        assert _run(tmp_path, "linear", resolved, "second") == 0
        again = json.loads((tmp_path / "second" / "decay_report.json").read_text())
        assert again["rows"] == report["rows"]

    def test_p_parameterization_matches_s(self, tmp_path):
        # data_class.p = 1 is the class s = 3 (1/p - 1/2) = 3/2
        config = {
            "constants": {"b_infty": [0.0, 0.0, 0.0]},
            "linear": {"radial_nodes": 100, "check_convergence": False, "k_list": [0],
                       "quantities": ["full_state"], "num_times": 12},
        }
        assert _run(tmp_path, "linear", {**config, "data_class": {"s": 1.5}}, "by_s") == 0
        assert _run(tmp_path, "linear", {**config, "data_class": {"p": 1.0}}, "by_p") == 0
        by_s, by_p = (json.loads((tmp_path / out / "decay_report.json").read_text()) for out in ("by_s", "by_p"))
        assert by_s["rows"] == by_p["rows"]

    def test_ci_fails_on_collapsed_density_at_zero_background(self, tmp_path):
        config = {
            "constants": {"b_infty": [0.0, 0.0, 0.0]},
            "linear": {"radial_nodes": 100, "check_convergence": False},
        }
        assert _run(tmp_path, "linear", config, "b0") == 0
        assert _run(tmp_path, "linear", config, "b0_ci", "--ci") == 1
        report = json.loads((tmp_path / "b0_ci" / "decay_report.json").read_text())
        failed = {r["quantity"] for r in report["rows"] if r["verdict"] != "pass"}
        assert failed == {"n_only", "n_divu"}
        assert all(r["floor_contaminated"] for r in report["rows"] if r["quantity"] in failed)


class TestSimulate:
    def test_outputs_and_byte_identical_rerun(self, tmp_path):
        assert _run(tmp_path, "simulate", TINY_SIMULATE, "first") == 0
        first = tmp_path / "first"
        header = (first / "timeseries.csv").read_text().splitlines()[0].split(",")
        for col in ("time", "E_3", "D_3", "window_E_0", "window_D_0", "I_n_0", "I_E_0", "I_B_0",
                    "cross_uE_0", "acoustic_0", "gauss_residual", "divB_residual"):
            assert col in header
        summary = json.loads((first / "summary.json").read_text())
        assert summary["gauss_within_budget"] is True

        resolved = json.loads((first / "resolved_config.json").read_text())
        assert _run(tmp_path, "simulate", resolved, "second") == 0
        for name in ("timeseries.csv", "summary.json"):
            assert (tmp_path / "second" / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("monitors, header", [({}, DEFAULT_HEADER), (DIAG_MONITORS, DIAG_HEADER)])
    def test_exact_header(self, tmp_path, monitors, header):
        assert _run(tmp_path, "simulate", {**TINY_SIMULATE, "monitors": monitors}, "sim") == 0
        assert (tmp_path / "sim" / "timeseries.csv").read_text().splitlines()[0] == header

    def test_removed_keys_are_rejected(self, tmp_path):
        assert _run(tmp_path, "simulate", {"monitors": {"eta": 0.1}}, "eta") == 2
        assert _run(tmp_path, "simulate", {"emit_plot_script": False}, "plot") == 2
        assert _run(tmp_path, "simulate", {"solver": {"dealias": True}}, "dealias") == 2
        assert _run(tmp_path, "inequalities", {"inequalities": {"grid_points": 16}}, "grid_points") == 2
        assert _run(tmp_path, "simulate", {"initial_data": {"s": 1.0}}, "initial_s") == 2
        # decay_class is the one random kind, and its plateau edge is fixed
        assert _run(tmp_path, "simulate", {"initial_data": {"kind": "low_freq"}}, "low_freq") == 2
        assert _run(tmp_path, "simulate", {"initial_data": {"kind": "flat_low"}}, "flat_low") == 2
        assert _run(tmp_path, "simulate", {"initial_data": {"rolloff_k": 2.0}}, "rolloff_k") == 2
        assert len(_leaves(cli.resolve_config({}))) == 41

    def test_a_data_class_acts_only_on_a_box_wider_than_2_pi(self, tmp_path, capsys):
        # on the default box every mode has |k| >= 1, the plateau edge, where
        # s no longer shapes the envelope: the setting is refused, not ignored
        config = {**TINY_SIMULATE, "data_class": {"s": 1.0}}
        assert _run(tmp_path, "simulate", config, "narrow") == 2
        assert "error: data_class: s = 1.0 cannot act" in capsys.readouterr().err
        wide = {**config, "grid": {"points": 16, "box_length": 4 * math.pi}}
        assert _run(tmp_path, "simulate", wide, "wide", "--ci") == 0

    @pytest.mark.parametrize("kind", ["bump", "single_mode"])
    def test_kinds_that_do_not_read_the_data_class_refuse_it(self, tmp_path, capsys, kind):
        # bump and single_mode data are the same for every s: a data class
        # other than 3/2 is refused naming data_class, even on a wide box
        wide = {"points": 16, "box_length": 4 * math.pi}
        config = {**TINY_SIMULATE, "grid": wide, "initial_data": {"kind": kind}, "data_class": {"s": 1.0}}
        assert _run(tmp_path, "simulate", config, "refused") == 2
        assert f"error: data_class: s = 1.0 cannot act on {kind} data" in capsys.readouterr().err

    def test_decay_class_data_read_the_data_class(self, tmp_path):
        # data_class.p = 1.2 is the class s = 3 (1/1.2 - 1/2) = 1, which the default decay_class data draw from;
        # the envelope depends on s only below |k| = 1, so the box is wider than 2 pi
        grid = {"points": 32, "box_length": 4 * math.pi}
        config = {**TINY_SIMULATE, "grid": grid}
        runs = {"by_p": {"p": 1.2}, "by_s": {"s": analysis.s_of_p(1.2)}, "default": {}}
        for out, data_class in runs.items():
            assert _run(tmp_path, "simulate", {**config, "data_class": data_class}, out) == 0
        by_p, by_s, default = ((tmp_path / out / "timeseries.csv").read_bytes() for out in runs)
        assert by_p == by_s != default

    def test_a_fault_inside_initial_data_is_not_a_config_error(self, tmp_path, monkeypatch):
        # only the argument checks of make_initial_data report a config error
        def failing_solve(source, nu):
            raise ValueError("fault in the Gauss solve")

        monkeypatch.setattr(model, "solve_gauss_longitudinal", failing_solve)
        with pytest.raises(ValueError, match="fault in the Gauss solve"):
            _run(tmp_path, "simulate", TINY_SIMULATE, "fault")

    def test_removed_constants_are_unknown_keys(self, tmp_path, capsys):
        # gamma and b_infty are the only parameters of the rescaled system
        assert _run(tmp_path, "simulate", {"constants": {"relaxation": 2.0}}, "relax") == 2
        assert "unknown config keys: ['constants.relaxation']" in capsys.readouterr().err


def _leaves(cfg: dict) -> list:
    return [leaf for value in cfg.values() for leaf in (_leaves(value) if isinstance(value, dict) else [value])]


def test_resolved_sections_are_fresh_copies():
    cli.resolve_config({})["grid"]["points"] = 16
    assert cli.resolve_config({})["grid"]["points"] == 32


# command, config and the section the error must name
INVALID_VALUES = {
    "solver.end_time": ("simulate", {"solver": {"end_time": -1}}, "solver"),
    "solver.cfl_safety=0": ("simulate", {"solver": {"cfl_safety": 0}}, "solver"),
    "solver.cfl_safety=-1": ("simulate", {"solver": {"cfl_safety": -1}}, "solver"),
    # finite reals and integers only: each of these once crashed or misled a run
    "solver.end_time=nan": ("simulate", {"solver": {"end_time": math.nan}}, "solver"),
    "solver.end_time=inf": ("simulate", {"solver": {"end_time": math.inf}}, "solver"),
    "solver.output_stride=2.5": ("simulate", {"solver": {"output_stride": 2.5}}, "solver"),
    "solver.gauss_projection_stride=2.5": ("simulate", {"solver": {"gauss_projection_stride": 2.5}}, "solver"),
    "solver.gauss_tol=nan": ("simulate", {"solver": {"gauss_tol": math.nan}}, "solver"),
    "solver.cfl_safety=inf": ("simulate", {"solver": {"cfl_safety": math.inf}}, "solver"),
    "solver.dt=inf": ("simulate", {"solver": {"dt": math.inf}}, "solver"),
    # booleans are not numbers, although Python counts them as integers
    "solver.output_stride=true": ("simulate", {"solver": {"output_stride": True}}, "solver"),
    "initial_data.amplitude=true": ("simulate", {"initial_data": {"amplitude": True}}, "initial_data"),
    "monitors.energy_orders=[true]": ("simulate", {"monitors": {"energy_orders": [True]}}, "monitors"),
    "grid.points": ("simulate", {"grid": {"points": 15}}, "grid"),
    "seed": ("simulate", {"seed": "x"}, "seed"),
    "constants.b_infty=2": ("simulate", {"constants": {"b_infty": [0, 1]}}, "constants"),
    "constants.b_infty=4": ("linear", {"constants": {"b_infty": [0, 1, 0, 5]}}, "constants"),
    "monitors.grad_norms": ("simulate", {"monitors": {"grad_norms": [[1, "x"]]}}, "monitors"),
    "monitors.eps": ("simulate", {"monitors": {"eps": 2.0}}, "monitors"),
    "data_class.p": ("linear", {"data_class": {"p": "x"}}, "data_class"),
    "data_class.s": ("linear", {"data_class": {"s": "x"}}, "data_class"),
    "linear.radial_nodes": ("linear", {"linear": {"radial_nodes": 0}}, "linear"),
    "linear.n_theta": ("linear", {"linear": {"n_theta": 0}}, "linear"),
    "linear.quantities": ("linear", {"linear": {"quantities": ["bogus"]}}, "linear"),
    "inequalities.trials=0": ("inequalities", {"inequalities": {"trials": 0}}, "inequalities"),
    "inequalities.trials=-3": ("inequalities", {"inequalities": {"trials": -3}}, "inequalities"),
    # checked whatever the kind, so under the default decay_class too
    "initial_data.mode": ("simulate", {"initial_data": {"mode": "x"}}, "initial_data"),
    "initial_data.mode=[true, 0, 0]": (
        "simulate", {"initial_data": {"kind": "single_mode", "mode": [True, 0, 0]}}, "initial_data"
    ),
    # simulate's decay_class data read the one data class too
    "data_class.s/simulate": ("simulate", {"data_class": {"s": "x"}}, "data_class"),
    "fit.window=x": ("fit", {"fit": {"window": "x"}}, "fit"),
    "fit.window=1": ("fit", {"fit": {"window": [1]}}, "fit"),
    "fit.target": ("fit", {"fit": {"target": "x"}}, "fit"),
    "fit.tolerance": ("fit", {"fit": {"tolerance": "x", "target": -1}}, "fit"),
    # the grid and the constants take finite reals only, and no booleans
    "grid.box_length=inf": ("simulate", {"grid": {"points": 16, "box_length": math.inf}}, "grid"),
    "grid.box_length=true": ("simulate", {"grid": {"points": 16, "box_length": True}}, "grid"),
    "constants.gamma=true": ("simulate", {"constants": {"gamma": True}}, "constants"),
    "constants.gamma=inf": ("linear", {"constants": {"gamma": math.inf}}, "constants"),
    "constants.b_infty=true": ("simulate", {"constants": {"b_infty": [True, 0, 1]}}, "constants"),
}


# fit CSVs that parse as CSV but not as a series: each error names the file
BAD_FIT_CSVS = {
    "times_not_increasing": "time,E_3\n" + "".join(
        f"{t},{math.exp(-t)}\n" for t in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.10, 0.11, 0.12)
    ),
    "non_numeric_cell": "time,E_3\n" + "".join(
        f"{0.1 * i},{'x' if i == 5 else math.exp(-0.1 * i)}\n" for i in range(13)
    ),
}


class TestConfigErrors:
    @pytest.mark.parametrize("case", sorted(INVALID_VALUES))
    def test_invalid_values_are_config_errors(self, tmp_path, capsys, case):
        # exit 1 is reserved for failed --ci verdicts; no traceback escapes main
        command, config, section = INVALID_VALUES[case]
        flags = ()
        if command == "fit":  # 13 positive samples, enough for an eight-sample fit
            csv_path = tmp_path / "series.csv"
            csv_path.write_text("time,E_3\n" + "".join(f"{0.1 * i},{math.exp(-0.1 * i)}\n" for i in range(13)))
            flags = ("--csv", str(csv_path))
        assert _run(tmp_path, command, {"grid": {"points": 16}, **config}, "out", *flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {section}:")

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"grid": 5}),
        ("simulate", {"solver": []}),
        ("simulate", {"data_class": 2}),
        ("simulate", {"monitors": None}),
        ("linear", {"linear": 3}),
    ])
    def test_non_object_section_is_a_config_error(self, tmp_path, capsys, command, config):
        # once a TypeError traceback, exit 1, the code of a failed --ci verdict
        assert _run(tmp_path, command, config, "out") == 2
        (section,) = config
        assert capsys.readouterr().err.startswith(f"error: {section}: must be an object")

    @pytest.mark.parametrize("output_dir", [5, None])
    def test_output_dir_must_be_a_string(self, tmp_path, monkeypatch, capsys, output_dir):
        # without --out, which _run always passes, the config's output_dir is used
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY_SIMULATE, "output_dir": output_dir}))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: output_dir:")

    @pytest.mark.parametrize("case", sorted(BAD_FIT_CSVS))
    def test_bad_fit_csv_is_a_config_error(self, tmp_path, capsys, case):
        csv_path = tmp_path / "series.csv"
        csv_path.write_text(BAD_FIT_CSVS[case])
        assert _run(tmp_path, "fit", {}, "out", "--csv", str(csv_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {csv_path}:")


class TestFit:
    def test_refits_a_simulated_series(self, tmp_path):
        # one sample per step, enough for the eight-sample fits
        config = {"grid": {"points": 16}, "solver": {"end_time": 0.4, "output_stride": 1}}
        assert _run(tmp_path, "simulate", config, "sim") == 0
        csv_path = str(tmp_path / "sim" / "timeseries.csv")
        fit_config = {"fit": {"columns": ["E_3", "D_3"]}}
        assert _run(tmp_path, "fit", fit_config, "fit", "--csv", csv_path, "--ci") == 0
        report = json.loads((tmp_path / "fit" / "fit_report.json").read_text())
        assert sorted(report["fits"]) == ["D_3", "E_3"]
        for fit in report["fits"].values():
            assert math.isfinite(fit["slope"]) and 0.0 <= fit["r_squared"] <= 1.0
            assert fit["verdict"] is None  # no target given


class TestInequalities:
    def test_plateau_clean_seed_passes_ci(self, tmp_path):
        config = {"seed": 1, "inequalities": {"trials": 20}}
        assert _run(tmp_path, "inequalities", config, "ineq", "--ci") == 0
        payload = json.loads((tmp_path / "ineq" / "inequality_report.json").read_text())
        assert payload["all_plateaued"] is True
        assert len(payload["reports"]) == 11
        keys = ["exact", "lemma", "max_ratio", "params", "plateau_ok", "seed", "trials"]
        assert all(sorted(r) == keys for r in payload["reports"])
        commutators = [r for r in payload["reports"] if r["lemma"] == "commutator"]
        assert len(commutators) == 2
        assert all(r["params"]["identity_residual"] <= 1e-10 for r in commutators)

    def test_byte_identical_rerun(self, tmp_path):
        assert _run(tmp_path, "inequalities", {"inequalities": {"trials": 20}}, "first") == 0
        first = tmp_path / "first"
        resolved = json.loads((first / "resolved_config.json").read_text())
        assert _run(tmp_path, "inequalities", resolved, "second") == 0
        name = "inequality_report.json"
        assert (tmp_path / "second" / name).read_bytes() == (first / name).read_bytes()


def _fresh_interpreter(script: str) -> str:
    """Run a script in a new interpreter that imports this emlab; its stdout."""
    src = str(Path(emlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestHoldFreedMemory:
    def test_sets_glibc_mmap_and_trim_thresholds(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        cli._hold_freed_memory()
        assert calls == [(-3, 4 << 20), (-1, 8 << 20)]  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD

    def test_a_c_library_without_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        cli._hold_freed_memory()


class TestImports:
    def test_linear_and_fit_load_no_scipy(self, tmp_path):
        # no command loads scipy.fft: the transforms run on numpy.fft, and
        # linear and fit load no scipy at all
        config = tmp_path / "linear.json"
        config.write_text(json.dumps(TINY_LINEAR))
        csv = tmp_path / "series.csv"
        times = [1.0 + 0.5 * i for i in range(16)]
        csv.write_text("time,decay\n" + "".join(f"{t!r},{(1.0 + t) ** -0.75!r}\n" for t in times))
        sim, ineq = tmp_path / "sim.json", tmp_path / "ineq.json"
        sim.write_text(json.dumps(TINY_SIMULATE))
        ineq.write_text(json.dumps({"inequalities": {"trials": 20}}))
        loaded = _fresh_interpreter(f"""
            import sys
            from emlab import cli
            assert cli.main(["linear", "--config", {str(config)!r}, "--out", {str(tmp_path / "lin")!r}]) == 0
            assert cli.main(["fit", "--csv", {str(csv)!r}, "--out", {str(tmp_path / "fit")!r}]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            cli.main(["simulate", "--config", {str(sim)!r}, "--out", {str(tmp_path / "sim")!r}])
            cli.main(["inequalities", "--config", {str(ineq)!r}, "--out", {str(tmp_path / "ineq")!r}])
            print("scipy.fft" in sys.modules)
        """)
        assert loaded.splitlines() == ["[]", "False"]
        assert (tmp_path / "sim" / "timeseries.csv").exists()
        assert (tmp_path / "ineq" / "inequality_report.json").exists()
        fits = json.loads((tmp_path / "fit" / "fit_report.json").read_text())["fits"]
        assert fits["decay"]["slope"] == pytest.approx(-0.75)

    def test_import_loads_no_numpy_polynomial(self):
        # the quadrature rules are spectral's own, not numpy's leggauss
        loaded = _fresh_interpreter("""
            import sys
            import emlab.cli
            print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
        """)
        assert loaded == "[]"

    def test_cli_path_loads_neither_scipy_optimize_nor_linalg(self):
        # a fresh interpreter: this test process may have loaded them already
        loaded = _fresh_interpreter("""
            import math, sys
            import emlab.cli
            from emlab import linear
            from emlab.model import PhysicalConstants, make_initial_data
            from emlab.spectral import GridSpec
            constants = PhysicalConstants()
            make_initial_data("decay_class", 1e-2, 0, GridSpec(16, 2.0 * math.pi), constants)
            quad = linear.QuadratureSpec(radial_nodes=4, n_theta=2, n_phi=3, check_convergence=False)
            metrics = {}
            linear.decay_report(constants, s=1.5, k_list=[0], quantities=["full_state"], quad=quad,
                                num_times=8, metrics=metrics)
            assert metrics["modes"] == 4 * 2 and metrics["expm_fallbacks"] == 0
            print(sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules))
        """)
        assert loaded == "[]"

"""End-to-end runs of the emlab command line."""

import json
import math

from emlab import cli

# 8 radial nodes x 2 x 3 directions: fast, converged enough to fit every row
TINY_LINEAR = {"linear": {"radial_nodes": 8, "n_theta": 2, "n_phi": 3, "check_convergence": False}}
# N = 16 for two RK4 steps, sampled at both ends
TINY_SIMULATE = {"grid": {"points": 16}, "solver": {"end_time": 0.05}}


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
        assert metrics["modes"] == 2 * 8 * 2 * 3  # k in {0, 1}, radial x directions
        assert metrics["expm_fallbacks"] == 0
        assert metrics["max_eig_cond"] >= 1.0
        assert metrics["quadrature_s"] > 0.0 and metrics["fit_s"] > 0.0

        resolved = json.loads((first / "resolved_config.json").read_text())
        assert _run(tmp_path, "linear", resolved, "second") == 0
        again = json.loads((tmp_path / "second" / "decay_report.json").read_text())
        assert again["rows"] == report["rows"]

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

    def test_removed_keys_are_rejected(self, tmp_path):
        assert _run(tmp_path, "simulate", {"monitors": {"eta": 0.1}}, "eta") == 2
        assert _run(tmp_path, "simulate", {"emit_plot_script": False}, "plot") == 2


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
        commutators = [r for r in payload["reports"] if r["lemma"] == "commutator"]
        assert len(commutators) == 2
        assert all(r["params"]["identity_residual"] <= 1e-10 for r in commutators)

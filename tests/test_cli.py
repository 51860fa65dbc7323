"""End-to-end runs of the emlab command line."""

import json

from emlab import cli

# 8 radial nodes x 2 x 3 directions: fast, converged enough to fit every row
TINY_LINEAR = {"linear": {"radial_nodes": 8, "n_theta": 2, "n_phi": 3, "check_convergence": False}}


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

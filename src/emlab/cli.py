"""Experiment orchestration: config schema, subcommands, deterministic outputs.

Four subcommands share one JSON config file:

  simulate      nonlinear run with monitors -> timeseries.csv + summary.json
  linear        per-mode decay analysis     -> decay_report.json
  inequalities  oracle battery              -> inequality_report.json
  fit           offline refit of a CSV      -> fit_report.json

Every run writes resolved_config.json with all defaults made explicit;
re-running from that file reproduces the outputs byte for byte on the same
platform, except the wall times in the ``metrics`` block of
decay_report.json.  Unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, energetics, inequalities, linear
from .analysis import NormSeries, fit_decay, s_of_p
from .dynamics import SolverConfig, simulate
from .errors import ConfigError, EmlabError
from .model import PhysicalConstants, make_initial_data
from .spectral import GridSpec

__all__ = ["main", "load_config", "resolve_config", "run_simulate", "run_linear", "run_inequalities", "run_fit"]


_DEFAULTS: dict = {
    "experiment": "simulate",
    "seed": 0,
    "output_dir": "runs/out",
    "grid": {"points": 32, "box_length": 2.0 * math.pi},
    "constants": {
        "gamma": 5.0 / 3.0,
        "pressure_const": 1.0,
        "relaxation": 1.0,
        "debye": 1.0,
        "light_speed_inv": 1.0,
        "n_infty": 1.0,
        "b_infty": [0.0, 0.0, 1.0],
    },
    "initial_data": {
        "kind": "flat_low",
        "amplitude": 1e-2,
        "s": 1.5,
        "rolloff_width": 0.5,
        "rolloff_k": 2.0,
        "mode": [1, 0, 0],
        "bump_radius_fraction": 0.2,
        "include_transverse_e": False,
        "normalization": "physical",
    },
    "solver": {
        "dt": "auto",
        "end_time": 1.0,
        "dealias": True,
        "gauss_projection_stride": 50,
        "output_stride": 10,
        "gauss_tol": 1e-6,
        "cfl_safety": 0.5,
    },
    "monitors": {
        "energy_orders": [3],
        "window_orders": [0],
        "eps": 0.1,
        "grad_norms": [],
    },
    "data_class": {"s": 1.5, "p": None},
    "linear": {
        "k_list": [0, 1],
        "quantities": None,
        "fit_window": [20.0, 500.0],
        "num_times": 32,
        "radial_nodes": 800,
        "xi_max": None,
        "n_theta": 32,
        "n_phi": 64,
        "check_convergence": True,
        "tolerance": analysis.LINEAR_FIT_TOLERANCE,
    },
    "inequalities": {"trials": 500, "grid_points": 16},
    "fit": {"window": None, "columns": None, "target": None, "tolerance": analysis.NONLINEAR_FIT_TOLERANCE},
}


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    out = {}
    for key, dval in defaults.items():
        if key in given:
            gval = given[key]
            if isinstance(dval, dict) and isinstance(gval, dict):
                out[key] = _merge(dval, gval, f"{path}{key}.")
            else:
                out[key] = gval
        else:
            out[key] = dval
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    return out


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return resolve_config(raw)


def resolve_config(raw: dict) -> dict:
    cfg = _merge(_DEFAULTS, raw)
    if cfg["experiment"] not in {"simulate", "linear", "inequalities", "fit"}:
        raise ConfigError(f"unknown experiment {cfg['experiment']!r}")
    dc = cfg["data_class"]
    if dc["p"] is not None:
        dc["s"] = s_of_p(float(dc["p"]))
    return cfg


def _constants(cfg: dict) -> PhysicalConstants:
    c = cfg["constants"]
    return PhysicalConstants(
        gamma=float(c["gamma"]),
        pressure_const=float(c["pressure_const"]),
        relaxation=float(c["relaxation"]),
        debye=float(c["debye"]),
        light_speed_inv=float(c["light_speed_inv"]),
        n_infty=float(c["n_infty"]),
        b_infty=tuple(c["b_infty"]),
    )


def _grid(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(int(g["points"]), float(g["box_length"]))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, times, columns: dict[str, list[float]]):
    names = ["time"] + sorted(columns)
    lines = [",".join(names)]
    for i, t in enumerate(times):
        row = [_fmt(t)] + [_fmt(columns[name][i]) for name in sorted(columns)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _emit_resolved(cfg: dict, outdir: Path):
    _write_json(outdir / "resolved_config.json", cfg)


def run_simulate(cfg: dict, outdir: Path) -> dict:
    constants = _constants(cfg)
    grid = _grid(cfg)
    ini = cfg["initial_data"]
    state = make_initial_data(
        ini["kind"],
        float(ini["amplitude"]),
        int(cfg["seed"]),
        grid,
        constants,
        s=float(ini["s"]),
        rolloff_width=float(ini["rolloff_width"]),
        rolloff_k=float(ini["rolloff_k"]),
        mode=tuple(ini["mode"]),
        bump_radius_fraction=float(ini["bump_radius_fraction"]),
        include_transverse_e=bool(ini["include_transverse_e"]),
        normalization=ini["normalization"],
    )
    sv = cfg["solver"]
    config = SolverConfig(
        dt=sv["dt"] if sv["dt"] == "auto" else float(sv["dt"]),
        end_time=float(sv["end_time"]),
        dealias=bool(sv["dealias"]),
        gauss_projection_stride=sv["gauss_projection_stride"],
        output_stride=int(sv["output_stride"]),
        gauss_tol=float(sv["gauss_tol"]),
        cfl_safety=float(sv["cfl_safety"]),
    )
    mon = cfg["monitors"]
    monitor = energetics.standard_monitor(
        constants,
        energy_orders=tuple(mon["energy_orders"]),
        window_orders=tuple(mon["window_orders"]),
        eps=float(mon["eps"]),
        grad_norms=tuple((int(k), str(w)) for k, w in mon["grad_norms"]),
    )
    result = simulate(state, config, constants, monitors=[monitor])
    log = result.log
    _write_csv(outdir / "timeseries.csv", log.times, log.columns)

    summary = dict(log.metadata)
    e_cols = [c for c in log.columns if c.startswith("E_")]
    if e_cols:
        name = sorted(e_cols)[0]
        vals = np.asarray(log.columns[name])
        summary[f"{name}_monotone"] = bool(
            analysis.nonincreasing_within(np.asarray(log.times), vals)
        )
        summary[f"{name}_initial"] = float(vals[0])
        summary[f"{name}_final"] = float(vals[-1])
        d_name = "D" + name[1:]
        if d_name in log.columns:
            summary[f"int_{d_name}"] = float(
                np.trapezoid(np.asarray(log.columns[d_name]), np.asarray(log.times))
            )
    _write_json(outdir / "summary.json", summary)
    return summary


def run_linear(cfg: dict, outdir: Path) -> dict:
    constants = _constants(cfg)
    lc = cfg["linear"]
    quad = linear.QuadratureSpec(
        radial_nodes=int(lc["radial_nodes"]),
        xi_max=lc["xi_max"],
        n_theta=int(lc["n_theta"]),
        n_phi=int(lc["n_phi"]),
        check_convergence=bool(lc["check_convergence"]),
    )
    metrics: dict = {}
    rows = linear.decay_report(
        constants,
        s=float(cfg["data_class"]["s"]),
        k_list=[int(k) for k in lc["k_list"]],
        quantities=lc["quantities"],
        window=tuple(float(x) for x in lc["fit_window"]),
        num_times=int(lc["num_times"]),
        quad=quad,
        tolerance=float(lc["tolerance"]),
        metrics=metrics,
    )
    report = {
        "s": float(cfg["data_class"]["s"]),
        "rows": [r.as_dict() for r in rows],
        "all_pass": all(r.fit.verdict == "pass" for r in rows),
        "metrics": metrics,
    }
    _write_json(outdir / "decay_report.json", report)
    return report


def run_inequalities(cfg: dict, outdir: Path) -> dict:
    ic = cfg["inequalities"]
    reports = inequalities.default_suite(
        trials=int(ic["trials"]),
        seed=int(cfg["seed"]),
        grid=None if int(ic["grid_points"]) == 16 else GridSpec(int(ic["grid_points"]), 2.0 * math.pi),
    )
    payload = {
        "reports": [r.as_dict() for r in reports],
        "all_plateaued": all(r.plateau_ok for r in reports),
    }
    _write_json(outdir / "inequality_report.json", payload)
    return payload


def run_fit(cfg: dict, outdir: Path, csv_path: str | Path) -> dict:
    import csv as csv_mod

    path = Path(csv_path)
    try:
        with path.open() as fh:
            rows = list(csv_mod.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows or "time" not in rows[0]:
        raise ConfigError(f"{path}: need a CSV with a 'time' column")
    times = np.array([float(r["time"]) for r in rows])
    fc = cfg["fit"]
    columns = fc["columns"] or [c for c in rows[0] if c != "time"]
    window = tuple(fc["window"]) if fc["window"] else None
    out: dict = {"source": str(path), "fits": {}}
    for col in columns:
        if col not in rows[0]:
            raise ConfigError(f"{path}: no column {col!r}")
        vals = np.array([float(r[col]) for r in rows])
        keep = vals > 0
        if keep.sum() < 8:
            out["fits"][col] = {"error": "insufficient positive samples"}
            continue
        series = NormSeries(label=col, times=times[keep], values=vals[keep])
        try:
            fit = fit_decay(
                series,
                window=window,
                target=fc["target"],
                tol=float(fc["tolerance"]),
            )
        except EmlabError as exc:
            out["fits"][col] = {"error": str(exc)}
            continue
        out["fits"][col] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "window": list(fit.window),
            "target": fit.target,
            "verdict": fit.verdict,
        }
    _write_json(outdir / "fit_report.json", out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emlab",
        description="Pseudo-spectral laboratory for a damped electron-fluid/Maxwell system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "linear", "inequalities", "fit"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="JSON config file")
        p.add_argument("--out", required=False, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--ci", action="store_true", help="nonzero exit on failed verdicts")
        if name == "fit":
            p.add_argument("--csv", required=True, help="time-series CSV to refit")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else resolve_config({})
        cfg["experiment"] = args.command
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        if args.out:
            cfg["output_dir"] = args.out
        outdir = Path(cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        _emit_resolved(cfg, outdir)

        if args.command == "simulate":
            summary = run_simulate(cfg, outdir)
            ok = summary.get("gauss_within_budget", True)
        elif args.command == "linear":
            report = run_linear(cfg, outdir)
            ok = report["all_pass"]
        elif args.command == "inequalities":
            payload = run_inequalities(cfg, outdir)
            ok = payload["all_plateaued"]
        else:
            report = run_fit(cfg, outdir, args.csv)
            verdicts = [f.get("verdict") for f in report["fits"].values()]
            ok = all(v in (None, "pass") for v in verdicts) and not any(
                "error" in f for f in report["fits"].values()
            )
    except (EmlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.ci and not ok:
        print("ci: failed verdicts present", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

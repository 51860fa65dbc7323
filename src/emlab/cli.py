"""Experiment orchestration: config schema, subcommands, deterministic outputs.

Four subcommands share one JSON config file:

  simulate      nonlinear run with monitors -> timeseries.csv + summary.json
  linear        per-mode decay analysis     -> decay_report.json
  inequalities  oracle battery              -> inequality_report.json
  fit           offline refit of a CSV      -> fit_report.json

Every run writes resolved_config.json with all defaults made explicit;
re-running from that file reproduces the outputs byte for byte on the same
platform, except the wall times in the ``metrics`` block of
decay_report.json.  Unknown config keys exit 2, as does a resolved_config.json
carrying a removed key (such as the old constants besides gamma and b_infty,
``solver.dealias``: the solver always dealiases,
``inequalities.grid_points``: the suite's grids are fixed,
``initial_data.s``: the data class is set once, in ``data_class``, or
``initial_data.rolloff_k`` and the kinds ``low_freq`` and ``flat_low``:
``decay_class`` is the one random kind).
Section defaults are the library's own; an invalid value, or a section
given as a non-object, exits 2 with ``error: <section>: ...``, keeping exit
1 for failed --ci verdicts.

``data_class`` (s, or a Lebesgue exponent p mapped to s = 3(1/p - 1/2)) is
the one setting of the data class: ``linear`` reports the decay rates of
that class, and ``simulate`` draws ``decay_class`` initial data (the
default kind) from it, under the same envelope with its plateau edge at
|k| = 1.  An s other than 3/2 acts only on a box with modes below that edge
(box_length > 2 pi), and elsewhere exits 2 naming ``data_class``.  The
other initial-data kinds do not read it, so with them any s other than 3/2
exits 2 naming ``data_class`` too; the other commands do not read it.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import analysis, energetics, inequalities, linear
from .analysis import NormSeries, check_s, fit_decay, s_of_p
from .dynamics import SolverConfig, simulate
from .errors import (
    ConfigError, EmlabError, InsufficientSamples, InvalidArgument, NonpositiveValue, SOutOfRange, is_count
)
from .model import PhysicalConstants, make_initial_data
from .spectral import GridSpec

__all__ = ["main", "load_config", "resolve_config", "run_simulate", "run_linear", "run_inequalities", "run_fit"]


def _keyword_defaults(fn, *skip: str) -> dict:
    """The parameters of fn that have defaults, less the skipped ones."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty and p.name not in skip}


_DEFAULTS: dict = {
    "experiment": "simulate",
    "seed": 0,
    "output_dir": "runs/out",
    "grid": {"points": 32, "box_length": 2.0 * math.pi},
    "constants": asdict(PhysicalConstants()),
    "initial_data": {"kind": "decay_class", "amplitude": 1e-2, **_keyword_defaults(make_initial_data, "s")},
    "solver": asdict(SolverConfig()),
    "monitors": _keyword_defaults(energetics.standard_monitor),
    "data_class": {"s": 1.5, "p": None},
    "linear": {
        **asdict(linear.QuadratureSpec()),
        **_keyword_defaults(linear.decay_report, "quad", "metrics"),
    },
    "inequalities": _keyword_defaults(inequalities.default_suite, "seed"),
    "fit": {"window": None, "columns": None, "target": None, "tolerance": analysis.NONLINEAR_FIT_TOLERANCE},
}


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    out = {}
    for key, dval in defaults.items():
        # a default section is merged with {}, so the caller gets its own copy
        gval = given.get(key, {} if isinstance(dval, dict) else dval)
        if isinstance(dval, dict):
            if not isinstance(gval, dict):
                raise ConfigError(f"{path}{key}: must be an object, got {gval!r}")
            out[key] = _merge(dval, gval, f"{path}{key}.")
        else:
            out[key] = gval
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
        dc["s"] = _section("data_class", lambda: s_of_p(dc["p"]))
    _section("data_class", lambda: check_s(dc["s"]))
    return cfg


def _section(name: str, build):
    """build(), with an InvalidArgument, which only argument checks raise,
    reported as a ConfigError naming the section its values came from:
    ``data_class`` for s (SOutOfRange), else ``name``.  Any other error is a
    fault of the program and propagates."""
    try:
        return build()
    except InvalidArgument as exc:
        raise ConfigError(f"{'data_class' if isinstance(exc, SOutOfRange) else name}: {exc}") from exc


def _seed(cfg: dict) -> int:
    if not is_count(cfg["seed"]):
        raise ConfigError(f"seed: must be a nonnegative integer, got {cfg['seed']!r}")
    return cfg["seed"]


def _constants(cfg: dict) -> PhysicalConstants:
    return _section("constants", lambda: PhysicalConstants(**cfg["constants"]))


def _grid(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    return _section("grid", lambda: GridSpec(g["points"], g["box_length"]))


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


def run_simulate(cfg: dict, outdir: Path) -> dict:
    constants = _constants(cfg)
    grid = _grid(cfg)
    seed = _seed(cfg)
    state = _section("initial_data", lambda: make_initial_data(
        seed=seed, grid=grid, constants=constants, s=cfg["data_class"]["s"], **cfg["initial_data"]
    ))
    config = _section("solver", lambda: SolverConfig(**cfg["solver"]))
    monitor = _section("monitors", lambda: energetics.standard_monitor(constants, **cfg["monitors"]))
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
    report_args = dict(cfg["linear"])
    quad_args = {f.name: report_args.pop(f.name) for f in fields(linear.QuadratureSpec)}
    quad = _section("linear", lambda: linear.QuadratureSpec(**quad_args))
    s = cfg["data_class"]["s"]
    metrics: dict = {}
    rows = _section("linear", lambda: linear.decay_report(
        constants, s=s, quad=quad, metrics=metrics, **report_args
    ))
    report = {
        "s": s,
        "rows": [r.as_dict() for r in rows],
        "all_pass": all(r.fit.verdict == "pass" for r in rows),
        "metrics": metrics,
    }
    _write_json(outdir / "decay_report.json", report)
    return report


def run_inequalities(cfg: dict, outdir: Path) -> dict:
    seed = _seed(cfg)
    reports = _section("inequalities", lambda: inequalities.default_suite(cfg["inequalities"]["trials"], seed))
    payload = {
        "reports": [asdict(r) for r in reports],
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
    fc = cfg["fit"]
    columns = fc["columns"] or [c for c in rows[0] if c != "time"]
    missing = [c for c in columns if c not in rows[0]]
    if missing:
        raise ConfigError(f"{path}: no column {missing[0]!r}")
    try:
        table = {c: np.array([float(r[c]) for r in rows]) for c in ["time", *columns]}
    except (TypeError, ValueError) as exc:  # a non-numeric or missing cell
        raise ConfigError(f"{path}: {exc}") from exc
    times = table["time"]
    if not np.all(np.diff(times) > 0):
        raise ConfigError(f"{path}: times must be strictly increasing")
    out: dict = {"source": str(path), "fits": {}}
    for col in columns:
        vals = table[col]
        keep = vals > 0
        if keep.sum() < analysis._MIN_FIT_SAMPLES:
            out["fits"][col] = {"error": "insufficient positive samples"}
            continue
        series = NormSeries(label=col, times=times[keep], values=vals[keep])
        try:
            fit = _section("fit", lambda: fit_decay(
                series, window=fc["window"] or None, target=fc["target"], tol=fc["tolerance"]
            ))
        except (InsufficientSamples, NonpositiveValue) as exc:
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


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _hold_freed_memory() -> None:
    """Have glibc serve arrays up to 4 MiB from the heap and keep up to 8 MiB
    of freed heap instead of returning it to the system.

    The inequality oracles free and reallocate arrays of a few hundred kB
    block after block.  At glibc's start-up thresholds (128 kB, raised only
    by the largest mmapped array freed so far) it trims the heap after a
    block and the next block faults the pages back in: about 30K minor
    faults over the 500-trial suite, against 1.3K with these values, which
    are glibc's own rule (trim at twice the mmap threshold) fixed from the
    start.  Where the C library has no mallopt nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 8 << 20)


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
        if not isinstance(cfg["output_dir"], str):
            raise ConfigError(f"output_dir: must be a path string, got {cfg['output_dir']!r}")
        outdir = Path(cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "resolved_config.json", cfg)
        _hold_freed_memory()

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

"""Correctness check of one workload call against outputs recorded earlier.

``extract`` reads the quantities that are compared from a call's output
directory; ``record_reference.py`` stores them per workload and config seed
in ``reference.json``.  ``check`` returns a list of problems, empty when the
call passes.

The tolerance admits roundoff-level changes such as a reordered FFT path
(about 1e-12 relative) and nothing near the size of a real change in the
numerics.  Verdict labels of the linear fits are not compared: they are a
policy that is expected to be redefined, while slopes and r^2 are numbers.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-9
# Monitor columns at roundoff level carry no signal to compare; the Gauss
# residual is checked through gauss_within_budget instead.
ROUNDOFF_COLUMNS = {"gauss_residual", "divB_residual"}


def _read_csv(path: Path) -> dict[str, list[float]]:
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    return {name: [float(r[name]) for r in rows] for name in rows[0]} if rows else {}


def extract(command: str, outdir: Path) -> dict:
    outdir = Path(outdir)
    if command == "simulate":
        columns = _read_csv(outdir / "timeseries.csv")
        return {name: values for name, values in columns.items() if name not in ROUNDOFF_COLUMNS}
    if command == "linear":
        report = json.loads((outdir / "decay_report.json").read_text())
        return {
            f"{row['quantity']}/k={row['k']}": [row["fitted_slope"], row["r_squared"]]
            for row in report["rows"]
        }
    report = json.loads((outdir / "inequality_report.json").read_text())
    return {
        f"{i}:{r['lemma']}": [r["max_ratio"]] for i, r in enumerate(report["reports"])
    }


def _close(got: list[float], want: list[float], scale: float) -> bool:
    return len(got) == len(want) and all(
        abs(g - w) <= RTOL * scale for g, w in zip(got, want)
    )


def _invariants(command: str, outdir: Path) -> list[str]:
    problems = []
    if command == "simulate":
        summary = json.loads((outdir / "summary.json").read_text())
        if summary.get("gauss_within_budget") is not True:
            problems.append("gauss_within_budget is not true")
        monotone = [k for k in summary if k.endswith("_monotone")]
        if not monotone or not all(summary[k] is True for k in monotone):
            problems.append(f"energy-monotone flag missing or false: {monotone}")
        numbers = [v for v in summary.values() if isinstance(v, float)]
        numbers += [x for col in _read_csv(outdir / "timeseries.csv").values() for x in col]
        if not all(math.isfinite(x) for x in numbers):
            problems.append("non-finite value in summary.json or timeseries.csv")
    elif command == "inequalities":
        report = json.loads((outdir / "inequality_report.json").read_text())
        failed = [r["lemma"] for r in report["reports"] if not r["plateau_ok"]]
        if failed:
            problems.append(f"plateau_ok false for {failed}")
    return problems


def check(command: str, outdir: Path, reference: dict) -> list[str]:
    """Problems found in the outputs under ``outdir``; empty means correct."""
    outdir = Path(outdir)
    try:
        problems = _invariants(command, outdir)
        got = extract(command, outdir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    if sorted(got) != sorted(reference):
        problems.append(f"compared names differ: got {sorted(got)}, reference {sorted(reference)}")
        return problems
    for name, want in reference.items():
        scale = max((abs(w) for w in want), default=0.0)
        if command == "linear":
            scale = max(scale, 1.0)  # slope and r^2 are O(1) numbers
        if not _close(got[name], want, scale):
            problems.append(f"{name}: {got[name]} differs from reference {want}")
    return problems

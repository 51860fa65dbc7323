"""Smoke test of the benchmark itself, at the tiny sizes.

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

Checks that every workload runs untraced and traced, prints every metric of
BENCHMARK.json by name with its unit, and passes its correctness check; that
a deliberately perturbed output fails the check; and that the benchmark
refuses to run, printing no result, where the emlab sources are missing.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _run_tiny(workload: str, trace: int) -> dict:
    proc = _bench(run.ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(m["name"] in line and line.endswith(" " + m["unit"]) for line in lines[:-1])
    return result


def test_workloads_print_every_metric():
    for workload in run.WORKLOADS:
        _run_tiny(workload, 0)
        result = _run_tiny(workload, 1)
        metrics = result["metrics"]
        if run.WORKLOADS[workload]["command"] == "simulate":
            assert metrics["dynamics.steps"]["value"] == 2
            assert metrics["fft.r2c_calls"]["value"] > 0


def _perturb(command: str, outdir: Path) -> None:
    """Move one compared output value by one part in a million."""
    if command == "simulate":
        path = outdir / "timeseries.csv"
        rows = list(csv.reader(path.open()))
        col = rows[0].index("E_3") if "E_3" in rows[0] else rows[0].index("E_1")
        rows[-1][col] = repr(float(rows[-1][col]) * (1 + 1e-6))
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    elif command == "linear":
        path = outdir / "decay_report.json"
        report = json.loads(path.read_text())
        report["rows"][0]["fitted_slope"] += 1e-6
        path.write_text(json.dumps(report))
    else:
        path = outdir / "inequality_report.json"
        report = json.loads(path.read_text())
        report["reports"][0]["max_ratio"] *= 1 + 1e-6
        path.write_text(json.dumps(report))


def test_perturbed_output_fails_check():
    references = json.loads(run.REFERENCE.read_text())["tiny"]
    for workload, spec in run.WORKLOADS.items():
        reference = references[workload][run.reference_key(workload, run.config_seed(workload, 0))]
        _run_tiny(workload, 0)
        source = run.OUT / workload / "call0"
        copy = run.OUT / "smoke" / workload
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(source, copy)
        assert check.check(spec["command"], copy, reference) == []
        _perturb(spec["command"], copy)
        assert check.check(spec["command"], copy, reference), f"{workload}: perturbation not caught"


def test_refuses_without_sources():
    bare = run.OUT / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(bare, "--workload", "sim64", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


if __name__ == "__main__":
    for test in (test_workloads_print_every_metric, test_perturbed_output_fails_check,
                 test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")

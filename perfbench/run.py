"""Benchmark of the emlab CLI: four workloads, each call in a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim64 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one extra traced call.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 1 when a call fails or its outputs fail the correctness check, and 2
when the benchmark cannot run at all (no emlab sources, no reference).
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

# The config seed the program receives is CONFIG_SEEDS[seed % 6]; each has
# outputs recorded in reference.json for the correctness check.  Of config
# seeds 0-15, these are the ones whose inequalities suite has every
# plateau_ok true at both 500 and 20 trials; the others report a plateau
# failure of lp_embeddings or commutator (see README.md).
CONFIG_SEEDS = (1, 5, 6, 11, 12, 14)
# Set-up-only processes per run, on top of the set-up of every timed call,
# so that setup_s is a median of several samples even on the slow workloads.
SETUP_ONLY_RUNS = 2
# Every process of a run is started and ended within this many seconds.
DEADLINE_S = 170.0

WORKLOADS = {
    "sim64": {
        "command": "simulate",
        "seeded": True,
        "config": {
            "grid": {"points": 64},
            "solver": {"end_time": 0.04, "output_stride": 10},
        },
        "tiny": {"grid": {"points": 16}, "solver": {"end_time": 0.05}},
    },
    "sim32diag": {
        "command": "simulate",
        "seeded": True,
        "config": {
            "grid": {"points": 32},
            "solver": {"end_time": 0.25, "output_stride": 1},
            "monitors": {
                "energy_orders": [1, 2, 3],
                "window_orders": [0, 1, 2],
                "grad_norms": [[1, "u"], [2, "E"]],
            },
        },
        "tiny": {"grid": {"points": 16}, "solver": {"end_time": 0.05}},
    },
    "linear_bz": {
        "command": "linear",
        "seeded": False,
        "config": {
            "constants": {"b_infty": [0.0, 0.0, 1.0]},
            "linear": {
                "k_list": [0, 1],
                "radial_nodes": 40,
                "n_theta": 2,
                "n_phi": 3,
                "check_convergence": True,
            },
        },
        "tiny": {"linear": {"radial_nodes": 8, "n_theta": 2, "n_phi": 4, "check_convergence": False}},
    },
    "ineq": {
        "command": "inequalities",
        "seeded": True,
        "config": {"inequalities": {"trials": 500}},
        "tiny": {"inequalities": {"trials": 20}},
    },
}

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("dynamics.step_ms", "ms"),
    ("dynamics.rhs_ms", "ms"),
    ("dynamics.steps", "count"),
    ("dynamics.simulate_self_s", "s"),
    ("dynamics.rhs_eval_ms", "ms"),
    ("dynamics.rhs_fft_floor_ms", "ms"),
    ("dynamics.rhs_over_fft_floor", "ratio"),
    ("fft.r2c_calls", "count"),
    ("fft.r2c_s", "s"),
    ("fft.c2c_calls", "count"),
    ("fft.c2c_s", "s"),
    ("energetics.monitor_calls", "count"),
    ("energetics.monitor_ms", "ms"),
    ("model.verify_compatibility_calls", "count"),
    ("model.verify_compatibility_s", "s"),
    ("cli.run_self_s", "s"),
    ("model.make_initial_data_s", "s"),
    ("linear.modes", "count"),
    ("linear.eig_calls", "count"),
    ("linear.eig_s", "s"),
    ("linear.expm_fallbacks", "count"),
    ("linear.multi_norm_series_s", "s"),
    ("linear.reduce_self_s", "s"),
    ("analysis.fit_decay_s", "s"),
    ("inequalities.gagliardo_nirenberg_s", "s"),
    ("inequalities.closure_estimates_s", "s"),
    ("inequalities.commutator_s", "s"),
    ("inequalities.embeddings_s", "s"),
    ("inequalities.exact_interpolation_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Kernel timings that need the state of a simulate workload.
SIMULATE_ONLY = {
    "dynamics.step_ms",
    "dynamics.rhs_ms",
    "dynamics.rhs_fft_floor_ms",
    "dynamics.rhs_over_fft_floor",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def config_seed(workload: str, seed: int) -> int:
    return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)] if WORKLOADS[workload]["seeded"] else 0


def workload_config(workload: str, size: str, cfg_seed: int) -> dict:
    """The config the CLI receives: the workload's keys, the size overrides,
    and the config seed."""
    spec = WORKLOADS[workload]
    cfg = _merge(spec["config"], spec["tiny"]) if size == "tiny" else copy.deepcopy(spec["config"])
    cfg["experiment"] = spec["command"]
    cfg["seed"] = cfg_seed
    return cfg


def reference_key(workload: str, cfg_seed: int) -> str:
    return str(cfg_seed) if WORKLOADS[workload]["seeded"] else "all"


def require_sources() -> None:
    if not (ROOT / "src" / "emlab" / "cli.py").is_file():
        raise BenchmarkError(f"no emlab sources under {ROOT / 'src'}")


def spawn(command: str, cfg_path: Path, outdir: Path, mode: str, deadline: float) -> dict:
    """One worker process; returns its JSON record, or an error record."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        return {"error": "deadline reached before start"}
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--command", command, "--config", str(cfg_path), "--out", str(outdir),
        "--t0", repr(t0), "--mode", mode,
    ]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {remaining:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if record["exit_code"] != 0:
        record["error"] = f"emlab exit {record['exit_code']}: {proc.stderr.strip()[-2000:]}"
    return record


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        # emlab passes workers=-1 to every scipy.fft call; scipy resolves
        # that to os.cpu_count().  Traced runs also list the values seen.
        "scipy_fft_workers": {"argument": -1, "resolves_to": os.cpu_count()},
        "caches": _cache_sizes(),
        "platform": " ".join((platform.system(), platform.release(), platform.machine())),
    }


def _call(command: str, cfg_path: Path, outdir: Path, mode: str, deadline: float, reference: dict) -> dict:
    """One process; its record gains the list of problems found, empty if none."""
    rec = spawn(command, cfg_path, outdir, mode, deadline)
    if "error" in rec:
        rec["problems"] = [rec["error"]]
    elif mode == "setup":
        rec["problems"] = [] if "setup_s" in rec else ["set-up never reached the compute function"]
    elif "wall_s" not in rec:
        rec["problems"] = ["no timing: the compute function or emlab.cli.run_* was not called"]
    else:
        rec["problems"] = check.check(command, outdir, reference)
    return rec


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 reference: dict, env: dict) -> dict:
    """Set-up-only calls, then timed calls for ``seconds`` (at least one),
    then one traced call if asked."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    command = WORKLOADS[workload]["command"]
    outbase = OUT / workload
    shutil.rmtree(outbase, ignore_errors=True)
    outbase.mkdir(parents=True)
    cfg = workload_config(workload, size, config_seed(workload, seed))
    cfg_path = outbase / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    def call(label: str, mode: str) -> dict:
        return _call(command, cfg_path, outbase / label, mode, deadline, reference) | {"label": label}

    calls = [call(f"setup{i}", "setup") for i in range(SETUP_ONLY_RUNS)]
    while True:
        call_start = time.monotonic()
        calls.append(call(f"call{len(calls) - SETUP_ONLY_RUNS}", "time"))
        now = time.monotonic()
        if now - start + (now - call_start) > seconds or now >= deadline:
            break
    traced = call("traced", "trace") if trace else None

    timed = [c for c in calls if "wall_s" in c]
    setups = [c["setup_s"] for c in calls if "setup_s" in c]
    samples = {"setup_s": setups, **{k: [c[k] for c in timed] for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
    end_to_end = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    if traced is not None:
        calls.append(traced)
    problems = {c["label"]: c["problems"] for c in calls if c["problems"]}
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "config": cfg,
        "environment": env,
        "attempted": len(calls),
        "failed": len(problems),
        "problems": problems,
        "end_to_end": end_to_end,
        "samples": samples,
    }
    resolved = outbase / "call0" / "resolved_config.json"
    if resolved.is_file():
        result["resolved_config"] = json.loads(resolved.read_text())
    if traced is not None:
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        layers.update(traced.get("layers", {}))
        if layers["dynamics.rhs_fft_floor_ms"]:
            layers["dynamics.rhs_over_fft_floor"] = (
                layers["dynamics.rhs_eval_ms"] / layers["dynamics.rhs_fft_floor_ms"]
            )
        if "wall_s" in traced and end_to_end["wall_s"]:
            layers["trace.overhead_frac"] = traced["wall_s"] / end_to_end["wall_s"] - 1.0
        result["per_layer"] = layers
        result["trace"] = {
            "spans_file": str((outbase / "traced" / "spans.json").relative_to(ROOT)),
            "wall_s": traced.get("wall_s"),
            "fft_workers_seen": traced.get("fft_workers_seen"),
            "dropped": traced.get("dropped", {}),
            "not_exercised": sorted(SIMULATE_ONLY) if command != "simulate" else [],
        }
    (OUT / f"BENCH_{workload}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def print_result(result: dict, trace: bool) -> dict:
    """Human-readable lines; returns the metrics block of the JSON line."""
    name = result["workload"]
    table = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for metric, unit in table:
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"{name:10s} {metric:36s} {values[metric]:14.6g} {unit}")
    print(f"{name:10s} {'runs_failed/runs_attempted':36s} {result['failed']:>7d}/{result['attempted']}")
    for call, problems in result["problems"].items():
        for problem in problems:
            print(f"{name:10s} FAILED {call}: {problem}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="emlab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test sizes (N=16, 2 steps, 8 radial nodes, 20 trials)")
    args = parser.parse_args(argv)

    try:
        require_sources()
        references = json.loads(REFERENCE.read_text())[args.size]
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        refs = {}
        for name in names:
            key = reference_key(name, config_seed(name, args.seed))
            if key not in references.get(name, {}):
                raise BenchmarkError(f"no reference for {name} at config seed {key}")
            refs[name] = references[name][key]
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    results, metrics = [], {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, refs[name], env)
        results.append(result)
        for metric, value in print_result(result, bool(args.trace)).items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

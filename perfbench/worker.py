"""One emlab CLI call in a fresh process, timed or traced.

Run by ``run.py``; not meant to be started by hand.  The call goes through
``emlab.cli.main`` with a generated config file, exactly as ``emlab <command>
--config ... --out ...`` would run it.  The process prints one JSON line.

Phases, measured on CLOCK_MONOTONIC, which is shared between processes:

  set-up   from the parent's spawn time (``--t0``) through imports, config
           resolution and initial data, to the entry of the workload's
           compute function (``simulate``, ``decay_report``, ``default_suite``)
  run      from that entry until the ``emlab.cli.run_*`` call returns, i.e.
           until its outputs are written

Modes: ``time`` runs the call with only the two phase stamps installed;
``setup`` stops at the end of set-up; ``trace`` also records spans around
the layers (see spans.py) and afterwards times the dynamics kernels alone.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent

# compute function whose entry ends set-up, per CLI command
SETUP_END = {
    "simulate": ("emlab.dynamics", "simulate"),
    "linear": ("emlab.linear", "decay_report"),
    "inequalities": ("emlab.inequalities", "default_suite"),
}


class _SetupDone(Exception):
    """Raised at the end of set-up in ``setup`` mode."""


def _import_emlab():
    sys.path.insert(0, str(ROOT / "src"))
    import emlab.cli

    source = Path(emlab.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"emlab imported from {source}, not from this checkout's src/")
    return emlab.cli


def _stamp_entry(clock: dict, stop: bool):
    """Stamp the end of set-up on entry; in ``setup`` mode, stop there."""
    def make(fn):
        def stamped(*args, **kwargs):
            clock["setup_end"] = (time.monotonic(), time.process_time())
            if stop:
                raise _SetupDone
            return fn(*args, **kwargs)

        return stamped

    return make


def _stamp_return(clock: dict):
    def make(fn):
        def stamped(*args, **kwargs):
            result = fn(*args, **kwargs)
            clock["run_end"] = (time.monotonic(), time.process_time())
            return result

        return stamped

    return make


def _capture_initial_data(store: dict):
    def make(fn):
        def capture(*args, **kwargs):
            state = fn(*args, **kwargs)
            store["state"] = state
            store["constants"] = inspect.signature(fn).bind(*args, **kwargs).arguments["constants"]
            return state

        return capture

    return make


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def _kernel_times(store: dict, cfg: dict) -> dict:
    """Public ``step``/``rhs`` on the workload's initial state, and the FFT
    floor of one RHS: the 14 ``irfftn`` and 8 ``rfftn`` it makes, alone."""
    import numpy as np
    import scipy.fft as sfft
    from emlab import dynamics

    state, constants = store["state"], store["constants"]
    dt = dynamics.cfl_dt(state, state.grid, constants, float(cfg["solver"]["cfl_safety"]))
    n = state.grid.n
    rng = np.random.default_rng(0)
    half = rng.standard_normal((n, n, n // 2 + 1)) + 1j * rng.standard_normal((n, n, n // 2 + 1))
    phys = rng.standard_normal((n, n, n))

    def fft_floor():
        for _ in range(14):
            sfft.irfftn(half, s=(n, n, n), axes=(-3, -2, -1), workers=-1)
        for _ in range(8):
            sfft.rfftn(phys, axes=(-3, -2, -1), workers=-1)

    return {
        "dynamics.step_ms": _median_ms(lambda: dynamics.step(state, dt, constants), 3),
        "dynamics.rhs_ms": _median_ms(lambda: dynamics.rhs(state, constants), 5),
        "dynamics.rhs_fft_floor_ms": _median_ms(fft_floor, 5),
    }


def _layer_metrics(tracer: spans.Tracer, steps: int) -> dict:
    sim_self = tracer.self_time(
        "dynamics.simulate", excluded={"energetics.monitor", "model.verify_compatibility"}
    )
    monitor_calls = tracer.count("energetics.monitor")
    linear_children = {"linear.mode_matrix", "linear.eig", "linear.solve", "linear.expm"}
    out = {
        "dynamics.steps": steps,
        "dynamics.simulate_self_s": sim_self,
        "dynamics.rhs_eval_ms": 1e3 * sim_self / (4 * steps) if steps else 0.0,
        "fft.r2c_calls": tracer.count("fft.rfftn") + tracer.count("fft.irfftn"),
        "fft.r2c_s": tracer.total("fft.rfftn") + tracer.total("fft.irfftn"),
        "fft.c2c_calls": tracer.count("fft.fftn") + tracer.count("fft.ifftn"),
        "fft.c2c_s": tracer.total("fft.fftn") + tracer.total("fft.ifftn"),
        "energetics.monitor_calls": monitor_calls,
        "energetics.monitor_ms": (
            1e3 * tracer.total("energetics.monitor") / monitor_calls if monitor_calls else 0.0
        ),
        "model.verify_compatibility_calls": tracer.count("model.verify_compatibility"),
        "model.verify_compatibility_s": tracer.total("model.verify_compatibility"),
        "cli.run_self_s": tracer.self_time("cli.run"),
        "model.make_initial_data_s": tracer.total("model.make_initial_data"),
        "linear.modes": tracer.count("linear.mode_matrix"),
        "linear.eig_calls": tracer.count("linear.eig"),
        "linear.eig_s": tracer.total("linear.eig"),
        "linear.expm_fallbacks": tracer.count("linear.expm"),
        "linear.multi_norm_series_s": tracer.total("linear.multi_norm_series"),
        "linear.reduce_self_s": tracer.self_time("linear.multi_norm_series", excluded=linear_children),
        "analysis.fit_decay_s": tracer.total("analysis.fit_decay"),
    }
    for check in (
        "gagliardo_nirenberg",
        "closure_estimates",
        "commutator",
        "embeddings",
        "exact_interpolation",
    ):
        out[f"inequalities.{check}_s"] = tracer.total(f"inequalities.{check}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", required=True, choices=sorted(SETUP_END))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    parser.add_argument("--mode", choices=("time", "setup", "trace"), default="time")
    args = parser.parse_args()

    cli = _import_emlab()
    clock: dict = {}
    patched = spans.replace_everywhere(
        *SETUP_END[args.command], _stamp_entry(clock, stop=args.mode == "setup")
    )
    patched += spans.replace_everywhere("emlab.cli", f"run_{args.command}", _stamp_return(clock))
    tracer = store = None
    if args.mode == "trace":
        store = {}
        patched += spans.replace_everywhere(
            "emlab.model", "make_initial_data", _capture_initial_data(store)
        )
        tracer = spans.Tracer()
        tracer.install()

    argv = [args.command, "--config", args.config, "--out", args.out]
    try:
        exit_code = cli.main(argv)
    except _SetupDone:
        exit_code = 0
    if tracer is not None:
        tracer.uninstall()
    spans.restore(patched)

    record = {"exit_code": exit_code}
    if "setup_end" in clock:
        record["setup_s"] = clock["setup_end"][0] - args.t0
    if "run_end" in clock and "setup_end" in clock:
        record["wall_s"] = clock["run_end"][0] - clock["setup_end"][0]
        record["cpu_s"] = clock["run_end"][1] - clock["setup_end"][1]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None and exit_code == 0:
        out = Path(args.out)
        tracer.dump(out / "spans.json")
        steps = 0
        if args.command == "simulate":
            steps = int(json.loads((out / "summary.json").read_text())["steps"])
        layers = _layer_metrics(tracer, steps)
        if args.command == "simulate" and "state" in store:
            cfg = json.loads((out / "resolved_config.json").read_text())
            layers.update(_kernel_times(store, cfg))
        elif args.command == "simulate":
            tracer.dropped["kernel timings"] = "make_initial_data was not called through emlab.model"
        record["layers"] = layers
        record["fft_workers_seen"] = sorted(str(w) for w in tracer.fft_workers)
        record["dropped"] = tracer.dropped
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

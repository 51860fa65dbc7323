"""Record the outputs the correctness check compares against.

    python3 perfbench/record_reference.py

Runs one call per workload, size and config seed at the current sources,
and rewrites perfbench/reference.json with the compared quantities.  A call
whose outputs fail the check's invariants (Gauss budget, finiteness, energy
monotonicity, plateaus) is not recorded, and the script exits 1.  Re-record
only in a change that redefines the outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import time

import check
import run


def main() -> int:
    run.require_sources()
    reference = {
        "rtol": check.RTOL,
        "source": {"git_commit": run.git_commit(), "src_sha256": run.src_sha256()},
    }
    for size in ("tiny", "full"):
        for name, spec in run.WORKLOADS.items():
            entries = reference.setdefault(size, {}).setdefault(name, {})
            for cfg_seed in run.CONFIG_SEEDS if spec["seeded"] else [0]:
                outdir = run.OUT / "reference" / size / name / str(cfg_seed)
                outdir.mkdir(parents=True, exist_ok=True)
                cfg_path = outdir / "config.json"
                cfg_path.write_text(json.dumps(run.workload_config(name, size, cfg_seed)))
                rec = run.spawn(spec["command"], cfg_path, outdir, "time", time.monotonic() + 600)
                values = {} if "error" in rec else check.extract(spec["command"], outdir)
                problems = [rec["error"]] if "error" in rec else check.check(spec["command"], outdir, values)
                if problems:
                    print(f"{size} {name} config seed {cfg_seed}: {problems}", file=sys.stderr)
                    return 1
                entries[run.reference_key(name, cfg_seed)] = values
                print(f"{size} {name} config seed {cfg_seed}: {rec['wall_s']:.2f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Rewrite reference.json: the mean throughput of each workload's warm-up
invocation (REFERENCE_SEED, reference_trials trials), which every timed run
checks its own warm-up CSV against.

    PYTHONPATH=src python3 benchmarks/record_reference.py

Only a change that is meant to alter fblopt's answers should need this.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from measure import invoke  # noqa: E402
from workloads import HERE, REFERENCE_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory() as tmp:
        for wl in WORKLOADS.values():
            path = Path(tmp) / f"{wl.name}.csv"
            invoke(wl.argv(REFERENCE_SEED, wl.reference_trials, path))
            problems = check.check_csv(path, wl, wl.reference_trials, REFERENCE_SEED)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            ref[wl.name] = {
                "seed": REFERENCE_SEED,
                "trials": wl.reference_trials,
                "mean_throughput": check.mean_throughput([path]),
            }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

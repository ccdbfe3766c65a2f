#!/usr/bin/env python3
"""fblopt benchmark: one workload, measured end to end or traced per layer.

    python3 benchmarks/run.py --workload default_cell --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each measurement runs `fblopt.cli.main`
from the checkout's src/ in a child process (measure.py). End-to-end times
are scaled by a host probe that tracks how much other load slows the host
(see NOTES.md). The last line of standard output is one JSON object:
correct, attempted, failed and metrics.
The line before it records the machine, the versions and the seeds. A run
whose outputs fail a check prints correct=false, no metrics, and exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from measure import PER_LAYER, PROBE_REFERENCE_S, host_probe, summarize  # noqa: E402
from workloads import REFERENCE_SEED, ROOT, WORKLOADS  # noqa: E402

MEASURE = Path(__file__).resolve().parent / "measure.py"

# set-up is timed this many times per run, after one untimed start that
# leaves the bytecode caches warm; the median of the scaled times is reported
SETUP_RUNS = 5

CHILD_TIMEOUT_S = 150


def child(args, outdir) -> dict:
    """Run measure.py with `args`; return the JSON object it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(MEASURE), *map(str, args)],
        env=env, cwd=outdir, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(wl, outdir) -> tuple:
    """Wall seconds from starting a fresh interpreter to its first
    evaluation: (scaled by the host probe as in measure.summarize, raw)."""
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        before = host_probe()
        start = time.monotonic()
        first = child(["setup", wl.name, outdir], outdir)["first_eval_monotonic"]
        after = host_probe()
        if i:
            raw.append(first - start)
            scaled.append(raw[-1] * PROBE_REFERENCE_S / statistics.fmean([before, after]))
    return scaled, raw


def machine_record(wl, seed, seeds) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    def cache(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout)
        except (OSError, subprocess.SubprocessError, ValueError):
            return "unknown"

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": wl.name,
        "seed": seed,
        "fblopt_seeds": seeds,
        "reference_seed": REFERENCE_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache("LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache("LEVEL3_CACHE_SIZE"),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
    }


def end_to_end(wl, seed, seconds, outdir) -> tuple:
    """(problems, attempted, failed, metrics, fblopt seeds) of a timed run."""
    setup, raw_setup = setup_seconds(wl, outdir)
    res = child(["e2e", wl.name, seed, seconds, outdir], outdir)
    invocations = res["invocations"]
    problems = []
    attempted = failed = 0
    for inv in invocations:
        evals = wl.evals(inv["trials"])
        problems += check.check_csv(inv["csv"], wl, inv["trials"], inv["seed"])
        attempted += evals
        failed += evals if inv["aborted"] else check.failed_trials(inv["csv"], wl, inv["trials"])
    reference_csv = invocations[0]["csv"]
    if not problems:
        problems = check.check_dominance([inv["csv"] for inv in invocations], wl)
    if not problems:
        problems = check.check_reference(reference_csv, wl)
    metrics = {}
    if not problems:
        times = summarize(wl, res)
        metrics = {
            "evals_per_s": (times["evals_per_s"], "1/s"),
            "solve_p50_ms": (times["solve_p50_ms"], "ms"),
            "solve_p90_ms": (times["solve_p90_ms"], "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "mean_throughput": (check.mean_throughput([reference_csv]), "nat/use"),
        }
        print(
            f"# {wl.name}: {len(res['units'])} timed invocations of {wl.unit_trials} trials, "
            f"{times['solve_samples']} {wl.headline} evaluations timed; host probe median "
            f"{times['probe_median_ms']:.2f} ms against {PROBE_REFERENCE_S * 1e3:g} ms; unscaled: "
            f"evals_per_s {times['raw_evals_per_s']:.4f}, solve_p50_ms {times['raw_solve_p50_ms']:.4f}, "
            f"solve_p90_ms {times['raw_solve_p90_ms']:.4f}, setup_s {statistics.median(raw_setup):.4f}",
            flush=True,
        )
    return problems, attempted, failed, metrics, sorted({inv["seed"] for inv in invocations})


def per_layer(wl, seed, outdir) -> tuple:
    """(problems, attempted, failed, metrics, fblopt seeds) of a traced run."""
    res = child(["trace", wl.name, seed, outdir], outdir)
    csvs = list(res["csvs"].values())
    problems = check.same_bytes(csvs)
    for path in csvs:
        problems += check.check_csv(path, wl, res["trials"], res["seed"])
    if not problems:
        problems = check.check_dominance(csvs, wl)
    evals = wl.evals(res["trials"])
    attempted = evals * len(csvs)
    failed = attempted if res["aborted"] else sum(check.failed_trials(p, wl, res["trials"]) for p in csvs)
    if res["absent"]:
        print(f"# absent: {', '.join(res['absent'])}", flush=True)
    metrics = {}
    if not problems:
        metrics = {k: (v, PER_LAYER[k][0]) for k, v in res["metrics"].items()}
    return problems, attempted, failed, metrics, [res["seed"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "fblopt" / "__init__.py").is_file():
        print(f"error: no fblopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch_root)
    try:
        if args.trace:
            problems, attempted, failed, metrics, seeds = per_layer(wl, args.seed, outdir)
        else:
            problems, attempted, failed, metrics, seeds = end_to_end(wl, args.seed, args.seconds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in problems:
        print(f"# check failed: {problem}", flush=True)
    print("# record " + json.dumps(machine_record(wl, args.seed, seeds)), flush=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

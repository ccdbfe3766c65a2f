"""One measurement in a fresh process; run.py starts it and reads the JSON
object it prints as its last line.

    python3 benchmarks/measure.py setup WORKLOAD OUTDIR
    python3 benchmarks/measure.py e2e   WORKLOAD SEED SECONDS OUTDIR
    python3 benchmarks/measure.py trace WORKLOAD SEED OUTDIR

`src/` of the checkout must be on PYTHONPATH.
"""

import contextlib
import io
import json
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hooks import EvalTimer, Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, unit_seed  # noqa: E402


def invoke(argv) -> tuple:
    """Run `fblopt` in this process. Returns (wall seconds, aborted)."""
    from fblopt.cli import main

    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    except RuntimeError as exc:  # a cell over the harness failure budget
        print(f"fblopt aborted: {exc}", file=sys.stderr)
        return time.perf_counter() - start, True
    return time.perf_counter() - start, False


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def setup(wl, outdir) -> dict:
    """Start of the first evaluation on the monotonic clock.

    Everything the workload's set-up needs runs first: imports, argument
    parsing, config load and, with --jobs > 1, the pool start. One trial of
    the cheapest scheme keeps the rest of the run short.
    """
    out = Path(outdir)
    with EvalTimer(out / "setup.bin", "wf_minmax") as timer:
        invoke(wl.argv(REFERENCE_SEED, 1, out / "setup.csv", schemes=["wf_minmax"]))
        starts = [start for start, _ in timer.records()]
    return {"first_eval_monotonic": min(starts)}


def host_probe() -> float:
    """Seconds of a fixed pure-Python loop that touches nothing of fblopt:
    about 10 ms when the host's core is not shared."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - start


def _serve_probes(conn):
    """Helper process of HostProbe: says it is ready, then makes one probe
    per request until told to stop."""
    conn.send(None)
    while conn.recv():
        conn.send(host_probe())


class HostProbe:
    """host_probe() on `width` processes at once: this one and width - 1
    helper processes, which wait on a pipe in between. A run that keeps two
    cores busy is slowed by the load on both, and a single probe may run on
    the quieter one. The result is the harmonic mean of the probe times,
    the time per probe at the cores' combined speed.
    """

    def __init__(self, width):
        ctx = multiprocessing.get_context("spawn")
        self._helpers = []
        try:
            for _ in range(width - 1):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_serve_probes, args=(theirs,), daemon=True)
                proc.start()
                theirs.close()
                self._helpers.append((proc, ours))
                ours.recv()
        except BaseException:
            self.close()
            raise

    def __call__(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [host_probe()] + [conn.recv() for _, conn in self._helpers]
        return statistics.harmonic_mean(times)

    def close(self):
        for proc, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass  # the helper is gone already
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self._helpers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# timed invocations that run whatever the clock says
MIN_UNITS = 3


def e2e(wl, seed, seconds, outdir) -> dict:
    """Timed invocations for `seconds`, after an untimed warm-up, each one
    between two host probes as wide as the workload's --jobs.

    The warm-up runs at REFERENCE_SEED; its CSV gives mean_throughput and
    is checked against reference.json. Timed invocation i runs at
    unit_seed(seed, i), so each one draws new channels. The raw times are
    returned; summarize() turns them into metrics.
    """
    out = Path(outdir)
    invocations, units = [], []
    with EvalTimer(out / "evals.bin", wl.headline) as timer, HostProbe(wl.jobs) as probe:
        reference_csv = out / "reference.csv"
        _, aborted = invoke(wl.argv(REFERENCE_SEED, wl.reference_trials, reference_csv))
        invocations.append({"csv": str(reference_csv), "seed": REFERENCE_SEED,
                            "trials": wl.reference_trials, "aborted": aborted})
        probes = [probe()]
        begin = time.monotonic()
        while len(units) < MIN_UNITS or time.monotonic() - begin < seconds:
            i = len(units)
            csv_path = out / f"unit{i}.csv"
            timer.clear()
            wall, aborted = invoke(wl.argv(unit_seed(seed, i), wl.unit_trials, csv_path))
            probes.append(probe())
            units.append({"wall_s": wall, "probe_s": probes[-2:],
                          "eval_s": [dt for _, dt in timer.records()]})
            invocations.append({"csv": str(csv_path), "seed": unit_seed(seed, i),
                                "trials": wl.unit_trials, "aborted": aborted})
    return {
        "invocations": invocations,
        "units": units,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb(),
    }


# Probe seconds of the host the end-to-end times are expressed on, about
# what host_probe() takes on the 2-vCPU machine the benchmark was tuned on
# when no other load shares its core.
PROBE_REFERENCE_S = 0.010


def summarize(wl, res) -> dict:
    """End-to-end times of an e2e() result, scaled to a host on which
    host_probe() takes PROBE_REFERENCE_S, and the same unscaled ("raw_").

    Other load on a shared host slows everything by 10-70% for seconds at a
    time, and the share drifts over minutes, so raw times of the same code
    spread by 15-25% between runs. The probes either side of an invocation
    see the same slowdown, so each invocation's wall time and each of its
    evaluation times are scaled by PROBE_REFERENCE_S over their mean.
    """
    evals = len(res["units"]) * wl.evals(wl.unit_trials)
    wall = scaled_wall = 0.0
    solve_ms, raw_solve_ms = [], []
    for unit in res["units"]:
        scale = PROBE_REFERENCE_S / statistics.fmean(unit["probe_s"])
        wall += unit["wall_s"]
        scaled_wall += unit["wall_s"] * scale
        raw_solve_ms += [dt * 1e3 for dt in unit["eval_s"]]
        solve_ms += [dt * 1e3 * scale for dt in unit["eval_s"]]
    return {
        "evals_per_s": evals / scaled_wall,
        "solve_p50_ms": float(np.percentile(solve_ms, 50)),
        "solve_p90_ms": float(np.percentile(solve_ms, 90)),
        "raw_evals_per_s": evals / wall,
        "raw_solve_p50_ms": float(np.percentile(raw_solve_ms, 50)),
        "raw_solve_p90_ms": float(np.percentile(raw_solve_ms, 90)),
        "solve_samples": len(solve_ms),
        "probe_median_ms": statistics.median(res["probes"]) * 1e3,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, hooks or tallies it is computed from).
# A metric whose source is absent is left out of the result and named.
PER_LAYER = {
    "kernels.q_inverse.calls_per_eval": ("count", ("kernels.q_inverse",)),
    "kernels.q_inverse.values_per_call": ("count", ("kernels.q_inverse", "q_inverse_values")),
    "kernels.q_inverse.self_ms_per_eval": ("ms", ("kernels.q_inverse",)),
    "channel.sample_realization.calls_per_eval": ("count", ("channel.sample_realization",)),
    "channel.sample_realization.self_ms_per_eval": ("ms", ("channel.sample_realization",)),
    "error_assignment.optimal_errors.calls_per_eval": ("count", ("error_assignment.optimal_errors",)),
    "error_assignment.optimal_errors.self_ms_per_eval": ("ms", ("error_assignment.optimal_errors",)),
    "error_assignment.beta_k.calls_per_optimal_errors": ("count", ("error_assignment.beta_k", "error_assignment.optimal_errors")),
    "error_assignment.from_caps.calls_per_eval": ("count", ("error_assignment.from_caps",)),
    "power.solve_power.calls_per_eval": ("count", ("power.solve_power",)),
    "power.solve_power.self_ms_per_call": ("ms", ("power.solve_power",)),
    "power.alm_runs_per_solve": ("count", ("power.alm_run", "power.solve_power")),
    "power.spg_calls_per_alm_run": ("count", ("power.spg", "power.alm_run")),
    "power.spg_iters_per_call": ("count", ("power.spg", "spg_iters")),
    "power.objective_evals_per_eval": ("count", ("power.objective",)),
    "power.objective_evals_per_spg_iter": ("count", ("power.objective", "spg_iters")),
    "power.warm_start_win_frac": ("ratio", ("power.alm_run", "power.solve_power")),
    "power.water_filling.calls_per_eval": ("count", ("power.water_filling",)),
    "power.sr_infinity.calls_per_eval": ("count", ("power.sr_infinity",)),
    "joint.solve_joint.self_ms_per_call": ("ms", ("joint.solve_joint",)),
    "joint.alternations_per_solve": ("count", ("joint.alternate", "alternations", "joint.solve_joint")),
    "joint.silent_start_win_frac": ("ratio", ("joint.solve_joint", "silent_start_wins")),
    "joint.make_report.self_ms_per_eval": ("ms", ("joint.make_report",)),
    "harness.trial.self_ms_per_eval": ("ms", ("harness.trial",)),
    "harness.scheme_dispatch.proposed.p50_ms": ("ms", ("harness.scheme_dispatch",)),
    "harness.scheme_dispatch.wf_minmax.p50_ms": ("ms", ("harness.scheme_dispatch",)),
    "harness.scheme_dispatch.proposedpower_minmax.p50_ms": ("ms", ("harness.scheme_dispatch",)),
    "harness.scheme_dispatch.equalpower_opteps.p50_ms": ("ms", ("harness.scheme_dispatch",)),
    "harness.task_bytes_per_eval": ("bytes", ("harness.trial", "task_bytes")),
    "harness.pool_efficiency": ("ratio", ()),
    "cli.emit_csv_ms": ("ms", ("cli.emit_csv",)),
    "cli.write_manifest_ms": ("ms", ("cli.write_manifest",)),
    "trace.slowdown": ("ratio", ()),
}


def layer_metrics(tracer, evals, untraced_serial_s, traced_s, untraced_jobs_s, jobs) -> tuple:
    """(per-layer metric values, names of the absent ones) of a traced run.

    Every count is per evaluation, per call or per parent call as its name
    says; a ratio with no calls under it reads 0, which is what ran.
    """
    calls, tally = tracer.calls, tracer.tally
    self_ms = {k: v * 1e3 for k, v in tracer.self_seconds().items()}
    values = {
        "kernels.q_inverse.calls_per_eval": _ratio(calls["kernels.q_inverse"], evals),
        "kernels.q_inverse.values_per_call": _ratio(tally["q_inverse_values"], calls["kernels.q_inverse"]),
        "kernels.q_inverse.self_ms_per_eval": _ratio(self_ms.get("kernels.q_inverse", 0.0), evals),
        "channel.sample_realization.calls_per_eval": _ratio(calls["channel.sample_realization"], evals),
        "channel.sample_realization.self_ms_per_eval": _ratio(self_ms.get("channel.sample_realization", 0.0), evals),
        "error_assignment.optimal_errors.calls_per_eval": _ratio(calls["error_assignment.optimal_errors"], evals),
        "error_assignment.optimal_errors.self_ms_per_eval": _ratio(self_ms.get("error_assignment.optimal_errors", 0.0), evals),
        "error_assignment.beta_k.calls_per_optimal_errors": _ratio(calls["error_assignment.beta_k"], calls["error_assignment.optimal_errors"]),
        "error_assignment.from_caps.calls_per_eval": _ratio(calls["error_assignment.from_caps"], evals),
        "power.solve_power.calls_per_eval": _ratio(calls["power.solve_power"], evals),
        "power.solve_power.self_ms_per_call": _ratio(self_ms.get("power.solve_power", 0.0), calls["power.solve_power"]),
        "power.alm_runs_per_solve": _ratio(calls["power.alm_run"], calls["power.solve_power"]),
        "power.spg_calls_per_alm_run": _ratio(calls["power.spg"], calls["power.alm_run"]),
        "power.spg_iters_per_call": _ratio(tally["spg_iters"], calls["power.spg"]),
        "power.objective_evals_per_eval": _ratio(calls["power.objective"], evals),
        "power.objective_evals_per_spg_iter": _ratio(calls["power.objective"], tally["spg_iters"]),
        "power.warm_start_win_frac": _ratio(tally["first_start_wins"], tally["solves_with_alm"]),
        "power.water_filling.calls_per_eval": _ratio(calls["power.water_filling"], evals),
        "power.sr_infinity.calls_per_eval": _ratio(calls["power.sr_infinity"], evals),
        "joint.solve_joint.self_ms_per_call": _ratio(self_ms.get("joint.solve_joint", 0.0), calls["joint.solve_joint"]),
        "joint.alternations_per_solve": _ratio(tally["alternations"], calls["joint.solve_joint"]),
        "joint.silent_start_win_frac": _ratio(tally["silent_start_wins"], calls["joint.solve_joint"]),
        "joint.make_report.self_ms_per_eval": _ratio(self_ms.get("joint.make_report", 0.0), evals),
        "harness.trial.self_ms_per_eval": _ratio(self_ms.get("harness.trial", 0.0), evals),
        "harness.task_bytes_per_eval": _ratio(tally["task_bytes"], calls["harness.trial"]),
        "harness.pool_efficiency": untraced_serial_s / (jobs * untraced_jobs_s),
        "cli.emit_csv_ms": _ratio(self_ms.get("cli.emit_csv", 0.0), calls["cli.emit_csv"]),
        "cli.write_manifest_ms": _ratio(self_ms.get("cli.write_manifest", 0.0), calls["cli.write_manifest"]),
        "trace.slowdown": traced_s / untraced_serial_s,
    }
    for scheme in ("proposed", "wf_minmax", "proposedpower_minmax", "equalpower_opteps"):
        samples = tracer.dispatch_ms.get(scheme)
        values[f"harness.scheme_dispatch.{scheme}.p50_ms"] = statistics.median(samples) if samples else 0.0

    missing = set(tracer.absent) | tracer.unreadable
    absent = sorted(m for m, (_, deps) in PER_LAYER.items() if missing.intersection(deps))
    return {m: values[m] for m in PER_LAYER if m not in absent}, absent


def trace(wl, seed, outdir) -> dict:
    """Per-layer run: the same fixed work untraced serially, untraced at the
    workload's --jobs (when above 1), and traced serially.

    Fixed work makes every count repeat exactly. The untraced serial pass
    is the base of the tracing slowdown and of the pool efficiency.
    """
    out = Path(outdir)
    trials, seed0 = wl.trace_trials, unit_seed(seed, 0)
    evals = wl.evals(trials)
    invoke(wl.argv(REFERENCE_SEED, max(1, trials // 4), out / "warmup.csv", jobs=1))
    serial_s, aborted = invoke(wl.argv(seed0, trials, out / "serial.csv", jobs=1))
    csvs = {"serial": str(out / "serial.csv")}
    jobs_s = serial_s
    if wl.jobs > 1:
        jobs_s, aborted_jobs = invoke(wl.argv(seed0, trials, out / "jobs.csv"))
        aborted = aborted or aborted_jobs
        csvs["jobs"] = str(out / "jobs.csv")
    with Tracer() as tracer:
        traced_s, aborted_traced = invoke(wl.argv(seed0, trials, out / "traced.csv", jobs=1))
    csvs["traced"] = str(out / "traced.csv")
    metrics, absent = layer_metrics(tracer, evals, serial_s, traced_s, jobs_s, wl.jobs)
    return {
        "csvs": csvs,
        "seed": seed0,
        "trials": trials,
        "aborted": aborted or aborted_traced,
        "metrics": metrics,
        "absent": absent,
    }


def main(argv) -> int:
    mode, name, *rest = argv
    wl = WORKLOADS[name]
    if mode == "setup":
        result = setup(wl, rest[0])
    elif mode == "e2e":
        result = e2e(wl, int(rest[0]), float(rest[1]), rest[2])
    elif mode == "trace":
        result = trace(wl, int(rest[0]), rest[1])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

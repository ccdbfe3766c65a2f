"""Output checks on the CSVs fblopt writes during a benchmark run.

Parsed here with the csv module, not with fblopt's own reader, so a defect
in the program cannot hide from its check.
"""

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

from workloads import HERE, ROOT

NUMERIC = ("omega", "p_max", "mean_sum_rate", "mean_max_eps", "mean_throughput", "std_throughput")
BASELINES = ("wf_minmax", "proposedpower_minmax", "equalpower_opteps")


def read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_csv(path, wl, trials, seed) -> list:
    """Problems with one invocation's CSV; empty when it is correct.

    Every (scheme, omega, L, p_max) cell of the workload is present once,
    completed all `trials` trials at `seed`, and holds finite values.
    """
    try:
        rows = read_csv(path)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    problems = []
    expected = {
        (s, o, L, p) for s in wl.schemes for o in wl.omega for L in wl.lengths for p in wl.p_max_db
    }
    seen = {}
    for n, row in enumerate(rows, start=2):
        try:
            values = {k: float(row[k]) for k in NUMERIC}
            key = (row["scheme"], values["omega"], int(row["L"]), values["p_max"])
            n_trials, row_seed = int(row["n_trials"]), int(row["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path}:{n}: malformed row: {exc}")
            continue
        if key not in expected:
            problems.append(f"{path}:{n}: unexpected cell {key}")
        if key in seen:
            problems.append(f"{path}:{n}: duplicate cell {key}")
        seen[key] = values["mean_throughput"]
        if n_trials != trials:
            problems.append(f"{path}:{n}: {key} completed {n_trials} of {trials} trials")
        if row_seed != seed:
            problems.append(f"{path}:{n}: seed {row_seed}, expected {seed}")
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{path}:{n}: non-finite {', '.join(bad)}")
    for key in sorted(expected - seen.keys()):
        problems.append(f"{path}: missing cell {key}")
    return problems


def check_dominance(paths, wl) -> list:
    """Where the workload asks for it: in every cell, proposed's mean
    throughput over all trials of the CSVs is at least every baseline's.

    proposed is not the best in every single trial: on default_cell about
    1 trial in 75 falls short of a baseline, by up to 3%. So the check pools
    the trials of a whole run rather than judging one short invocation.
    The CSVs must have passed check_csv.
    """
    if not wl.proposed_dominates:
        return []
    sums = defaultdict(lambda: [0.0, 0])
    for path in paths:
        for row in read_csv(path):
            key = (row["scheme"], float(row["omega"]), int(row["L"]), float(row["p_max"]))
            n_trials = int(row["n_trials"])
            sums[key][0] += float(row["mean_throughput"]) * n_trials
            sums[key][1] += n_trials
    means = {key: total / n for key, (total, n) in sums.items() if n}
    problems = []
    for (scheme, o, L, p), tp in sorted(means.items()):
        ours = means.get(("proposed", o, L, p))
        if scheme in BASELINES and ours is not None and ours < tp:
            problems.append(
                f"proposed mean throughput {ours} below {scheme} {tp} at {(o, L, p)} "
                f"over {len(paths)} CSVs"
            )
    return problems


def failed_trials(path, wl, trials) -> int:
    """Evaluations that did not complete: trials missing from each row,
    and every evaluation of a cell with no row."""
    try:
        rows = read_csv(path)
        done = sum(min(int(r["n_trials"]), trials) for r in rows)
    except (OSError, csv.Error, KeyError, TypeError, ValueError):
        done = 0
    return max(wl.evals(trials) - done, 0)


def mean_throughput(paths) -> float:
    """Mean of the mean_throughput column over every row of the CSVs."""
    values = [float(r["mean_throughput"]) for p in paths for r in read_csv(p)]
    return sum(values) / len(values)


def bound_of(metric) -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def check_reference(path, wl) -> list:
    """The warm-up CSV's mean throughput against reference.json, within the
    mean_throughput bound of BENCHMARK.json."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)[wl.name]
    if ref["trials"] != wl.reference_trials:
        return [f"reference.json records {ref['trials']} trials, the workload runs {wl.reference_trials}"]
    got = mean_throughput([path])
    tol = bound_of("mean_throughput")
    if abs(got - ref["mean_throughput"]) > tol * ref["mean_throughput"]:
        return [
            f"{path}: mean throughput {got} differs from the reference "
            f"{ref['mean_throughput']} by more than {tol:.0%}"
        ]
    return []


def same_bytes(paths) -> list:
    """Problems unless every file holds the same bytes as the first."""
    first = Path(paths[0]).read_bytes()
    return [f"{p} differs from {paths[0]}" for p in paths[1:] if Path(p).read_bytes() != first]

"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import hooks  # noqa: E402
import measure  # noqa: E402
from workloads import REFERENCE_SEED, ROOT, WORKLOADS  # noqa: E402


def tiny(name):
    """The workload at a few trials. proposed beats the baselines on the
    mean over trials, not in every trial, so default_cell keeps five."""
    trials = 5 if WORKLOADS[name].proposed_dominates else 1
    return dataclasses.replace(WORKLOADS[name], unit_trials=trials, trace_trials=trials)


def deterministic(metrics):
    """The metrics that are counts, not times."""
    return {
        k: v for k, v in metrics.items()
        if measure.PER_LAYER[k][0] in ("count", "bytes") or k.endswith("_frac")
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_each_workload(name, tmp_path):
    wl = tiny(name)
    res = measure.e2e(wl, seed=3, seconds=0.0, outdir=tmp_path)
    invocations = res["invocations"]
    assert len(res["units"]) == measure.MIN_UNITS
    assert len(invocations) == 1 + measure.MIN_UNITS
    assert len(res["probes"]) == 1 + measure.MIN_UNITS
    assert (invocations[0]["seed"], invocations[0]["trials"]) == (REFERENCE_SEED, wl.reference_trials)
    for inv in invocations:
        assert check.check_csv(inv["csv"], wl, inv["trials"], inv["seed"]) == []
    times = measure.summarize(wl, res)
    assert times["solve_samples"] == measure.MIN_UNITS * wl.evals(wl.unit_trials) // len(wl.schemes)
    assert times["evals_per_s"] > 0
    assert 0 < times["solve_p50_ms"] <= times["solve_p90_ms"]
    assert res["peak_rss_mb"] > 0
    assert measure.setup(wl, tmp_path)["first_eval_monotonic"] > 0


def test_summarize_scales_times_by_the_host_probe():
    wl = WORKLOADS["default_cell"]
    ref = measure.PROBE_REFERENCE_S
    unit = {"wall_s": 2.0, "probe_s": [ref, ref], "eval_s": [0.05, 0.1]}
    slow = {"wall_s": 4.0, "probe_s": [2 * ref, 2 * ref], "eval_s": [0.1, 0.2]}
    times = measure.summarize(wl, {"units": [unit, slow], "probes": [ref, ref, 2 * ref]})
    assert times["evals_per_s"] == pytest.approx(2 * wl.evals(wl.unit_trials) / 4.0)
    assert times["raw_evals_per_s"] == pytest.approx(2 * wl.evals(wl.unit_trials) / 6.0)
    assert times["solve_p50_ms"] == pytest.approx(75.0)
    assert times["raw_solve_p50_ms"] == pytest.approx(100.0)


def test_host_probe_stops_its_helpers():
    with measure.HostProbe(2) as probe:
        assert probe() > 0
        helpers = [proc for proc, _ in probe._helpers]
    assert len(helpers) == 1
    assert not helpers[0].is_alive()


@pytest.fixture(scope="module")
def good_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "good.csv"
    measure.invoke(WORKLOADS["default_cell"].argv(7, 5, path))
    return path


def _rewrite(src, dst, edit):
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return dst


def _set(rows, scheme, field, value):
    for r in rows:
        if r["scheme"] == scheme:
            r[field] = value
    return rows


CORRUPTIONS = {
    "nan_value": lambda rows: _set(rows, "wf_minmax", "mean_sum_rate", "nan"),
    "missing_cell": lambda rows: rows[1:],
    "duplicate_cell": lambda rows: rows + rows[:1],
    "short_of_trials": lambda rows: _set(rows, "proposed", "n_trials", "1"),
    "wrong_seed": lambda rows: _set(rows, "proposed", "seed", "8"),
    "unexpected_cell": lambda rows: _set(rows, "wf_minmax", "L", "400"),
    "not_a_number": lambda rows: _set(rows, "proposed", "mean_throughput", "x"),
    "proposed_below_baseline": lambda rows: _set(rows, "proposed", "mean_throughput", "0.001"),
}


def test_check_accepts_real_csv(good_csv):
    assert check.check_csv(good_csv, WORKLOADS["default_cell"], 5, 7) == []
    assert check.check_dominance([good_csv], WORKLOADS["default_cell"]) == []


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_check_rejects_corrupted_csv(kind, good_csv, tmp_path):
    wl = WORKLOADS["default_cell"]
    bad = _rewrite(good_csv, tmp_path / "bad.csv", CORRUPTIONS[kind])
    assert check.check_csv(bad, wl, 5, 7) or check.check_dominance([bad], wl)


def test_dominance_pools_the_trials_of_a_run(good_csv, tmp_path):
    wl = WORKLOADS["default_cell"]
    assert check.check_dominance([good_csv], wl) == []
    # one invocation where proposed falls just behind, outweighed by the rest
    def fall_behind(rows):
        best = max(float(r["mean_throughput"]) for r in rows if r["scheme"] in check.BASELINES)
        return _set(rows, "proposed", "mean_throughput", str(best - 0.01))

    behind = _rewrite(good_csv, tmp_path / "behind.csv", fall_behind)
    assert check.check_dominance([behind], wl)
    assert check.check_dominance([behind] + [good_csv] * 20, wl) == []


def test_check_rejects_truncated_and_missing_files(good_csv, tmp_path):
    wl = WORKLOADS["default_cell"]
    truncated = tmp_path / "truncated.csv"
    truncated.write_bytes(good_csv.read_bytes()[:60])
    assert check.check_csv(truncated, wl, 5, 7)
    assert check.check_csv(tmp_path / "absent.csv", wl, 5, 7)
    assert check.failed_trials(tmp_path / "absent.csv", wl, 5) == wl.evals(5)


def test_reference_check(tmp_path):
    wl = WORKLOADS["default_cell"]
    path = tmp_path / "ref.csv"
    measure.invoke(wl.argv(REFERENCE_SEED, wl.reference_trials, path))
    assert check.check_reference(path, wl) == []
    scaled = _rewrite(path, tmp_path / "scaled.csv", lambda rows: [
        {**r, "mean_throughput": str(float(r["mean_throughput"]) * 1.5)} for r in rows
    ])
    assert check.check_reference(scaled, wl)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name, tmp_path):
    wl = tiny(name)
    a = measure.trace(wl, 5, tmp_path)
    b = measure.trace(wl, 5, tmp_path)
    assert a["absent"] == b["absent"] == []
    assert set(a["metrics"]) == set(measure.PER_LAYER)
    assert deterministic(a["metrics"]) == deterministic(b["metrics"])
    assert check.same_bytes(list(a["csvs"].values())) == []


def test_missing_hook_is_reported_absent(monkeypatch, tmp_path):
    spans = tuple(
        (name, module, "_no_longer_here" if name == "power.alm_run" else qualname)
        for name, module, qualname in hooks.SPANS
    )
    monkeypatch.setattr(hooks, "SPANS", spans)
    res = measure.trace(tiny("default_cell"), 5, tmp_path)
    gone = {"power.alm_runs_per_solve", "power.spg_calls_per_alm_run", "power.warm_start_win_frac"}
    assert set(res["absent"]) == gone
    assert gone.isdisjoint(res["metrics"])
    assert res["metrics"]["power.solve_power.calls_per_eval"] > 0


def test_hooks_are_removed_after_a_run(tmp_path):
    import fblopt.harness
    import fblopt.kernels
    import fblopt.power

    before = (fblopt.harness.scheme_dispatch, fblopt.power.q_inverse, fblopt.kernels.q_inverse)
    measure.trace(tiny("default_cell"), 5, tmp_path)
    assert (fblopt.harness.scheme_dispatch, fblopt.power.q_inverse, fblopt.kernels.q_inverse) == before


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in measure.PER_LAYER.items()
    }
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "default_cell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

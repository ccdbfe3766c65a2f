import csv
import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import re
import sys
import time
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fblopt.channel import NetworkRealization, UserLink, sample_realization
from fblopt.error_assignment import SortedQosProfile, optimal_errors
import fblopt.channel
import fblopt.harness
import fblopt.joint
import fblopt.power
from fblopt.harness import (
    CSV_COLUMNS,
    MAX_GAIN,
    OMEGA_FREE,
    ResultRow,
    SCHEMES,
    ScenarioConfig,
    _aggregate,
    _run_trial,
    config_hash,
    default_config,
    emit_csv,
    load_config_file,
    run_scenario,
    scheme_dispatch,
    write_manifest,
)
from fblopt.joint import solve_joint
from fblopt.oracle import OracleGrid
from fblopt.power import equal_power, water_filling

PAPER_CAPS = (1e-5, 5e-5, 1e-4, 5e-4)
ROOT = Path(__file__).resolve().parent.parent


def read_rows(path):
    """Parse a CSV produced by emit_csv back into ResultRow objects, each
    column with its field's type; a header other than CSV_COLUMNS, or a row
    of another length, raises ValueError."""
    types = [f.type for f in fields(ResultRow)]
    with open(path, encoding="utf-8", newline="") as fh:
        records = csv.reader(fh)
        header = tuple(next(records, ()))
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: header {header} is not {CSV_COLUMNS}")
        return [ResultRow(*(t(v) for t, v in zip(types, rec, strict=True))) for rec in records]


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def scenario_cells():
    """Every (L, p_max dB, omega) cell of the shipped scenario files, once,
    with the first file that holds it."""
    cells = {}
    for path in sorted((ROOT / "scenarios").glob("*.ini")):
        cfg = load_config_file(path)
        for cell in itertools.product(cfg.l_grid, cfg.p_max_grid, cfg.omega_grid):
            cells.setdefault(cell, path)
    return cells


# the trial on which proposedpower_minmax's objective beats proposed's, where
# the joint solver's alternation stops short of the best shared level
BEATEN_CELLS = {(200, 6.0, 0.8): 217, (1600, 6.0, 0.9): 208}


def tiny_config(**overrides):
    base = dict(n_trials=8, schemes=SCHEMES, master_seed=777)
    base.update(overrides)
    return default_config(**base)


def sweep_config(**overrides):
    """Every scheme on both omega sign classes, two lengths and two budgets."""
    base = dict(n_trials=4, omega_grid=(0.0, 0.3, 0.9, 1.0), l_grid=(100, 200), p_max_grid=(0.0, 6.0))
    base.update(overrides)
    return tiny_config(**base)


def bits(rows):
    """Each row's values, every float as its exact hex form."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in astuple(r)) for r in rows]


class TestSchemeDispatch:
    def setup_method(self):
        self.links = [UserLink(1.0, 1.0, 3.0, c) for c in PAPER_CAPS]
        self.profile = SortedQosProfile.from_caps(PAPER_CAPS)
        self.r = NetworkRealization(sample_realization(self.links, 1.0, seed=5), 4.0, 200)

    def test_wf_minmax_uses_strictest_cap(self):
        rep = scheme_dispatch("wf_minmax", self.r, self.profile, 0.9)
        assert np.all(rep.eps == 1e-5)
        assert np.allclose(rep.p, water_filling(self.r.gamma, 4.0))

    def test_proposedpower_minmax_eps(self):
        rep = scheme_dispatch("proposedpower_minmax", self.r, self.profile, 0.9)
        assert np.all(rep.eps == 1e-5)
        assert np.sum(rep.p) <= 4.0 * (1 + 1e-6)

    def test_equal_power_split(self):
        rep = scheme_dispatch("equalpower_opteps", self.r, self.profile, 0.9)
        assert np.allclose(rep.p, equal_power(4, 4.0))
        expected = optimal_errors(self.r, rep.p, self.profile, 0.9)
        assert np.array_equal(rep.eps, expected)

    def test_proposedpower_minmax_omega_zero_is_water_filling(self):
        # with no weight on the rate every p is optimal; solve_power returns
        # its start, water-filling
        rep = scheme_dispatch("proposedpower_minmax", self.r, self.profile, 0.0)
        assert rep.p is self.r.p_wf
        assert np.all(rep.eps == 1e-5) and rep.flags == []

    def test_proposed_is_joint_solver(self):
        rep = scheme_dispatch("proposed", self.r, self.profile, 0.9)
        direct = solve_joint(self.r, self.profile, 0.9)
        assert rep.objective == direct.objective

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            scheme_dispatch("zf_beamforming", self.r, self.profile, 0.9)

    @pytest.mark.parametrize(
        "path, L, p_max_db, omega",
        [
            pytest.param(
                path, *cell, id=f"{path.stem}-L{cell[0]}-{cell[1]:g}dB-w{cell[2]:g}",
                marks=[
                    pytest.mark.xfail(
                        strict=True, raises=AssertionError,
                        reason=f"proposedpower_minmax beats proposed on trial {BEATEN_CELLS[cell]}",
                    )
                ] if cell in BEATEN_CELLS else [],
            )
            for cell, path in scenario_cells().items()
        ],
    )
    def test_no_baseline_beats_proposed_objective(self, path, L, p_max_db, omega):
        # every baseline's (p, eps) is feasible for the problem proposed
        # solves, so none may score a higher weighted objective on its draw;
        # 220 draws reach both known shortfalls
        cfg = load_config_file(path)
        profile = SortedQosProfile.from_caps([link.eps_max for link in cfg.links])
        beaten = []
        for trial in range(220):
            seed = np.random.SeedSequence([20240, trial])
            gamma = sample_realization(cfg.links, cfg.noise_power, seed)
            r = NetworkRealization(gamma, cfg.p_max_linear(p_max_db), L)
            best = scheme_dispatch("proposed", r, profile, omega).objective
            for scheme in SCHEMES[1:]:
                if scheme_dispatch(scheme, r, profile, omega).objective > best:
                    beaten.append((trial, scheme))
        assert beaten == []

    @pytest.mark.parametrize("n_users, draws", [(4, 50), (12, 20)])
    def test_reports_do_not_depend_on_cache_order(self, n_users, draws):
        # a realization fills p_wf, sr_inf, its vertex halves and log(L)/L on
        # first use, whichever scheme asks first; each report must be the
        # same bits as on a fresh realization when every scheme and omega
        # has filled them first, in reverse order. A replaced budget starts
        # the vertex halves afresh.
        caps = PAPER_CAPS if n_users == 4 else tuple(np.geomspace(1e-5, 5e-4, n_users).tolist())
        links = [UserLink(1.0, 1.0, 3.0, c) for c in caps]
        profile = SortedQosProfile.from_caps(caps)
        runs = list(itertools.product(SCHEMES, (0.0, 0.9)))
        budgets = (1.0, 10.0)

        def report_bits(scheme, r, omega):
            rep = scheme_dispatch(scheme, r, profile, omega)
            values = [rep.objective, rep.sum_rate, rep.throughput]
            return rep.p.tobytes(), rep.eps.tobytes(), np.array(values).tobytes(), rep.flags

        for trial in range(draws):
            gamma = sample_realization(links, 1.0, np.random.SeedSequence([20240, trial]))
            for L, p_max in itertools.product((100, 1600), budgets):
                fresh = [report_bits(s, NetworkRealization(gamma, p_max, L), w) for s, w in runs]
                warm = NetworkRealization(gamma, p_max, L)
                for scheme, omega in reversed(runs):
                    scheme_dispatch(scheme, warm, profile, omega)
                assert [report_bits(s, warm, w) for s, w in runs] == fresh
                other = budgets[1] if p_max == budgets[0] else budgets[0]
                moved, new = replace(warm, p_max=other), NetworkRealization(gamma, other, L)
                for name in ("vertex_log1p", "vertex_dispersion"):
                    assert getattr(moved, name).tobytes() == getattr(new, name).tobytes()

    def test_default_trial_43_proposed_not_beaten(self):
        # the certificate's worst trial under the augmented-Lagrangian power
        # solve: proposed scored 0.70469 against 0.73216, because the power
        # solves inside the alternation, at shared levels z other than the
        # minmax one, kept the wrong set of transmitting users
        cfg = default_config()
        gamma = sample_realization(cfg.links, cfg.noise_power, np.random.SeedSequence([20240, 43]))
        r = NetworkRealization(gamma, cfg.p_max_linear(6.0), 200)
        proposed = scheme_dispatch("proposed", r, self.profile, 0.9).objective
        assert proposed >= scheme_dispatch("proposedpower_minmax", r, self.profile, 0.9).objective

    @pytest.mark.parametrize("scheme", ["proposed", "proposedpower_minmax"])
    def test_over_budget_power_run_never_returned(self, scheme, one_newton_step):
        # rows stopped after one Newton step are rescaled onto the budget
        # before they are scored, and a winner among them is flagged
        rep = scheme_dispatch(scheme, self.r, self.profile, 0.9)
        assert np.all(rep.p >= 0.0) and np.sum(rep.p) <= self.r.p_max * (1 + 1e-12)
        assert "power_stage_cap" in rep.flags and "not_converged" not in rep.flags
        again = scheme_dispatch(scheme, self.r, self.profile, 0.9)
        assert again.objective == rep.objective and np.array_equal(again.p, rep.p)


class TestRunScenario:
    def test_retired_power_solver_stays_off_the_solve_path(self, monkeypatch):
        # of the retired augmented-Lagrangian solver only the names the
        # benchmark's hooks wrap remain: no scheme may reach them, at any
        # weight or user count
        def retired(*args, **kwargs):
            raise AssertionError("the retired power solver was called")

        for name in ("_alm_run", "_spg", "_PowerObjective"):
            monkeypatch.setattr(fblopt.power, name, retired)
        rows = run_scenario(tiny_config(n_trials=2, omega_grid=(0.0, 0.5, 0.9, 1.0)))
        assert len(rows) == 4 * len(SCHEMES)
        many = load_config_file(ROOT / "benchmarks" / "scenarios" / "many_users.ini")
        rows = run_scenario(replace(many, n_trials=1, schemes=SCHEMES))
        assert len(rows) == len(SCHEMES)

    def test_degenerate_cell_reproducible_by_hand(self):
        cfg = default_config(
            links=(UserLink(1.0, 1.0, 3.0, 5e-4),),
            n_trials=1,
            schemes=("proposed",),
            fading=False,
            p_max_grid=(10.0,),  # dB, exactly 10 in linear units
            l_grid=(200,),
            omega_grid=(0.9,),
        )
        rows = run_scenario(cfg)
        assert len(rows) == 1
        r = NetworkRealization(sample_realization(cfg.links, 1.0, fading=False), 10.0, 200)
        rep = solve_joint(r, SortedQosProfile.from_caps([5e-4]), 0.9)
        assert rows[0].mean_sum_rate == rep.sum_rate
        assert rows[0].mean_throughput == rep.throughput
        assert rows[0].mean_max_eps == rep.max_eps
        assert rows[0].std_throughput == 0.0

    def test_unknown_scheme_rejected_at_config(self):
        with pytest.raises(ValueError):
            tiny_config(schemes=("proposed", "genie"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"omega_grid": (0.9, 0.5, 0.9)},
            {"l_grid": (200, 200)},
            {"p_max_grid": (6.0, 6)},
            {"schemes": ("wf_minmax", "wf_minmax")},
        ],
        ids=lambda overrides: next(iter(overrides)),
    )
    def test_repeated_value_rejected(self, overrides):
        # a repeat would compute its cells twice and write each of their rows twice
        with pytest.raises(ValueError, match="repeat"):
            tiny_config(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"l_grid": (100.5,)},
            {"omega_grid": (float("nan"),)},
            {"p_max_grid": (float("-inf"),)},
            {"p_max_grid": (6.0, float("inf"))},
            {"p_max_grid": (4000.0,)},  # 10^400 overflows a float
        ],
    )
    def test_library_only_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            tiny_config(**overrides)

    def test_same_seed_identical_csv(self, tmp_path):
        cfg = tiny_config(schemes=("wf_minmax", "equalpower_opteps"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_scenario(cfg), a)
        emit_csv(run_scenario(cfg), b)
        assert file_hash(a) == file_hash(b)

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # J shares start J - 1 worker processes, the parent running one share;
        # 3 jobs split 6 trials evenly, 4 unevenly, and 8 jobs leave 6 shares.
        # Every cell is reduced from the serial run's column, bit for bit and
        # in trial order, which the 9-digit CSV alone might not show
        starts, reduced = [], []
        real_start, real_aggregate = multiprocessing.process.BaseProcess.start, _aggregate

        def start(self):
            starts.append(self)
            real_start(self)

        def aggregate(column, *args):
            reduced.append(column.copy())
            return real_aggregate(column, *args)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        monkeypatch.setattr(fblopt.harness, "_aggregate", aggregate)
        one_cell = tiny_config(schemes=("proposed",), n_trials=6)
        multi_cell = replace(
            one_cell,
            omega_grid=(0.5, 0.9),
            l_grid=(100, 200),
            schemes=("proposed", "equalpower_opteps"),
        )
        for cfg in (one_cell, multi_cell):
            a = tmp_path / "serial.csv"
            emit_csv(run_scenario(cfg), a)
            assert starts == []
            serial = reduced[:]
            assert all(column.shape == (6, 3) for column in serial)
            for jobs in (2, 3, 4, 8):
                reduced.clear()
                b = tmp_path / f"par{jobs}.csv"
                emit_csv(run_scenario(replace(cfg, n_jobs=jobs)), b)
                assert file_hash(a) == file_hash(b)
                assert len(reduced) == len(serial)
                assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(reduced, serial))
                assert len(starts) == min(jobs, cfg.n_trials) - 1
                assert multiprocessing.active_children() == []
                starts.clear()
            reduced.clear()
        assert len(read_rows(b)) == 8

    def test_one_draw_per_trial_shared_by_every_cell(self, monkeypatch):
        cfg = tiny_config(
            schemes=("wf_minmax", "equalpower_opteps"),
            n_trials=3,
            omega_grid=(0.5, 0.9),
            l_grid=(100, 200),
            p_max_grid=(0.0, 6.0),
        )
        real_trial, real_dispatch = fblopt.harness._run_trial, fblopt.harness.scheme_dispatch
        real_sample = fblopt.harness.sample_realization
        real_from_caps = SortedQosProfile.from_caps.__func__
        seen, counts = {}, {"sample": 0, "from_caps": 0}
        current = []

        def run_trial(config, profile, trial):
            current[:] = [trial]
            return real_trial(config, profile, trial)

        def dispatch(scheme, realization, *args):
            seen.setdefault(current[0], []).append(
                (realization.gamma, realization.block_length, realization.p_max)
            )
            return real_dispatch(scheme, realization, *args)

        def sample(*args, **kwargs):
            counts["sample"] += 1
            return real_sample(*args, **kwargs)

        def from_caps(cls, caps):
            counts["from_caps"] += 1
            return real_from_caps(cls, caps)

        monkeypatch.setattr(fblopt.harness, "_run_trial", run_trial)
        monkeypatch.setattr(fblopt.harness, "scheme_dispatch", dispatch)
        monkeypatch.setattr(fblopt.harness, "sample_realization", sample)
        monkeypatch.setattr(SortedQosProfile, "from_caps", classmethod(from_caps))
        run_scenario(cfg)
        assert counts == {"sample": cfg.n_trials, "from_caps": 1}
        assert sorted(seen) == list(range(cfg.n_trials))
        for trial, calls in seen.items():
            # 8 from equalpower_opteps, one per cell, and 4 from wf_minmax, one
            # per (L, p_max): its row is shared by both omega > 0 cells
            assert len(calls) == 12
            rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, trial]))
            expected = real_sample(cfg.links, 1.0, rng)
            assert all(np.array_equal(gamma, expected) for gamma, _, _ in calls)
            cells = {(length, p_max) for _, length, p_max in calls}
            assert cells == {(l, 10.0 ** (p / 10.0)) for l in (100, 200) for p in (0.0, 6.0)}

    def test_shared_rows_same_bits_as_every_cell_dispatched(self):
        # the reference dispatches every (scheme, cell) of every trial
        cfg = sweep_config()
        profile = SortedQosProfile.from_caps([l.eps_max for l in cfg.links])
        columns = {}
        for trial in range(cfg.n_trials):
            seed = np.random.SeedSequence([cfg.master_seed, trial])
            gamma = sample_realization(cfg.links, cfg.noise_power, seed)
            for omega, length, p_max, scheme in itertools.product(
                cfg.omega_grid, cfg.l_grid, cfg.p_max_grid, cfg.schemes
            ):
                r = NetworkRealization(gamma, cfg.p_max_linear(p_max), length)
                rep = scheme_dispatch(scheme, r, profile, omega)
                columns.setdefault((scheme, omega, length, p_max), []).append(
                    (rep.sum_rate, rep.max_eps, rep.throughput)
                )
        expected = bits(_aggregate(np.array(columns[key]), *key, cfg) for key in sorted(columns))
        assert len(expected) == 4 * 2 * 2 * len(SCHEMES)
        for jobs in (1, 2):
            assert bits(run_scenario(replace(cfg, n_jobs=jobs))) == expected

    def test_omega_free_schemes_dispatch_once_per_sign(self, monkeypatch):
        real, calls = fblopt.harness.scheme_dispatch, []

        def dispatch(scheme, realization, profile, omega):
            calls.append((scheme, realization.block_length, realization.p_max, omega > 0))
            return real(scheme, realization, profile, omega)

        monkeypatch.setattr(fblopt.harness, "scheme_dispatch", dispatch)
        cfg = sweep_config(n_trials=2)
        run_scenario(cfg)
        assert set(OMEGA_FREE) < set(SCHEMES)
        for scheme in SCHEMES:
            mine = [call[1:] for call in calls if call[0] == scheme]
            if scheme in OMEGA_FREE:
                # once per (L, p_max) and sign of omega in each trial
                assert len(mine) == cfg.n_trials * 2 * 2 * 2
                assert len(set(mine)) == 2 * 2 * 2
            else:
                assert len(mine) == cfg.n_trials * 4 * 2 * 2

    def test_shared_failure_fails_every_cell_it_serves(self, monkeypatch, caplog):
        real = fblopt.harness.scheme_dispatch

        def dispatch(scheme, realization, profile, omega):
            if scheme == "wf_minmax" and realization.block_length == 100:
                raise FloatingPointError("overflow")
            return real(scheme, realization, profile, omega)

        monkeypatch.setattr(fblopt.harness, "scheme_dispatch", dispatch)
        cfg = tiny_config(
            schemes=("wf_minmax", "equalpower_opteps"), omega_grid=(0.3, 0.6, 0.9), l_grid=(100, 200), n_trials=4
        )
        profile = SortedQosProfile.from_caps([l.eps_max for l in cfg.links])
        with caplog.at_level(logging.ERROR, logger="fblopt"):
            results = _run_trial(cfg, profile, 0)
        failed = [
            (scheme, length) == ("wf_minmax", 100)
            for _, length, _, scheme in fblopt.harness._columns(cfg)
        ]
        assert np.isnan(results[failed]).all() and np.isfinite(results[np.logical_not(failed)]).all()
        assert sum(failed) == 3
        # logged once, naming the cell the shared row was evaluated for
        (record,) = caplog.records
        assert record.getMessage() == "trial 0 of cell ('wf_minmax', 0.3, 100, 6.0) failed"
        with pytest.raises(RuntimeError, match=r"cell \(wf_minmax, omega=0\.3, L=100, p_max=6\.0\): 4/4"):
            run_scenario(cfg)

    def test_sr_infinity_once_per_realization(self, monkeypatch):
        cfg = tiny_config(
            links=default_config().links[:3],
            n_trials=2,
            omega_grid=(0.0, 0.9),
            l_grid=(100, 200),
            p_max_grid=(0.0, 6.0),
            oracle=OracleGrid(p_points=5, eps_points=5),
        )
        real = fblopt.channel.sr_infinity
        calls = []

        def counted(gamma, p_max, *rest):
            calls.append(p_max)
            return real(gamma, p_max, *rest)

        monkeypatch.setattr(fblopt.channel, "sr_infinity", counted)
        run_scenario(cfg)
        assert len(calls) == cfg.n_trials * 2 * 2

    def test_water_filling_once_per_realization(self, monkeypatch):
        cfg = tiny_config(
            links=default_config().links[:3],
            omega_grid=(0.0, 0.9),
            l_grid=(100, 200),
            p_max_grid=(0.0, 6.0),
            oracle=OracleGrid(p_points=5, eps_points=5),
        )
        real = fblopt.power.water_filling
        calls = []

        def counted(gamma, p_max):
            calls.append(p_max)
            return real(gamma, p_max)

        # every module that holds the function, as the benchmark's hook does
        for module in (fblopt.power, fblopt.channel, fblopt.joint, fblopt.harness):
            if getattr(module, "water_filling", None) is real:
                monkeypatch.setattr(module, "water_filling", counted)
        results = _run_trial(cfg, SortedQosProfile.from_caps([l.eps_max for l in cfg.links]), 0)
        assert results.shape == (2 * 2 * 2 * (len(SCHEMES) + 1), 3)
        assert np.isfinite(results).all()
        assert sorted(calls) == sorted(cfg.p_max_linear(p) for p in (0.0, 6.0) for _ in range(2))

    def test_cached_water_filling_is_read_only(self):
        r = NetworkRealization(sample_realization(default_config().links, 1.0, seed=5), 4.0, 200)
        assert np.array_equal(r.p_wf, water_filling(r.gamma, 4.0))
        with pytest.raises(ValueError):
            r.p_wf[0] = 0.0
        rep = scheme_dispatch("wf_minmax", r, SortedQosProfile.from_caps(PAPER_CAPS), 0.9)
        assert rep.p is r.p_wf

    @pytest.mark.parametrize(
        "gain, p_max_db",
        [(MAX_GAIN, 0.0), (1 / MAX_GAIN, -1000.0), (1 / MAX_GAIN, 1000.0), (1.0, 1000.0)],
    )
    def test_gain_at_the_limit_runs_clean(self, gain, p_max_db):
        # the corners of the load rule: the largest gain at 0 dB, the
        # smallest gain at the smallest and largest budgets, and the largest
        # budget at unit gain, with every scheme; the tests turn a
        # RuntimeWarning (an overflow or 0/0) into an error
        links = tuple(replace(link, kappa=gain) for link in default_config().links)
        rows = run_scenario(tiny_config(links=links, p_max_grid=(p_max_db,), n_trials=4))
        assert len(rows) == len(SCHEMES)
        assert all(r.n_trials == 4 and math.isfinite(r.mean_throughput) for r in rows)

    def test_over_budget_runs_do_not_fail_trials(self, one_newton_step):
        cfg = tiny_config(schemes=("proposedpower_minmax",), n_trials=1)
        (row,) = run_scenario(cfg)
        assert row.n_trials == 1 and math.isfinite(row.mean_throughput)

    def test_failure_budget_names_failing_cell(self, monkeypatch):
        real = fblopt.harness.scheme_dispatch

        # equalpower_opteps reads omega, so each of its cells is dispatched;
        # wf_minmax's cells at 0.5 and 0.9 share the row evaluated at 0.1
        def dispatch(scheme, realization, profile, omega, *args):
            if scheme == "equalpower_opteps" and omega == 0.5:
                raise FloatingPointError("overflow")
            return real(scheme, realization, profile, omega, *args)

        monkeypatch.setattr(fblopt.harness, "scheme_dispatch", dispatch)
        cfg = tiny_config(schemes=("wf_minmax", "equalpower_opteps"), omega_grid=(0.1, 0.5, 0.9), n_trials=4)
        with pytest.raises(RuntimeError, match=r"cell \(equalpower_opteps, omega=0\.5, L=200, p_max=6\.0\): 4/4"):
            run_scenario(cfg)

    def test_non_finite_report_fails_trial(self, monkeypatch):
        # a NaN throughput in 1 trial of 200 fails that trial alone, within
        # the 1% budget, and never reaches a mean
        real, calls = fblopt.harness.scheme_dispatch, []

        def dispatch(*args):
            report = real(*args)
            calls.append(report)
            return replace(report, throughput=math.nan) if len(calls) == 100 else report

        monkeypatch.setattr(fblopt.harness, "scheme_dispatch", dispatch)
        (row,) = run_scenario(tiny_config(schemes=("wf_minmax",), n_trials=200))
        assert row.n_trials == 199
        kept = [r.throughput for i, r in enumerate(calls) if i != 99]
        assert row.mean_throughput == np.mean(kept)
        assert all(math.isfinite(v) for v in (row.mean_sum_rate, row.mean_max_eps, row.std_throughput))

    def test_numerical_error_fails_trial(self, monkeypatch):
        def dispatch(*args):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(fblopt.harness, "scheme_dispatch", dispatch)
        with pytest.raises(RuntimeError, match="1/1 trials failed"):
            run_scenario(tiny_config(schemes=("wf_minmax",), n_trials=1))

    def test_programming_error_propagates(self, monkeypatch):
        def dispatch(*args):
            raise TypeError("bad call")

        monkeypatch.setattr(fblopt.harness, "scheme_dispatch", dispatch)
        with pytest.raises(TypeError):
            run_scenario(tiny_config(schemes=("wf_minmax",), n_trials=1))

        # raised only for trial 2, the second worker's share of 4 trials on
        # 3 jobs: the parent's share (0, 3) and the first worker's (1) succeed
        real = fblopt.harness._run_trial

        def run_trial(config, profile, trial):
            if trial == 2:
                raise TypeError(f"bad call in trial {trial}")
            return real(config, profile, trial)

        monkeypatch.undo()  # the real scheme_dispatch again
        monkeypatch.setattr(fblopt.harness, "_run_trial", run_trial)
        with pytest.raises(TypeError, match="bad call in trial 2") as info:
            run_scenario(tiny_config(schemes=("wf_minmax",), n_trials=4, n_jobs=3))
        assert "in the worker process" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_result_raises(self, monkeypatch):
        parent, real = os.getpid(), fblopt.harness._run_trial

        def run_trial(config, profile, trial):
            if os.getpid() != parent:
                os._exit(3)
            return real(config, profile, trial)

        monkeypatch.setattr(fblopt.harness, "_run_trial", run_trial)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_scenario(tiny_config(schemes=("wf_minmax",), n_trials=2, n_jobs=2))
        assert multiprocessing.active_children() == []

    def test_parent_share_error_terminates_workers(self, monkeypatch):
        # the workers would sleep for a minute: the run must not wait for them
        parent = os.getpid()

        def run_trial(config, profile, trial):
            if os.getpid() == parent:
                raise TypeError("bad call in the parent")
            time.sleep(60)

        monkeypatch.setattr(fblopt.harness, "_run_trial", run_trial)
        begin = time.monotonic()
        with pytest.raises(TypeError, match="in the parent"):
            run_scenario(tiny_config(schemes=("wf_minmax",), n_trials=3, n_jobs=3))
        assert time.monotonic() - begin < 30
        assert multiprocessing.active_children() == []

    def test_failure_budget_enforced(self):
        column = np.tile([1.0, 1e-5, 1.0], (20, 1))
        column[0] = np.nan  # 1 of 20 failed
        with pytest.raises(RuntimeError):
            _aggregate(column, "proposed", 0.9, 200, 6.0, tiny_config())

    def test_failed_trials_excluded_from_means(self):
        column = np.tile([2.0, 1e-5, 2.0], (1000, 1))
        column[995:] = np.nan
        column[994, 2] = np.inf  # one non-finite value fails the trial
        row = _aggregate(column, "proposed", 0.9, 200, 6.0, tiny_config())
        assert row.n_trials == 994
        assert (row.mean_sum_rate, row.mean_max_eps, row.mean_throughput) == (2.0, 1e-5, 2.0)

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 127, 128, 129, 1000])
    def test_aggregate_has_the_bits_of_ndarray_mean_and_std(self, length):
        # numpy's pairwise sums unroll by 8 and split blocks of 128, so the
        # lengths straddle both; a failure budget of 1% lets the columns of
        # 100 trials or more lose a row
        rng = np.random.default_rng(length)
        config = tiny_config()
        for failed in sorted({0, length // 100}):
            results = np.empty((length, 3, 3))  # a strided column, as run_scenario's
            results[:, 1] = rng.normal(1e3, [1e-3, 1.0, 1e2], size=(length, 3)) * [1.0, 1e-7, 3.0]
            lost = rng.choice(length, size=failed, replace=False)
            results[lost, 1, rng.integers(0, 3, size=failed)] = np.resize([np.nan, np.inf, -np.inf], failed)
            column = results[:, 1]
            ok = np.isfinite(column).all(axis=1)
            sum_rate, max_eps, throughput = column[ok].T.copy()
            expected = [
                float(sum_rate.mean()), float(max_eps.mean()), float(throughput.mean()),
                float(throughput.std(ddof=1)) if throughput.size > 1 else 0.0,
            ]
            row = _aggregate(column, "proposed", 0.9, 200, 6.0, config)
            got = [row.mean_sum_rate, row.mean_max_eps, row.mean_throughput, row.std_throughput]
            assert [type(x) for x in got] == [float] * 4
            assert [x.hex() for x in got] == [x.hex() for x in expected]
            assert row.n_trials == length - failed


class TestCsv:
    def make_row(self, **kw):
        base = dict(
            scheme="proposed", omega=0.9, block_length=200, p_max=6.0,
            mean_sum_rate=1.23456789012, mean_max_eps=4.5e-5,
            mean_throughput=1.22, std_throughput=0.31, n_trials=10, seed=7,
        )
        base.update(kw)
        return ResultRow(**base)

    def test_single_row_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([self.make_row()], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("scheme,omega,L,p_max")

    def test_round_trip(self, tmp_path):
        rows = [
            self.make_row(),
            self.make_row(scheme="wf_minmax", mean_throughput=0.5),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, a)
        emit_csv(read_rows(a), b)
        assert file_hash(a) == file_hash(b)
        # a header that is not CSV_COLUMNS, here with the field name in place of L
        b.write_text(a.read_text().replace(",L,", ",block_length,", 1))
        with pytest.raises(ValueError, match="header"):
            read_rows(b)
        b.write_text(a.read_text() + "wf_minmax,0.9,200,6,1,1e-05,1,0,10,7,extra\n")
        with pytest.raises(ValueError):
            read_rows(b)

    def test_rows_sorted(self, tmp_path):
        rows = [
            self.make_row(scheme="wf_minmax"),
            self.make_row(scheme="proposed", block_length=400),
            self.make_row(scheme="proposed", block_length=100),
        ]
        path = tmp_path / "sorted.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()[1:]
        assert lines[0].startswith("proposed,0.9,100")
        assert lines[1].startswith("proposed,0.9,400")
        assert lines[2].startswith("wf_minmax")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "empty.csv")

    def test_golden_default_small(self, tmp_path):
        # frozen output of the pinned 25-trial default scenario on this
        # platform; regenerate deliberately if the solver changes
        cfg = default_config(n_trials=25, master_seed=20240)
        path = tmp_path / "golden.csv"
        emit_csv(run_scenario(cfg), path)
        golden = tmp_path / "expected.csv"
        golden.write_text(GOLDEN_CSV)
        assert path.read_text() == GOLDEN_CSV

    def test_golden_many_users(self, tmp_path):
        # twelve users reach numpy's 8-accumulator pairwise sums, which the
        # four-user golden above does not; frozen like GOLDEN_CSV
        links = tuple(UserLink(1.0, 1.0, 3.0, c) for c in np.geomspace(1e-5, 5e-4, 12))
        cfg = default_config(
            links=links,
            n_trials=2,
            master_seed=20240,
            l_grid=(100, 1600),
            p_max_grid=(0.0, 12.0),
            schemes=("proposed", "proposedpower_minmax"),
        )
        path = tmp_path / "golden12.csv"
        emit_csv(run_scenario(cfg), path)
        assert path.read_text() == GOLDEN_MANY_USERS_CSV

    def test_golden_oracle(self, tmp_path):
        # the exhaustive oracle's rows, on three users across the weight
        # range (omega = 0 included); frozen like GOLDEN_CSV
        cfg = default_config(
            links=default_config().links[:3],
            n_trials=10,
            master_seed=20240,
            omega_grid=(0.0, 0.5, 0.9),
            oracle=OracleGrid(30, 30),
        )
        path = tmp_path / "golden_oracle.csv"
        emit_csv(run_scenario(cfg), path)
        assert path.read_text() == GOLDEN_ORACLE_CSV


class TestManifestAndConfig:
    def test_manifest_contents(self, tmp_path):
        cfg = tiny_config()
        csv_path = tmp_path / "r.csv"
        emit_csv([TestCsv().make_row()], csv_path)
        manifest = write_manifest(cfg, csv_path)
        text = open(manifest).read()
        assert "config_hash" in text and "master_seed = 777" in text
        lines = text.splitlines()
        assert f"numpy = {np.__version__}" in lines
        assert f"python = {sys.version.split()[0]}" in lines
        assert not any(line.startswith("scipy") for line in lines)

    def test_config_hash_ignores_jobs(self):
        cfg = tiny_config()
        assert config_hash(cfg) == config_hash(replace(cfg, n_jobs=2))
        assert config_hash(cfg) != config_hash(replace(cfg, n_trials=9))
        # grids given as lists are kept as tuples: the same config, hashable
        listed = replace(cfg, omega_grid=list(cfg.omega_grid), schemes=list(cfg.schemes))
        assert listed == cfg and hash(listed) == hash(cfg)
        assert config_hash(listed) == config_hash(cfg)
        assert default_config(omega_grid=[0.9]) == default_config()

    def test_config_hash_is_the_asdict_formula(self, tmp_path):
        # the hash written to every manifest: the SHA-256 of the config's
        # asdict less n_jobs, as JSON with sorted keys
        def reference(config):
            values = asdict(config)
            del values["n_jobs"]
            blob = json.dumps(values, sort_keys=True, default=str)
            return hashlib.sha256(blob.encode()).hexdigest()

        oracle = tmp_path / "oracle.ini"
        oracle.write_text(
            "[scenario]\nomega_grid = 0 0.5 0.9\nn_jobs = 2\n[users]\ncount = 3\n"
            "eps_max = 1e-5 5e-5 1e-4\n[oracle]\np_points = 30\neps_points = 20\n"
        )
        configs = [
            default_config(),
            load_config_file(oracle),
            load_config_file(ROOT / "benchmarks" / "scenarios" / "many_users.ini"),
        ]
        assert configs[1].oracle == OracleGrid(30, 20)
        for config in configs:
            assert config_hash(config) == reference(config)

    def test_load_config_file(self, tmp_path):
        text = """
[scenario]
omega_grid = 0.5 0.9
l_grid = 100 200
p_max_grid = 0 6
n_trials = 12
master_seed = 31415
schemes = proposed wf_minmax
noise_power = 1.0
fading = false

[users]
count = 2
kappa = 1.0
distance = 1.0 2.0
pathloss_exp = 3.0
eps_max = 1e-5 5e-4
"""
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        cfg = load_config_file(path)
        assert cfg.omega_grid == (0.5, 0.9)
        assert cfg.l_grid == (100, 200)
        assert cfg.n_trials == 12
        assert cfg.master_seed == 31415
        assert cfg.schemes == ("proposed", "wf_minmax")
        assert len(cfg.links) == 2
        assert cfg.links[1].distance == 2.0
        assert cfg.links[0].eps_max == 1e-5
        assert cfg.fading is False

    def test_load_config_checks_the_whole_scenario(self, tmp_path):
        # a noise power that the default unit gains would put out of range,
        # with gains that bring it back
        path = tmp_path / "quiet.ini"
        path.write_text("[scenario]\nnoise_power = 1e-120\n[users]\nkappa = 1e-120\n")
        cfg = load_config_file(path)
        assert cfg.noise_power == 1e-120 and cfg.links[0].kappa == 1e-120

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.ini"
        for text in [
            "[scenario]\nfrobnicate = 1\n",
            "[scenario]\nsolver = 1\n",
            "[users]\nfrobnicate = 1\n",
            "[solver]\nfrobnicate = 1\n",
            "[solver]\nmax_alternations = 20\n",
            "[oracle]\nfrobnicate = 1\n",
            "[frobnicate]\ncount = 1\n",
        ]:
            path.write_text(text)
            with pytest.raises(ValueError):
                load_config_file(path)

    @pytest.mark.parametrize(
        "line",
        [
            "p_max_grid = nan",
            "n_jobs = 0",
            "n_trials = 0",
            "omega_grid = 0.5 1.5",
            "omega_grid = -0.1",
            "l_grid = 1",
            "l_grid =",
            "l_grid = 200 200",
            "p_max_grid = 4 -inf",
            "p_max_grid = 4 inf",
            "p_max_grid = 4000",
            "noise_power = 0",
            # mean gain over noise not positive and finite: inf, an overflow
            # of d^(-pathloss_exp), and a quotient that overflows
            "[users]\nkappa = inf",
            "[users]\ndistance = 1e-120",
            "noise_power = 1e-320",
            # above MAX_GAIN: fading would overflow the solvers' squares, or
            # the realization itself; alone, and times a budget
            "[users]\nkappa = 1e160",
            "[users]\nkappa = 1e308",
            "p_max_grid = -700\n[users]\nkappa = 1e160",
            "p_max_grid = 3000",
            "p_max_grid = 0 30\n[users]\nkappa = 1e99",
            # a gain or a budget outside [1/MAX_GAIN, MAX_GAIN]: the power
            # solver's Newton weights overflow or divide 0 by 0, or the
            # water-filling normalizer rounds to zero in every trial
            "p_max_grid = 1550\n[users]\nkappa = 1e-60",
            "p_max_grid = 1610\n[users]\nkappa = 1e-160",
            "[users]\nkappa = 1e-310",
            "p_max_grid = -3000\n[users]\nkappa = 1e-100",
            "master_seed = -1",
            "schemes =",
            "schemes = proposed genie",
            "[users]\ncount = 0\neps_max =",
            "[users]\neps_max = 1e-13 5e-5 1e-4 5e-4",  # a cap below EPS_FLOOR
            "[oracle]\np_points = 30",  # four default users
            "[users]\ncount = 3\neps_max = 1e-5 5e-5 1e-4\n[oracle]\np_points = 0",
            "[users]\ncount = 3\neps_max = 1e-5 5e-5 1e-4\n[oracle]\neps_points = 0",
        ],
    )
    def test_load_config_rejects_bad_values(self, tmp_path, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[scenario]\n{line}\n")
        with pytest.raises(ValueError):
            load_config_file(path)

    def test_readme_schema_loads(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        assert load_config_file(path) == default_config(l_grid=(100, 200))

    def test_readme_library_example_runs(self, capsys):
        readme = (ROOT / "README.md").read_text()
        exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), {})
        assert capsys.readouterr().out.strip()

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config_file("/nonexistent/scenario.ini")


class TestCli:
    def test_end_to_end(self, tmp_path):
        from fblopt.cli import main

        out = tmp_path / "cli.csv"
        code = main(
            [
                "--trials", "3",
                "--schemes", "wf_minmax",
                "--omega", "0.9",
                "--lgrid", "100",
                "--pmax-db", "6",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1 and rows[0].seed == 11
        assert os.path.exists(str(out) + ".manifest.txt")

    def test_run_loads_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter that
        # imports the CLI and runs it, manifest included, never loads scipy
        import subprocess

        code = (
            "import sys\n"
            "from fblopt.cli import main\n"
            "main(['--trials', '1', '--schemes', 'wf_minmax', '--out', sys.argv[1]])\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "fresh.csv")],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.splitlines()[-1] == "[]"

    def test_flag_dests_are_config_fields(self, tmp_path, monkeypatch):
        # main passes each given flag to the config under its dest, so a
        # dest naming no ScenarioConfig field raises instead of being dropped
        from fblopt import cli

        parser = cli.build_parser()
        dests = {a.dest for a in parser._actions} - {"help", "config", "out"}
        assert dests <= {f.name for f in fields(ScenarioConfig)}

        # the typo goes on a private parser: the shared one must not change
        private = cli.build_parser.__wrapped__()
        assert private is not parser
        private.add_argument("--trails", type=int)
        monkeypatch.setattr(cli, "build_parser", lambda: private)
        for config in ([], ["--config", str(ROOT / "scenarios" / "tradeoff.ini")]):
            with pytest.raises(TypeError, match="trails"):
                cli.main([*config, "--trails", "3", "--out", str(tmp_path / "x.csv")])
        assert "--trails" not in parser._option_string_actions

    def test_parser_is_built_once_per_process(self):
        from fblopt import cli

        assert cli.build_parser() is cli.build_parser()

    def test_back_to_back_runs_write_the_bytes_of_single_runs(self, tmp_path):
        # the parser is built once per process and the inflection-point
        # memo outlives a run: two runs in one fresh process, the default
        # config and then many_users.ini, with other seeds and schemes,
        # write the bytes each writes alone in its own fresh process
        import subprocess

        many = ROOT / "benchmarks" / "scenarios" / "many_users.ini"
        runs = {
            "default": ["--trials", "3", "--seed", "5", "--schemes", "proposed", "wf_minmax"],
            "many": ["--config", str(many), "--trials", "2", "--seed", "9",
                     "--schemes", "proposedpower_minmax", "equalpower_opteps"],
        }
        code = (
            "import json, sys\n"
            "from fblopt.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    main(argv)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        def run_process(*argvs):
            subprocess.run(
                [sys.executable, "-c", code, json.dumps(argvs)],
                env=env, capture_output=True, timeout=120, check=True,
            )

        for name, argv in runs.items():
            run_process([*argv, "--out", str(tmp_path / f"{name}-alone.csv")])
        run_process(*([*argv, "--out", str(tmp_path / f"{name}-same.csv")] for name, argv in runs.items()))
        for name in runs:
            alone = (tmp_path / f"{name}-alone.csv").read_bytes()
            assert (tmp_path / f"{name}-same.csv").read_bytes() == alone
            manifests = [
                (tmp_path / f"{name}-{way}.csv.manifest.txt").read_text().splitlines()[0]
                for way in ("alone", "same")
            ]
            assert manifests[0] == manifests[1]

    def test_default_seed(self, tmp_path):
        from fblopt.cli import main

        out = tmp_path / "default.csv"
        main(
            [
                "--trials", "2",
                "--schemes", "wf_minmax",
                "--out", str(out),
            ]
        )
        assert read_rows(out)[0].seed == 12345

    def test_seed_precedence_with_config(self, tmp_path):
        from fblopt.cli import main

        config = tmp_path / "s.ini"
        out = tmp_path / "seed.csv"
        argv = ["--config", str(config), "--trials", "2", "--schemes", "wf_minmax", "--out", str(out)]
        config.write_text("[scenario]\nl_grid = 100\n")
        main(argv)
        assert read_rows(out)[0].seed == 12345
        config.write_text("[scenario]\nmaster_seed = 31\n")
        main(argv)
        assert read_rows(out)[0].seed == 31
        main([*argv, "--seed", "7"])
        assert read_rows(out)[0].seed == 7

    def test_negative_zero_grid_values_write_as_zero(self, tmp_path):
        # -0.0 equals 0.0 in every answer, so it must neither print as -0
        # in the CSV nor give the manifest another config hash
        from fblopt.cli import main

        outputs = {}
        for sign in ("-0", "0"):
            out = tmp_path / f"zero{sign}.csv"
            main(["--omega", sign, "--pmax-db", sign, "--trials", "2",
                  "--schemes", "wf_minmax", "--out", str(out)])
            manifest = Path(str(out) + ".manifest.txt").read_text().splitlines()
            outputs[sign] = out.read_text(), manifest[0]
        assert outputs["-0"][0].splitlines()[1].startswith("wf_minmax,0,200,0,")
        assert outputs["-0"] == outputs["0"]
        zero = default_config(omega_grid=(-0.0, 0.5), p_max_grid=(-0.0, 6))
        assert [math.copysign(1.0, x) for x in zero.omega_grid + zero.p_max_grid] == [1.0] * 4
        assert type(zero.p_max_grid[1]) is int and zero == default_config(
            omega_grid=(0.0, 0.5), p_max_grid=(0.0, 6)
        )

    def test_bad_values_rejected(self, tmp_path, monkeypatch):
        from fblopt.cli import main

        def never(config):
            raise AssertionError("run_scenario reached")

        monkeypatch.setattr("fblopt.cli.run_scenario", never)
        config = tmp_path / "s.ini"
        config.write_text("[scenario]\np_max_grid = nan\n")
        with pytest.raises(ValueError):
            main(["--config", str(config), "--out", str(tmp_path / "x.csv")])
        with pytest.raises(ValueError):
            main(["--jobs", "0", "--out", str(tmp_path / "x.csv")])
        three = tmp_path / "three.ini"
        three.write_text("[users]\ncount = 3\neps_max = 1e-5 5e-5 1e-4\n")
        faint, fainter = tmp_path / "faint.ini", tmp_path / "fainter.ini"
        faint.write_text("[users]\nkappa = 1e-60\n")
        fainter.write_text("[users]\nkappa = 1e-100\n")
        for argv in [
            ["--omega", "1.5", "--schemes", "wf_minmax", "--trials", "3"],
            ["--lgrid", "1"],
            ["--seed", "-1"],
            ["--trials", "0"],
            ["--oracle", "30", "30"],  # four default users
            ["--config", str(three), "--oracle", "0", "30"],
            ["--config", str(three), "--oracle", "30", "0"],
            ["--pmax-db", "inf", "--schemes", "wf_minmax", "--trials", "2"],
            ["--pmax-db", "4000"],
            ["--lgrid", str(2**64)],  # beyond an int64: log(L) would raise TypeError
            ["--lgrid", "1" * 400],  # beyond a float
            # the budget range, with gains the file alone allows
            ["--config", str(faint), "--pmax-db", "1550"],
            ["--config", str(fainter), "--pmax-db", "-3000"],
            ["--trials", "2", "--omega", "0.9", "0.9", "--schemes", "wf_minmax"],
            ["--trials", "2", "--schemes", "wf_minmax", "wf_minmax"],
        ]:
            with pytest.raises(ValueError):
                main([*argv, "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize("scenario", sorted((ROOT / "scenarios").glob("*.ini")), ids=lambda p: p.stem)
    def test_scenario_files_run(self, tmp_path, scenario):
        from fblopt.cli import main

        out = tmp_path / "s.csv"
        argv = ["--config", str(scenario), "--trials", "1", "--schemes", "wf_minmax", "--out", str(out)]
        assert main(argv) == 0
        assert len(read_rows(out)) >= 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_benchmark_timer_records_each_evaluation(self, tmp_path, jobs):
        # the benchmark times evaluations by wrapping scheme_dispatch from its
        # own hooks.py; a run that raises or records nothing prints no result
        import importlib.util

        from fblopt.cli import main

        spec = importlib.util.spec_from_file_location("bench_hooks", ROOT / "benchmarks" / "hooks.py")
        hooks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(hooks)
        out = tmp_path / "timed.csv"
        argv = [
            "--omega", "0.5", "0.9", "--lgrid", "100", "--pmax-db", "0", "6",
            "--schemes", "proposed", "wf_minmax", "--trials", "3", "--seed", "3",
            "--jobs", str(jobs), "--out", str(out),
        ]
        with hooks.EvalTimer(tmp_path / "evals.bin", "proposed") as timer:
            assert main(argv) == 0
            records = timer.records()
        assert len(records) == 2 * 1 * 2 * 3  # omega x L x p_max cells, times trials
        assert all(seconds > 0.0 for _, seconds in records)
        assert scheme_dispatch.__module__ == "fblopt.harness"
        assert fblopt.harness.scheme_dispatch is scheme_dispatch  # restored on exit

    def test_benchmark_trace_is_complete_strict_json(self, tmp_path, monkeypatch):
        # the benchmark's traced run drops every metric whose hook target is
        # gone or whose result it can no longer read, and json.dumps writes a
        # non-finite value as NaN; either leaves run.py a last line it cannot
        # read as a result
        import dataclasses
        import importlib.util

        monkeypatch.setattr(sys, "path", list(sys.path))  # measure.py prepends its folder
        spec = importlib.util.spec_from_file_location("bench_measure", ROOT / "benchmarks" / "measure.py")
        measure = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(measure)
            wl = dataclasses.replace(measure.WORKLOADS["default_cell"], trace_trials=5)
            result = measure.trace(wl, 9, tmp_path)
        finally:
            for name in ("hooks", "workloads"):  # imported by measure.py from its folder
                sys.modules.pop(name, None)
        assert result["absent"] == [] and not result["aborted"]
        assert set(result["metrics"]) == set(measure.PER_LAYER)
        assert all(math.isfinite(v) for v in result["metrics"].values())
        json.dumps(result, allow_nan=False)


GOLDEN_CSV = """\
scheme,omega,L,p_max,mean_sum_rate,mean_max_eps,mean_throughput,std_throughput,n_trials,seed
equalpower_opteps,0.9,200,6,1.4399605,5.38895138e-05,1.44348768,0.685546012,25,20240
proposed,0.9,200,6,2.03861763,4.31099796e-05,2.03853956,0.613684892,25,20240
proposedpower_minmax,0.9,200,6,2.00252903,1e-05,2.002509,0.614013378,25,20240
wf_minmax,0.9,200,6,1.90823039,1e-05,1.91020933,0.599137759,25,20240
"""


GOLDEN_MANY_USERS_CSV = """\
scheme,omega,L,p_max,mean_sum_rate,mean_max_eps,mean_throughput,std_throughput,n_trials,seed
proposed,0.9,100,0,1.37459994,6.46391568e-05,1.37452081,0.0264106229,2,20240
proposed,0.9,100,12,8.03241516,4.54208969e-05,8.03209653,0.239361291,2,20240
proposed,0.9,1600,0,1.32665809,3.54124592e-05,1.32661138,0.00997052952,2,20240
proposed,0.9,1600,12,9.45424802,1.6810975e-05,9.45409151,0.565871749,2,20240
proposedpower_minmax,0.9,100,0,1.33305665,1e-05,1.33304332,0.0235154319,2,20240
proposedpower_minmax,0.9,100,12,7.8499585,1e-05,7.84988,0.187744363,2,20240
proposedpower_minmax,0.9,1600,0,1.31159019,1e-05,1.31157708,0.00370704406,2,20240
proposedpower_minmax,0.9,1600,12,9.43403896,1e-05,9.43394462,0.566238382,2,20240
"""


GOLDEN_ORACLE_CSV = """\
scheme,omega,L,p_max,mean_sum_rate,mean_max_eps,mean_throughput,std_throughput,n_trials,seed
equalpower_opteps,0,200,6,0.899856501,1e-12,0.945676444,0.526998643,10,20240
equalpower_opteps,0.5,200,6,1.29170097,1.5860962e-06,1.29643017,0.607509288,10,20240
equalpower_opteps,0.9,200,6,1.36024432,1.12058174e-05,1.36291828,0.622276363,10,20240
exhaustive,0,200,6,0.0794747605,1.8478498e-12,0.0794747605,0,10,20240
exhaustive,0.5,200,6,1.78398931,8.29689681e-07,1.78398788,0.478812726,10,20240
exhaustive,0.9,200,6,1.83002673,8.04937516e-06,1.83001246,0.490542409,10,20240
proposed,0,200,6,1.42860201,1e-12,1.4344565,0.433300816,10,20240
proposed,0.5,200,6,1.78553933,8.60908206e-07,1.78553781,0.479537499,10,20240
proposed,0.9,200,6,1.83159643,8.42806274e-06,1.83158114,0.490746518,10,20240
proposedpower_minmax,0,200,6,1.77704841,1e-05,1.77703064,0.484356384,10,20240
proposedpower_minmax,0.5,200,6,1.83485541,1e-05,1.83483706,0.491906478,10,20240
proposedpower_minmax,0.9,200,6,1.83485541,1e-05,1.83483706,0.491906478,10,20240
wf_minmax,0,200,6,1.77704841,1e-05,1.77703064,0.484356384,10,20240
wf_minmax,0.5,200,6,1.77704841,1e-05,1.77703064,0.484356384,10,20240
wf_minmax,0.9,200,6,1.77704841,1e-05,1.77703064,0.484356384,10,20240
"""

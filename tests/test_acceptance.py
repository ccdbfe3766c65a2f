"""Acceptance suite: runs every exit criterion at its stated tolerance and
prints one pass/fail line per criterion (visible with pytest -s).

Random instance sets are seed-pinned so the suite is deterministic.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fblopt.channel import NetworkRealization
from fblopt.error_assignment import (
    SortedQosProfile,
    optimal_errors,
)
from fblopt.harness import default_config, emit_csv, run_scenario
from fblopt.joint import OracleGrid, exhaustive_oracle, solve_joint
from fblopt.kernels import achievable_rate, dispersion_coeff, q_function, q_inverse, rate_term
from fblopt.power import solve_power, sr_infinity
from oracles import grid_search_errors, kkt_residual, power_grid_oracle, subproblem_objective


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def random_error_instances(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        gamma = rng.exponential(1.0, n) + 0.02
        p_max = rng.uniform(0.5, 10.0)
        r = NetworkRealization(
            gamma=gamma,
            p_max=p_max,
            block_length=int(rng.integers(100, 1000)),
        )
        profile = SortedQosProfile.from_caps(np.sort(rng.uniform(1e-5, 1e-2, n)))
        p = rng.dirichlet(np.ones(n)) * p_max * rng.uniform(0.3, 1.0)
        omega = rng.uniform(0.1, 0.99)
        out.append((r, profile, p, omega))
    return out


@pytest.fixture(scope="module")
def theorem_instances():
    instances = random_error_instances(seed=1001, count=200)
    return [
        (r, prof, p, omega, optimal_errors(r, p, prof, omega))
        for (r, prof, p, omega) in instances
    ]


def test_criterion_01_error_assignment_oracle_equivalence(theorem_instances):
    worst = -np.inf
    for r, prof, p, omega, out in theorem_instances:
        obj = subproblem_objective(r, p, prof, omega, out)
        _, grid_obj = grid_search_errors(r, p, prof, omega, points_per_user=10_000)
        worst = max(worst, obj - grid_obj)
    report(1, worst <= 1e-8, f"worst objective excess over 10^4-point grid: {worst:.3e}")


def test_criterion_02_kkt_residuals(theorem_instances):
    worst = max(
        kkt_residual(out, r, p, prof, omega)
        for r, prof, p, omega, out in theorem_instances
    )
    report(2, worst <= 1e-8, f"worst KKT residual: {worst:.3e}")


def test_criterion_03_shannon_limit():
    worst = max(
        abs(achievable_rate(snr, 10**8, 1e-5) - np.log1p(snr))
        for snr in (0.5, 1.0, 3.0, 10.0)
    )
    report(3, worst <= 1e-3, f"worst gap to Shannon rate at L=1e8: {worst:.3e}")


def test_criterion_04_power_solver_vs_grid():
    rng = np.random.default_rng(2002)
    worst_gap = -np.inf
    worst_viol = 0.0
    for _ in range(100):
        gamma = rng.exponential(1.0, 2) + 0.05
        p_max = rng.uniform(1.0, 8.0)
        r = NetworkRealization(
            gamma=gamma,
            p_max=p_max,
            block_length=int(rng.integers(100, 400)),
        )
        eps = rng.uniform(1e-5, 1e-2, 2)
        omega = rng.uniform(0.1, 0.99)
        sr = sr_infinity(gamma, p_max)
        res = solve_power(r, eps, omega)
        s = gamma * res.p
        rates = np.log1p(s) - dispersion_coeff(s, r.block_length) * q_inverse(eps)
        val = omega * (float(np.sum(rates)) / sr)
        _, oracle = power_grid_oracle(r, eps, omega, points=300)
        worst_gap = max(worst_gap, (oracle - val) / max(abs(oracle), 1e-12))
        worst_viol = max(
            worst_viol,
            max(0.0, float(np.sum(res.p)) - p_max) / (1e-6 * p_max),
        )
    ok = worst_gap <= 1e-3 and worst_viol <= 1.0
    report(
        4,
        ok,
        f"worst relative gap to 300x300 grid: {worst_gap:.3e}, "
        f"worst violation / (1e-6*P_max): {worst_viol:.3f}",
    )


def test_criterion_05_joint_solver_vs_exhaustive():
    rng = np.random.default_rng(3003)
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(1, 3))
        gamma = rng.exponential(1.0, n) + 0.05
        p_max = rng.uniform(1.0, 8.0)
        r = NetworkRealization(
            gamma=gamma,
            p_max=p_max,
            block_length=int(rng.integers(100, 400)),
        )
        profile = SortedQosProfile.from_caps(np.sort(rng.uniform(1e-5, 1e-2, n)))
        omega = rng.uniform(0.1, 0.99)
        rep = solve_joint(r, profile, omega)
        oracle = exhaustive_oracle(r, profile, omega, OracleGrid(200, 200)).objective
        worst = max(worst, oracle - rep.objective)
    report(5, worst <= 1e-3, f"worst objective gap to 200-point exhaustive grid: {worst:.3e}")


def test_criterion_06_gradient_check():
    # at solve_power's allocation every transmitting user has the same
    # marginal rate (the budget's price), here taken by central differences
    # of each user's rate_term
    rng = np.random.default_rng(4004)
    spreads = []
    for _ in range(50):
        n = int(rng.integers(1, 5))
        gamma = rng.exponential(1.0, n) + 0.1
        p_max = rng.uniform(1.0, 6.0)
        r = NetworkRealization(
            gamma=gamma,
            p_max=p_max,
            block_length=int(rng.integers(100, 800)),
        )
        eps = rng.uniform(1e-5, 1e-2, n)
        omega = rng.uniform(0.1, 1.0)
        qinv = q_inverse(eps)
        p = solve_power(r, eps, omega).p
        on = p > 0.0
        h = 1e-6 * np.maximum(p[on], 1.0)
        hi = rate_term(gamma[on] * (p[on] + h), r.block_length, qinv[on])
        lo = rate_term(gamma[on] * (p[on] - h), r.block_length, qinv[on])
        fd = (hi - lo) / (2 * h)
        spreads.append(fd.max() - fd.min())
    worst = float(np.max(spreads))  # a NaN spread fails the check
    report(6, worst <= 1e-5, f"worst spread of transmitting users' marginal rates over 50 solves: {worst:.3e}")


@pytest.fixture(scope="module")
def trend_rows():
    base = default_config(n_trials=1000, master_seed=60601, n_jobs=2)
    rows_l = run_scenario(
        replace(base, schemes=("proposed",), l_grid=(100, 200, 400, 800, 1600),
                p_max_grid=(6.0,))
    )
    rows_p = run_scenario(
        replace(base, schemes=("proposed",), l_grid=(100,),
                p_max_grid=(0.0, 2.0, 4.0, 6.0, 8.0))
    )
    rows_s = run_scenario(replace(base, l_grid=(100,), p_max_grid=(6.0,)))
    return rows_l, rows_p, rows_s


@pytest.mark.slow
def test_criterion_08a_throughput_increasing_in_length(trend_rows):
    rows_l, _, _ = trend_rows
    tp = {r.block_length: r.mean_throughput for r in rows_l}
    lengths = [100, 200, 400, 800, 1600]
    incs = [tp[b] - tp[a] for a, b in zip(lengths, lengths[1:])]
    ok = all(i > 0 for i in incs) and incs[-1] < incs[0]
    report(
        "8a",
        ok,
        "throughput " + " -> ".join(f"{tp[l]:.4f}" for l in lengths)
        + f", increments {['%.4f' % i for i in incs]}",
    )


@pytest.mark.slow
def test_criterion_08b_throughput_increasing_in_power(trend_rows):
    _, rows_p, _ = trend_rows
    tp = {r.p_max: r.mean_throughput for r in rows_p}
    grid = [0.0, 2.0, 4.0, 6.0, 8.0]
    diffs = [tp[b] - tp[a] for a, b in zip(grid, grid[1:])]
    ok = all(d > 0 for d in diffs)
    report("8b", ok, "throughput " + " -> ".join(f"{tp[g]:.4f}" for g in grid))


@pytest.mark.slow
def test_criterion_08c_proposed_dominates_baselines(trend_rows):
    _, _, rows_s = trend_rows
    tp = {r.scheme: r.mean_throughput for r in rows_s}
    others = {k: v for k, v in tp.items() if k != "proposed"}
    ok = all(tp["proposed"] >= v for v in others.values())
    report("8c", ok, f"proposed {tp['proposed']:.4f} vs " + str(
        {k: round(v, 4) for k, v in others.items()}
    ))


@pytest.mark.slow
def test_criterion_09_determinism_across_parallelism(tmp_path):
    cfg = default_config()
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    emit_csv(run_scenario(cfg), serial)
    emit_csv(run_scenario(replace(cfg, n_jobs=2)), parallel)
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    ok = digest(serial) == digest(parallel)
    report(9, ok, f"sha256 serial {digest(serial)[:12]} == parallel {digest(parallel)[:12]}")


def test_criterion_10_q_inverse_round_trip():
    eps = np.geomspace(1e-12, 0.499, 10_000)
    rel = np.abs(q_function(q_inverse(eps)) - eps) / eps
    report(10, rel.max() <= 1e-10, f"worst round-trip relative error: {rel.max():.3e}")

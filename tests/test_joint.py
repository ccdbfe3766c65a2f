from dataclasses import fields

import numpy as np
import pytest

import fblopt.joint
import fblopt.kernels
import fblopt.power
from fblopt.channel import NetworkRealization, UserLink, sample_realization
from fblopt.error_assignment import SortedQosProfile, optimal_errors
from fblopt.harness import default_config
from fblopt.joint import (
    OracleGrid,
    SolveReport,
    exhaustive_oracle,
    make_report,
    solve_joint,
    sum_throughput,
    u2,
    weighted_objective,
)
from fblopt.kernels import (
    EPS_FLOOR,
    achievable_rate,
    dispersion_coeff,
    length_offset,
    q_inverse,
    rate_term,
)
from fblopt.power import simplex_grid, sr_infinity, water_filling
from oracles import level_objective

PAPER_CAPS = (1e-5, 5e-5, 1e-4, 5e-4)

# (gamma, caps, p_max, L, omega) where a closed-form candidate beats the
# alternation: a single-user vertex, and zero power
WEAK_CHANNELS = [
    (
        [0.14958033, 0.03645505, 0.10911438], (7.0685e-4, 1.1852e-3, 2.2566e-2),
        0.59932851, 180, 0.9,
    ),
    ([0.13907172], (0.0201025,), 0.32984034, 350, 0.62),
]


def make_instance(gamma, p_max=4.0, L=200, caps=PAPER_CAPS):
    gamma = np.asarray(gamma, dtype=float)
    r = NetworkRealization(gamma=gamma, p_max=p_max, block_length=L)
    return r, SortedQosProfile.from_caps(caps[: gamma.size])


def random_small_instance(rng, n_max=2):
    n = int(rng.integers(1, n_max + 1))
    gamma = rng.exponential(1.0, n) + 0.05
    caps = tuple(np.sort(rng.uniform(1e-5, 1e-2, n)))
    r, prof = make_instance(
        gamma,
        p_max=rng.uniform(1.0, 8.0),
        L=int(rng.integers(100, 400)),
        caps=caps,
    )
    return r, prof, rng.uniform(0.1, 0.99)


def rate_sum(r, p, eps):
    """The rate sum at (p, eps) re-evaluated user by user from the kernels."""
    s = r.gamma * np.asarray(p, dtype=float)
    return sum(
        np.log1p(s[i]) - dispersion_coeff(s[i], r.block_length) * q_inverse(eps[i])
        for i in range(s.size)
    )


class TestObjectives:
    def test_u1_is_one_at_waterfilling_without_dispersion(self):
        r, prof = make_instance([0.6, 1.4, 0.9, 1.1])
        p = water_filling(r.gamma, r.p_max)
        eps = np.full(4, 0.5 - 1e-16)
        assert make_report(r, prof, p, eps, 1.0).u1 == pytest.approx(1.0, abs=1e-12)

    def test_u1_zero_power(self):
        r, prof = make_instance([1.0, 2.0])
        assert make_report(r, prof, np.zeros(2), np.array([1e-4, 1e-4]), 0.9).u1 == 0.0

    def test_u1_independent_reevaluation(self):
        rng = np.random.default_rng(4)
        r, prof = make_instance(rng.exponential(1.0, 2) + 0.1)
        p = rng.uniform(0.1, 2.0, 2)
        eps = rng.uniform(1e-5, 1e-2, 2)
        manual = rate_sum(r, p, eps) / sr_infinity(r.gamma, r.p_max)
        assert make_report(r, prof, p, eps, 0.9).u1 == pytest.approx(manual, rel=1e-12)

    def test_u2_examples(self):
        assert u2(5e-4, 5e-4) == 0.0
        assert u2(1e-12, 5e-4) == pytest.approx(1.0, rel=1e-8)
        assert u2(1e-4, 5e-4) == pytest.approx(0.8, rel=1e-12)


class TestThroughput:
    def test_zero_error_gives_rate_sum(self):
        assert sum_throughput([1.0, 2.0], [0.0, 0.0]) == 3.0

    def test_half_errors(self):
        assert sum_throughput([1.0, 1.0], [0.5, 0.5]) == 1.0

    def test_negative_rate_clamped(self):
        val = sum_throughput([-0.2, 1.0], [1e-4, 1e-4])
        assert val == pytest.approx(0.9999, rel=1e-10)

    def test_report_throughput_matches_kernel(self):
        r, prof = make_instance([0.8, 1.5])
        p = np.array([1.0, 2.0])
        eps = np.array([1e-4, 1e-3])
        rates = [achievable_rate(r.gamma[i] * p[i], r.block_length, eps[i]) for i in range(2)]
        rep = make_report(r, prof, p, eps, 0.9)
        assert rep.sum_rate == pytest.approx(sum(rates), rel=1e-12)
        assert rep.throughput == pytest.approx(
            sum(max(rates[i], 0.0) * (1.0 - eps[i]) for i in range(2)), rel=1e-12
        )


class TestMakeReport:
    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_one_inversion_same_bits(self, n, monkeypatch):
        rng = np.random.default_rng(40 + n)
        real = fblopt.joint.q_inverse
        calls = []
        for module in (fblopt.kernels, fblopt.joint):
            monkeypatch.setattr(module, "q_inverse", lambda e: calls.append(1) or real(e))
        for _ in range(10):
            caps = tuple(np.sort(rng.uniform(1e-6, 1e-2, n)))
            r, prof = make_instance(
                rng.exponential(1.0, n) + 0.05, p_max=rng.uniform(0.5, 10.0),
                L=int(rng.integers(50, 2000)), caps=caps,
            )
            p = rng.dirichlet(np.ones(n)) * r.p_max
            p[rng.random(n) < 0.25] = 0.0
            eps = np.minimum(caps, rng.uniform(0.0, 1e-2, n))
            eps[0] = 0.0  # below EPS_FLOOR
            omega = rng.uniform(0.0, 1.0)
            r.sr_inf  # computed outside the counted window
            calls.clear()
            rep = make_report(r, prof, p, eps, omega, iterations=3, flags=["x"])
            assert len(calls) == 1
            terms = rate_term(r.gamma * p, r.block_length, real(np.maximum(eps, EPS_FLOOR)))
            rates = terms + length_offset(r.block_length)
            total = float(np.sum(terms))
            max_eps = float(np.max(eps))
            assert rep.u1 == total / r.sr_inf and rep.u2 == u2(max_eps, prof.eps_max_overall)
            assert rep.objective == weighted_objective(
                omega, total, r.sr_inf, max_eps, prof.eps_max_overall
            )
            assert rep.sum_rate == float(np.sum(rates))
            assert rep.throughput == sum_throughput(rates, eps)
            assert rep.max_eps == max_eps
            assert np.array_equal(rep.p, p) and np.array_equal(rep.eps, eps)
            assert (rep.iterations, rep.trace, rep.flags) == (3, [], ["x"])

    def test_rates_match_kernel_bitwise(self):
        r, prof = make_instance([0.8, 1.5, 0.3, 2.0])
        p, eps = np.array([1.0, 2.0, 0.0, 1.0]), np.array([1e-4, 1e-3, 5e-5, 0.0])
        expected = achievable_rate(r.gamma * p, r.block_length, np.maximum(eps, EPS_FLOOR))
        rep = make_report(r, prof, p, eps, 0.9)
        assert rep.sum_rate == float(np.sum(expected))
        assert rep.throughput == sum_throughput(expected, eps)


class TestSolveJoint:
    def test_omega_one_uses_caps(self):
        r, prof = make_instance([0.7, 1.2, 0.5, 1.0])
        rep = solve_joint(r, prof, 1.0)
        assert np.array_equal(rep.eps, prof.caps)

    def test_omega_zero_floor_and_waterfilling(self):
        r, prof = make_instance([0.7, 1.2])
        rep = solve_joint(r, prof, 0.0)
        assert np.all(rep.eps == EPS_FLOOR)
        assert np.array_equal(rep.p, water_filling(r.gamma, r.p_max))

    def test_single_user_matches_oracle(self):
        r, prof = make_instance([1.0], p_max=4.0, L=200, caps=(5e-4,))
        rep = solve_joint(r, prof, 0.9)
        oracle = exhaustive_oracle(r, prof, 0.9, OracleGrid(400, 400))
        assert rep.objective >= oracle.objective - 1e-3

    def test_two_user_matches_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            r, prof, omega = random_small_instance(rng)
            rep = solve_joint(r, prof, omega)
            oracle = exhaustive_oracle(r, prof, omega, OracleGrid(200, 200))
            assert rep.objective >= oracle.objective - 1e-3

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_budget_matches_oracle(self, n):
        # criterion 5's tolerance at budgets below criterion 5's range
        rng = np.random.default_rng(70 + n)
        for _ in range(60):
            caps = tuple(np.sort(rng.uniform(1e-5, 1e-2, n)))
            r, prof = make_instance(
                rng.exponential(1.0, n) + 0.05,
                p_max=10 ** rng.uniform(-1.0, 0.0),
                L=int(rng.integers(100, 3000)),
                caps=caps,
            )
            omega = rng.uniform(0.1, 0.99)
            rep = solve_joint(r, prof, omega)
            oracle = exhaustive_oracle(r, prof, omega, OracleGrid(200, 200))
            assert rep.objective >= oracle.objective - 1e-3

    def test_feasible_and_consistent_report(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            r, prof, omega = random_small_instance(rng)
            rep = solve_joint(r, prof, omega)
            assert np.all(rep.p >= 0)
            assert np.sum(rep.p) <= r.p_max * (1 + 1e-6)
            assert np.all(rep.eps <= prof.caps + 1e-15)
            assert 0.0 <= rep.u2 <= 1.0
            assert rep.objective == pytest.approx(
                omega * rep.u1 + (1 - omega) * rep.u2, rel=1e-12
            )
            assert rep.max_eps == rep.eps.max()
            assert rep.iterations <= 50

    @pytest.mark.parametrize("n", [4, 12])
    def test_generated_starts_never_repeat(self, n, monkeypatch):
        # each power solve builds its supports' starts from (eps, gains,
        # budget) alone: every result lies in the budget and carries the
        # rate sum of its own p, and the only state kept between calls is
        # the memo of the inflection SNR, a pure function of (qinv, L), so a
        # second solve gives the same bits
        real_solve = fblopt.power.solve_power
        results = []

        def solve(realization, eps, omega):
            results.append((realization, eps, real_solve(realization, eps, omega)))
            return results[-1][2]

        monkeypatch.setattr(fblopt.joint, "solve_power", solve)
        rng = np.random.default_rng(3)
        caps = tuple(np.geomspace(1e-5, 5e-4, n))
        for _ in range(3):
            results.clear()
            r, prof = make_instance(rng.exponential(1.0, n), p_max=4.0, caps=caps)
            rep = solve_joint(r, prof, 0.9)
            assert len(results) >= 1
            for realization, eps, power in results:
                assert np.all(power.p >= 0.0)
                assert np.sum(power.p) <= realization.p_max * (1 + 1e-12)
                assert power.rate_sum == float(np.sum(
                    rate_term(realization.gamma * power.p, realization.block_length, q_inverse(eps))
                ))
            count = len(results)
            again = solve_joint(r, prof, 0.9)
            assert len(results) == 2 * count
            assert again.objective == rep.objective
            assert np.array_equal(again.p, rep.p) and np.array_equal(again.eps, rep.eps)

    @staticmethod
    def closed_form_objectives(r, prof, omega):
        n = r.n_users
        corners = [np.zeros(n)] + [np.eye(n)[i] * r.p_max for i in range(n)]
        return [
            make_report(r, prof, p, optimal_errors(r, p, prof, omega), omega).objective
            for p in corners
        ]

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_objective_is_best_alternation_score(self, n, monkeypatch):
        # one alternation runs; the report re-scores its kept iterate from
        # scratch, which must give the same bits as the score the alternation
        # kept it by, unless a closed-form candidate beats it strictly
        real = fblopt.joint._alternate
        runs = []
        monkeypatch.setattr(
            fblopt.joint, "_alternate", lambda *a: runs.append(real(*a)) or runs[-1]
        )
        rng = np.random.default_rng(90 + n)
        caps = tuple(np.geomspace(1e-5, 5e-4, n))
        for _ in range(8):
            r, prof = make_instance(
                rng.exponential(1.0, n), p_max=10 ** rng.uniform(-1.0, 1.0), caps=caps
            )
            omega = rng.uniform(0.1, 1.0)
            runs.clear()
            rep = solve_joint(r, prof, omega)
            corner = max(self.closed_form_objectives(r, prof, omega))
            assert len(runs) == 1 and rep.objective == max(runs[0][0], corner)
            assert ("silent_start" in rep.flags) == (corner > runs[0][0])

    @pytest.mark.parametrize(
        "gamma, caps, p_max, L, omega, p",
        [
            (*WEAK_CHANNELS[0], [0.0, 0.0, 0.59932851]),
            (*WEAK_CHANNELS[1], [0.0]),
        ],
        ids=["vertex", "silent"],
    )
    def test_closed_form_candidate_beats_alternation(
        self, gamma, caps, p_max, L, omega, p, monkeypatch
    ):
        # weak channels: the alternation settles where each block prefers to
        # transmit given the other, below a point with one user or none on
        real = fblopt.joint._alternate
        runs = []
        monkeypatch.setattr(
            fblopt.joint, "_alternate", lambda *a: runs.append(real(*a)) or runs[-1]
        )
        r, prof = make_instance(gamma, p_max=p_max, L=L, caps=caps)
        rep = solve_joint(r, prof, omega)
        assert rep.flags == ["silent_start"] and np.array_equal(rep.p, p)
        expected = optimal_errors(r, rep.p, prof, omega)
        assert np.array_equal(rep.eps, expected)
        assert rep.objective == max(self.closed_form_objectives(r, prof, omega)) > runs[0][0]

    def test_inversions_per_solve(self, monkeypatch):
        # the alternation scores each iterate with the power solve's rate
        # sum; on the joint side the alternation's report inverts eps once,
        # one call inverts the N vertices' own error probabilities, and a
        # closed-form candidate's report, one more, is built only when it wins
        calls = {"joint": 0, "power": 0, "solve_power": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(fblopt.joint, "q_inverse", "joint")
        counted(fblopt.power, "q_inverse", "power")
        counted(fblopt.joint, "solve_power", "solve_power")
        rng = np.random.default_rng(5)
        cases = [
            (*make_instance(rng.exponential(1.0, 4), p_max=rng.uniform(0.5, 10.0)), 0.9)
            for _ in range(4)
        ]
        cases += [(*make_instance(g, p_max=b, L=L, caps=c), w) for g, c, b, L, w in WEAK_CHANNELS]
        wins = 0
        for r, prof, omega in cases:
            calls.update(joint=0, power=0, solve_power=0)
            won = "silent_start" in solve_joint(r, prof, omega).flags
            assert calls["joint"] == 2 + won
            assert calls["power"] == calls["solve_power"] >= 1
            wins += won
        assert wins == len(WEAK_CHANNELS)

    def corner_wins_match_reports(self, cases, monkeypatch, feeble=False):
        # the corners are scored without their reports; the answer must be
        # the same bits as building every corner's report and taking the
        # first that beats the alternation's report strictly. feeble makes
        # the alternation end at zero power with every user at its cap, so
        # the corners decide among themselves. Returns the cases won.
        real = fblopt.joint._alternate

        def alternate(realization, profile, omega, p0):
            run = real(realization, profile, omega, p0)
            if feeble:
                run = (run[0], np.zeros(realization.n_users), profile.caps, *run[3:])
            runs.append(run)
            return run

        runs = []
        monkeypatch.setattr(fblopt.joint, "_alternate", alternate)
        wins = 0
        for r, prof, omega in cases:
            runs.clear()
            rep = solve_joint(r, prof, omega)
            _, p, eps, trace, flags, iterations = runs[0]
            ref = make_report(r, prof, p, eps, omega, iterations=iterations, trace=trace, flags=flags)
            scores = self.closed_form_objectives(r, prof, omega)
            k = int(np.argmax(scores))
            if scores[k] > ref.objective:
                corner = np.zeros(r.n_users) if k == 0 else np.eye(r.n_users)[k - 1] * r.p_max
                corner_eps = optimal_errors(r, corner, prof, omega)
                ref = make_report(r, prof, corner, corner_eps, omega, flags=["silent_start"])
                wins += 1
            for f in fields(SolveReport):
                assert np.array_equal(getattr(rep, f.name), getattr(ref, f.name)), f.name
        return wins

    @pytest.mark.parametrize("feeble", [False, True])
    @pytest.mark.parametrize("n", [1, 4, 12])
    @pytest.mark.parametrize("omega", [0.0, 0.5, 0.9, 1.0])
    def test_corners_match_their_reports(self, n, omega, feeble, monkeypatch):
        # half the draws repeat gains, so vertices can tie
        rng = np.random.default_rng(110 + n)
        caps = tuple(np.geomspace(1e-5, 5e-4, n))
        cases = []
        for draw in range(10):
            gamma = rng.exponential(0.3, n) + 0.01
            if draw % 2:
                gamma = rng.choice(gamma[:2], n)
            r, prof = make_instance(
                gamma, p_max=10 ** rng.uniform(-1.5, 1.0), L=int(rng.integers(50, 2000)), caps=caps
            )
            cases.append((r, prof, omega))
        wins = self.corner_wins_match_reports(cases, monkeypatch, feeble)
        if feeble and omega < 1.0:
            assert wins == len(cases)  # zero power at the floor beats zero power at the caps

    def test_winning_corners_match_their_reports(self, monkeypatch):
        cases = [(*make_instance(g, p_max=b, L=L, caps=c), w) for g, c, b, L, w in WEAK_CHANNELS]
        assert self.corner_wins_match_reports(cases, monkeypatch) == len(cases)

    def test_repeated_level_reuses_the_power_solve(self, monkeypatch):
        # the power problem is solved only when the level z moved: a round at
        # the same z bit for bit (d_eps == 0) reuses the last solve and
        # repeats its row
        real = fblopt.joint.solve_power
        calls = []
        monkeypatch.setattr(
            fblopt.joint, "solve_power", lambda *a: calls.append(1) or real(*a)
        )
        config = default_config()
        prof = SortedQosProfile.from_caps(PAPER_CAPS)
        repeats = 0
        for trial in range(20):
            seed = np.random.SeedSequence([config.master_seed, trial])
            gamma = sample_realization(config.links, config.noise_power, seed, fading=config.fading)
            for omega in (0.0, 0.5, 0.9):
                r = NetworkRealization(gamma, 10 ** 0.6, 200)
                calls.clear()
                _, _, _, trace, _, _ = fblopt.joint._alternate(r, prof, omega, r.p_wf)
                assert len(calls) == sum(d_eps != 0.0 for _, d_eps, _ in trace)
                for prev, row in zip(trace, trace[1:]):
                    if row[1] == 0.0:
                        assert row == (prev[0], 0.0, 0.0)
                        repeats += 1
        assert repeats > 0

    def test_objective_trace_nondecreasing(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            r, prof, omega = random_small_instance(rng)
            rep = solve_joint(r, prof, omega)
            objs = [t[0] for t in rep.trace]
            assert np.all(np.diff(objs) >= -1e-6)

    def test_omega_sweep_monotone(self):
        links = [UserLink(1.0, 1.0, 3.0, c) for c in PAPER_CAPS]
        prof = SortedQosProfile.from_caps(PAPER_CAPS)
        r = NetworkRealization(sample_realization(links, 1.0, seed=21), 10 ** 0.6, 200)
        sweep = [solve_joint(r, prof, w) for w in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        rates = [rep.sum_rate for rep in sweep]
        errs = [rep.max_eps for rep in sweep]
        assert np.all(np.diff(rates) >= -1e-9)
        assert np.all(np.diff(errs) >= -1e-15)



# (trial, L, p_max in dB, omega, z): default-link draws where the
# alternation stops short of a better shared error level z, by up to 9.7e-4
JOINT_SHORTFALLS = [
    (34, 200, 6.0, 0.9, 5e-5),
    (246, 200, 6.0, 0.9, 2.07e-5),
    (30, 100, 12.0, 0.9, 3.58e-5),
    (70, 100, 12.0, 0.5, 3.84e-6),
    (217, 200, 6.0, 0.8, 1.229e-5),
    (208, 1600, 6.0, 0.9, 1e-5),
]


class TestJointShortfall:
    @pytest.mark.parametrize(
        "trial, L, p_max_db, omega, z",
        [
            pytest.param(
                *case,
                marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="the alternation stops short of z"),
            )
            for case in JOINT_SHORTFALLS
        ],
    )
    def test_joint_reaches_level(self, trial, L, p_max_db, omega, z):
        cfg = default_config()
        gamma = sample_realization(cfg.links, cfg.noise_power, np.random.SeedSequence([20240, trial]))
        r = NetworkRealization(gamma, cfg.p_max_linear(p_max_db), L)
        profile = SortedQosProfile.from_caps([link.eps_max for link in cfg.links])
        assert solve_joint(r, profile, omega).objective >= level_objective(r, profile, z, omega) - 1e-12


class TestExhaustiveOracle:
    def test_refinement_consistency_single_user(self):
        r, prof = make_instance([1.0], p_max=4.0, caps=(5e-4,))
        coarse = exhaustive_oracle(r, prof, 0.8, OracleGrid(60, 60)).objective
        fine = exhaustive_oracle(r, prof, 0.8, OracleGrid(240, 240)).objective
        assert fine >= coarse - 1e-12
        assert fine - coarse <= 5e-3

    def test_omega_one_eps_at_caps(self):
        r, prof = make_instance([0.9, 1.1], caps=(1e-4, 5e-4))
        eps = exhaustive_oracle(r, prof, 1.0, OracleGrid(50, 50)).eps
        assert np.array_equal(eps, prof.caps)

    def test_rejects_many_users(self):
        r, prof = make_instance([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            exhaustive_oracle(r, prof, 0.5)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(59)
        for _ in range(4):
            r, prof, omega = random_small_instance(rng)
            if r.n_users != 2:
                continue
            grid = OracleGrid(p_points=12, eps_points=10)
            val = exhaustive_oracle(r, prof, omega, grid).objective
            sr = sr_infinity(r.gamma, r.p_max)
            caps = prof.caps
            eps_grids = [np.geomspace(EPS_FLOOR, c, 11)[1:] for c in caps]
            best = -np.inf
            for p in simplex_grid(2, r.p_max, 12):
                for e0 in eps_grids[0]:
                    for e1 in eps_grids[1]:
                        eps = np.array([e0, e1])
                        cand = weighted_objective(
                            omega, rate_sum(r, p, eps), sr, eps.max(), prof.eps_max_overall
                        )
                        best = max(best, cand)
            assert val == pytest.approx(best, rel=1e-12)

    def test_allocation_matches_reported_value(self):
        r, prof, omega = random_small_instance(np.random.default_rng(61))
        rep = exhaustive_oracle(r, prof, omega, OracleGrid(40, 40))
        sr = sr_infinity(r.gamma, r.p_max)
        recomputed = weighted_objective(
            omega, rate_sum(r, rep.p, rep.eps), sr, rep.eps.max(), prof.eps_max_overall
        )
        assert recomputed == pytest.approx(rep.objective, rel=1e-12)

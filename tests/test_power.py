import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblopt.channel import NetworkRealization, sample_realization
from fblopt.error_assignment import SortedQosProfile, errors_at_level
from fblopt.harness import default_config
from fblopt.kernels import EPS_FLOOR, dispersion_coeff, q_inverse, rate_term
from fblopt.oracle import simplex_grid
import fblopt.power
from fblopt.power import (
    closed_supports,
    equal_power,
    solve_power,
    sr_infinity,
    water_filling,
)
from oracles import power_grid_oracle, power_support_oracle


def make_realization(gamma, p_max=4.0, L=200):
    return NetworkRealization(gamma=np.asarray(gamma, dtype=float), p_max=p_max, block_length=L)


def rate_value(realization, p, eps, omega, sr):
    s = realization.gamma * np.asarray(p)
    a = dispersion_coeff(s, realization.block_length)
    return (omega / sr) * float(np.sum(np.log1p(s) - a * q_inverse(eps)))


class TestWaterFilling:
    def test_single_user_takes_all(self):
        assert np.array_equal(water_filling(np.array([0.7]), 3.0), [3.0])

    def test_equal_gains_split(self):
        assert np.allclose(water_filling(np.array([2.0, 2.0]), 1.0), [0.5, 0.5])

    def test_hand_solved_example(self):
        # water level 1.25
        p = water_filling(np.array([1.0, 2.0]), 1.0)
        assert np.allclose(p, [0.25, 0.75], atol=1e-12)

    def test_weak_user_shut_off(self):
        p = water_filling(np.array([10.0, 0.01]), 0.5)
        assert p[1] == 0.0 and p[0] == 0.5

    @pytest.mark.parametrize(
        "gamma, p_max", [([1.0, 0.0], 1.0), ([1.0, np.nan], 1.0), ([1.0], 0.0), ([1.0], np.nan)]
    )
    def test_rejects_bad_inputs(self, gamma, p_max):
        with pytest.raises(ValueError):
            water_filling(np.array(gamma), p_max)

    @settings(max_examples=60, deadline=None)
    @given(
        gains=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=6),
        p_max=st.floats(0.1, 20.0),
    )
    def test_kkt_property(self, gains, p_max):
        gamma = np.array(gains)
        p = water_filling(gamma, p_max)
        assert np.all(p >= 0.0)
        assert np.sum(p) == pytest.approx(p_max, rel=1e-9)
        active = p > 0
        levels = p[active] + 1.0 / gamma[active]
        assert np.ptp(levels) <= 1e-9 * max(1.0, levels.max())
        if np.any(~active):
            assert np.all(1.0 / gamma[~active] >= levels.max() - 1e-9)


    def test_budget_below_last_bit_of_inverse_gain_kept(self):
        # p_max + 1/gamma rounds back to 1/gamma here
        assert np.array_equal(water_filling(np.array([1.0]), 1e-17), [1e-17])

    def test_tiny_budget_not_overshot(self):
        assert np.sum(water_filling(np.array([1.0]), 1e-15)) <= 1e-15

    def test_same_bits_as_the_array_formula(self):
        # water_filling runs on Python floats; the reference is the same
        # steps on arrays: a stable argsort of 1/gamma and a cumulative sum
        def on_arrays(gamma, p_max):
            inv = 1.0 / gamma
            order = np.argsort(inv, kind="stable")
            gap = inv[order] - inv[order[0]]
            csum = np.cumsum(gap)
            for m in range(gamma.size, 0, -1):
                if p_max / m + (csum[m - 1] / m - gap[m - 1]) > 0.0:
                    break
            p = np.zeros_like(inv)
            p[order[:m]] = p_max / m + (csum[m - 1] / m - gap[:m])
            return p

        rng = np.random.default_rng(32)
        for i in range(2000):
            n = int(rng.integers(1, 21))
            if i % 3 == 0:  # ties
                gamma = rng.choice([1e-3, 0.5, 1.0, 2.0], n)
            else:
                gamma = 10.0 ** rng.uniform(-50.0, 50.0, n) * rng.exponential(1.0, n)
            p_max = 10.0 ** rng.uniform(-100.0, 100.0 if i % 2 else 3.0)
            assert water_filling(gamma, p_max).tobytes() == on_arrays(gamma, p_max).tobytes()

    def test_budget_held_at_every_scale(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            gamma = rng.exponential(1.0, n) + 0.05
            p_max = 10 ** rng.uniform(-300.0, 3.0)
            p = water_filling(gamma, p_max)
            assert np.all(p >= 0.0) and np.count_nonzero(p) >= 1
            assert abs(np.sum(p) - p_max) <= 1e-14 * p_max


class TestSrInfinity:
    def test_single_user(self):
        assert sr_infinity(np.array([1.0]), 3.0) == pytest.approx(np.log(4.0), rel=1e-12)

    def test_two_user_example(self):
        assert sr_infinity(np.array([1.0, 2.0]), 1.0) == pytest.approx(
            1.1394342831883648, rel=1e-12
        )

    def test_upper_bounds_objective(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            gamma = rng.exponential(1.0, n) + 0.05
            p_max = rng.uniform(0.5, 10.0)
            sr = sr_infinity(gamma, p_max)
            r = make_realization(gamma, p_max)
            p = rng.dirichlet(np.ones(n)) * p_max
            eps = rng.uniform(1e-6, 0.4, n)
            raw = rate_value(r, p, eps, 1.0, 1.0)
            assert sr >= raw - 1e-12


class TestStartReuse:
    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_rate_sum_is_rate_term_sum(self, n):
        # the joint solver scores each iterate with the returned rate_sum, so
        # it must be the plain rate_term sum at the result's p and the eps of
        # the call, for a support row and for the closed-form candidates alike
        def expected(r, p, eps):
            qinv = q_inverse(np.maximum(eps, EPS_FLOOR))
            return float(np.sum(rate_term(r.gamma * p, r.block_length, qinv)))

        rng = np.random.default_rng(60 + n)
        for _ in range(6):
            r = make_realization(
                rng.exponential(1.0, n) + 0.05, 10 ** rng.uniform(-1.0, 1.2), int(rng.integers(100, 2000))
            )
            eps, omega = rng.uniform(1e-6, 1e-2, n), rng.uniform(0.1, 1.0)
            res = solve_power(r, eps, omega)
            assert res.rate_sum == expected(r, res.p, eps)
            eps2 = np.where(np.arange(n) == 0, eps, 2 * eps)
            res2 = solve_power(r, eps2, omega)
            assert res2.rate_sum == expected(r, res2.p, eps2)


class TestSolvePower:
    def test_feasible_at_convergence(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            gamma = rng.exponential(1.0, n) + 0.05
            r = make_realization(gamma, p_max=rng.uniform(0.5, 8.0))
            eps = rng.uniform(1e-5, 1e-2, n)
            res = solve_power(r, eps, rng.uniform(0.1, 1.0))
            assert res.converged
            assert np.all(res.p >= 0.0)
            assert np.sum(res.p) <= r.p_max * (1 + 1e-6)

    def test_grid_oracle_dominance(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            gamma = rng.exponential(1.0, 2) + 0.05
            r = make_realization(gamma, p_max=rng.uniform(1.0, 8.0), L=int(rng.integers(100, 400)))
            eps = rng.uniform(1e-5, 1e-2, 2)
            omega = rng.uniform(0.1, 0.99)
            sr = sr_infinity(gamma, r.p_max)
            res = solve_power(r, eps, omega)
            val = rate_value(r, res.p, eps, omega, sr)
            _, oracle = power_grid_oracle(r, eps, omega, points=300)
            assert val >= oracle - 1e-3 * max(abs(oracle), 1e-12)

    def test_small_budget_single_user_takes_budget(self):
        # the run from the vertex overshoots and is projected onto zero,
        # where the dispersion kink pins it; the budget itself scores 0.602
        r = make_realization([1.0], p_max=0.2, L=800)
        res = solve_power(r, np.array([1e-3]), 0.9)
        assert np.array_equal(res.p, [0.2])
        assert rate_value(r, res.p, [1e-3], 0.9, r.sr_inf) == pytest.approx(0.602, abs=1e-3)

    def test_small_budget_stronger_user_takes_budget(self):
        r = make_realization([0.16336597, 0.92303755], p_max=0.14444073, L=3000)
        eps = np.array([0.02264375, 0.0250844])
        res = solve_power(r, eps, 0.9)
        assert np.array_equal(res.p, [0.0, r.p_max])
        _, oracle = power_grid_oracle(r, eps, 0.9, points=300)
        assert oracle == pytest.approx(0.779, abs=1e-3)
        assert rate_value(r, res.p, eps, 0.9, r.sr_inf) >= oracle - 1e-12

    def test_small_budget_single_user_grid_oracle(self):
        # criterion 4's tolerance at budgets below criterion 4's range
        rng = np.random.default_rng(31)
        for _ in range(100):
            gamma = rng.exponential(1.0, 1) + 0.05
            r = make_realization(gamma, p_max=10 ** rng.uniform(-1.0, 0.0), L=int(rng.integers(100, 3000)))
            eps = rng.uniform(1e-5, 1e-2, 1)
            omega = rng.uniform(0.1, 0.99)
            res = solve_power(r, eps, omega)
            val = rate_value(r, res.p, eps, omega, sr_infinity(gamma, r.p_max))
            _, oracle = power_grid_oracle(r, eps, omega, points=300)
            assert val >= oracle - 1e-3 * max(abs(oracle), 1e-12)

    def test_small_budget_warm_run_keeps_both_users(self):
        # stage 0 ends over the budget at about [0.585, 0.622]; the gradient
        # step of stage 1 used to land on exactly zero, where every user is
        # pinned, and the best vertex scored 0.6079
        r = make_realization([2.90664647, 3.22959921], p_max=0.29134788, L=1269)
        eps, omega = np.array([0.00574719, 0.00998795]), 0.74084945
        res = solve_power(r, eps, omega)
        _, oracle = power_grid_oracle(r, eps, omega, points=300)
        assert oracle == pytest.approx(0.64286, abs=1e-5)
        assert np.count_nonzero(res.p) == 2
        assert rate_value(r, res.p, eps, omega, r.sr_inf) >= oracle - 1e-3 * abs(oracle)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_small_budget_two_user_grid_oracle(self, seed):
        # test_small_budget_single_user_grid_oracle with two users: the warm
        # run must not collapse onto zero power at budgets below 1
        rng = np.random.default_rng(seed)
        for _ in range(100):
            gamma = rng.exponential(1.0, 2) + 0.05
            r = make_realization(gamma, p_max=10 ** rng.uniform(-1.0, 0.0), L=int(rng.integers(100, 3000)))
            eps = rng.uniform(1e-5, 1e-2, 2)
            omega = rng.uniform(0.1, 0.99)
            res = solve_power(r, eps, omega)
            val = rate_value(r, res.p, eps, omega, sr_infinity(gamma, r.p_max))
            _, oracle = power_grid_oracle(r, eps, omega, points=300)
            assert val >= oracle - 1e-3 * max(abs(oracle), 1e-12)

    def test_over_budget_run_never_returned(self, one_newton_step):
        # after one step a row can sit off the budget; every row is rescaled
        # onto it before it is scored, and the winner's score, returned as
        # its rate_sum, is the rate terms' sum at the returned p
        rng = np.random.default_rng(23)
        for n in (2, 4, 12):
            for _ in range(5):
                r = make_realization(rng.exponential(1.0, n) + 0.05, 10 ** rng.uniform(-1.0, 1.2))
                eps = rng.uniform(1e-6, 1e-2, n)
                res = solve_power(r, eps, 0.8)
                assert np.all(res.p >= 0.0) and np.sum(res.p) <= r.p_max * (1 + 1e-12)
                assert res.rate_sum == rate_value(r, res.p, eps, 1.0, 1.0)

    def test_omega_zero_returns_start(self):
        # every p is optimal at omega == 0, so water-filling is the answer
        r = make_realization([0.5, 2.0], p_max=3.0)
        eps = np.array([1e-4, 1e-4])
        res = solve_power(r, eps, 0.0)
        assert res.p is r.p_wf and res.converged
        assert res.rate_sum == rate_value(r, r.p_wf, eps, 1.0, 1.0)
        with pytest.raises(ValueError, match="omega"):
            solve_power(r, eps, -0.1)

    def test_rejects_bad_eps(self):
        r = make_realization([1.0], p_max=1.0)
        with pytest.raises(ValueError):
            solve_power(r, np.array([0.6]), 0.5)
        with pytest.raises(ValueError):
            solve_power(r, np.array([0.0]), 0.5)
        with pytest.raises(ValueError):
            solve_power(r, np.array([np.nan]), 0.5)


def assert_closed_form_winner(r, eps, omega, expected_p):
    """solve_power returns exactly expected_p (zero power or a vertex), bit
    for bit, as its read-only row of r.corners, converged, with rate_sum
    the plain rate_term sum there, bit for bit."""
    res = solve_power(r, eps, omega)
    assert res.p.tobytes() == expected_p.tobytes()
    assert res.p.base is r.corners and not res.p.flags.writeable
    assert res.converged
    assert res.rate_sum == float(np.sum(rate_term(r.gamma * res.p, r.block_length, q_inverse(eps))))


class TestClosedFormWinners:
    @pytest.mark.parametrize("n", [1, 2, 4, 12])
    def test_zero_power_wins_when_every_term_is_negative(self, n):
        rng = np.random.default_rng(80 + n)
        r = make_realization(rng.uniform(0.5, 2.0, n), p_max=1e-3, L=100)
        eps = rng.uniform(1e-6, 1e-4, n)
        # every term is convex and negative up to the budget, so every
        # allocation scores below zero power's 0.0
        assert np.all(rate_term(r.gamma * r.p_max, r.block_length, q_inverse(eps)) < 0.0)
        assert_closed_form_winner(r, eps, 0.9, np.zeros(n))

    @pytest.mark.parametrize(
        "gamma, p_max, L, eps, winner",
        [
            ([1.0], 0.2, 800, [1e-3], 0),
            ([0.16336597, 0.92303755], 0.14444073, 3000, [0.02264375, 0.0250844], 1),
            # one two-user row fits the budget and is solved, and loses
            ([1.94, 2.99, 2.86], 0.263, 200, [1e-3] * 3, 1),
            ([100.0] + [0.01] * 11, 0.5, 200, [1e-4] * 12, 0),
        ],
    )
    def test_vertex_wins(self, gamma, p_max, L, eps, winner):
        r = make_realization(gamma, p_max=p_max, L=L)
        assert_closed_form_winner(r, np.array(eps), 0.9, np.eye(len(gamma))[winner] * p_max)


class TestGridHelpers:
    def test_equal_power(self):
        assert np.allclose(equal_power(4, 4.0), [1.0, 1.0, 1.0, 1.0])

    def test_simplex_grid_feasible(self):
        pts = simplex_grid(2, 3.0, 50)
        assert np.all(pts >= 0)
        assert np.all(pts.sum(axis=1) <= 3.0 * (1 + 1e-9))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_simplex_grid_matches_cube(self, n):
        # the grid is built without the cube; it keeps the cube's in-budget
        # points, in the cube's (lexicographic) order, bit for bit
        for points in [0, 1, 2, 3, 7, 40, 97 if n < 3 else 64]:
            for p_max in [1e-3, 0.3, 10**0.6, 7.0, 1e3]:
                axis = np.linspace(0.0, p_max, points)
                mesh = np.meshgrid(*([axis] * n), indexing="ij")
                cube = np.stack([m.ravel() for m in mesh], axis=1)
                cube = cube[cube.sum(axis=1) <= p_max * (1.0 + 1e-12)]
                pts = simplex_grid(n, p_max, points)
                assert pts.shape == cube.shape and np.array_equal(pts, cube)

    def test_simplex_grid_guard(self):
        with pytest.raises(ValueError):
            simplex_grid(4, 1.0, 10)


def default_trial_minmax(trial):
    """The default cell's realization of a trial, drawn as the harness
    draws it, and the minmax eps (every user at the strictest cap)."""
    cfg = default_config()
    gamma = sample_realization(cfg.links, cfg.noise_power, np.random.SeedSequence([20240, trial]))
    profile = SortedQosProfile.from_caps([link.eps_max for link in cfg.links])
    r = NetworkRealization(gamma, cfg.p_max_linear(6.0), 200)
    return r, errors_at_level(profile, profile.eps_max_sorted[0])


def seeded_minmax_instances(n, count=6):
    """Unit-mean Rayleigh gains for n users at 6 dB and L = 200, with every
    user at the default strictest cap, from a seed fixed per n."""
    rng = np.random.default_rng([2017, n])
    return [
        (make_realization(rng.exponential(1.0, n), p_max=10**0.6), np.full(n, 1e-5))
        for _ in range(count)
    ]


def random_instances(kind, count):
    """Seeded N = 3..6 draws with gains, budget and L spread wide, at eps of
    the solvers' level form (errors_at_level of random caps and level z) or
    at arbitrary per-user eps."""
    rng = np.random.default_rng([2018, kind == "level"])
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 7))
        r = make_realization(
            rng.exponential(1.0, n) + 0.05, 10 ** rng.uniform(-1.0, 1.5), int(rng.integers(50, 3000))
        )
        if kind == "level":
            profile = SortedQosProfile.from_caps(np.sort(rng.uniform(1e-6, 1e-2, n)))
            eps = errors_at_level(profile, 10 ** rng.uniform(-6.0, -2.0))
        else:
            eps = 10 ** rng.uniform(-9.0, -1.0, n)
        out.append((r, eps))
    return out


def many_users_level_draws(count):
    """N = 12 unit-mean Rayleigh gains with the many-users caps
    geomspace(1e-5, 5e-4, 12), at a level z drawn between the caps."""
    rng = np.random.default_rng(2019)
    profile = SortedQosProfile.from_caps(np.geomspace(1e-5, 5e-4, 12))
    return [
        (
            make_realization(rng.exponential(1.0, 12), 10 ** rng.choice([0.0, 1.2]), int(rng.choice([100, 1600]))),
            errors_at_level(profile, 10 ** rng.uniform(-5.0, np.log10(5e-4))),
        )
        for _ in range(count)
    ]


def brute_force_closed(gamma, qinv):
    """Every nonempty mask of the 2^N closed under dominance, tested one by
    one: no user in the set has a dominator outside it."""
    n = gamma.size
    idx = np.arange(n)
    dominates = (gamma[:, None] >= gamma) & (qinv[:, None] <= qinv) & (
        (gamma[:, None] > gamma) | (qinv[:, None] < qinv) | (idx[:, None] < idx)
    )
    masks = (np.arange(1, 2**n)[:, None] >> idx) & 1 == 1
    # outside[m, i, j]: i dominates j, j is in mask m and i is not
    outside = dominates[None] & masks[:, None, :] & ~masks[:, :, None]
    return masks[~outside.any(axis=(1, 2))]


class TestSupportOracle:
    def test_never_below_grid_oracle_or_solver(self):
        rng = np.random.default_rng(71)
        for _ in range(12):
            n = int(rng.integers(2, 4))
            gamma = rng.exponential(1.0, n) + 0.05
            r = make_realization(gamma, p_max=rng.uniform(0.3, 8.0), L=int(rng.integers(100, 1000)))
            eps = rng.uniform(1e-5, 1e-2, n)
            p, value = power_support_oracle(r, eps)
            assert np.all(p >= 0.0) and np.sum(p) <= r.p_max * (1 + 1e-12)
            rates = rate_term(r.gamma * p, r.block_length, q_inverse(eps))
            assert value == pytest.approx(float(np.sum(rates)))
            # a 300-point grid at N = 3 holds 4.5 million points
            _, grid = power_grid_oracle(r, eps, 1.0, points=300 if n == 2 else 120)
            assert value >= grid * r.sr_inf - 1e-12 * abs(value)
            assert abs(value - solve_power(r, eps, 0.9).rate_sum) <= 1e-9 * abs(value)

    def test_default_trial_0_optimum_has_two_users(self):
        r, eps = default_trial_minmax(0)
        p, value = power_support_oracle(r, eps)
        assert value == pytest.approx(2.2953, abs=1e-4)
        assert np.count_nonzero(p) == 2

    def test_solve_power_default_trial_0(self):
        # the augmented-Lagrangian run kept three users on and reached 2.2094
        r, eps = default_trial_minmax(0)
        _, value = power_support_oracle(r, eps)
        assert solve_power(r, eps, 0.9).rate_sum >= value * (1 - 1e-4)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_solve_power_matches_support_oracle(self, n):
        short = []
        for i, (r, eps) in enumerate(seeded_minmax_instances(n)):
            _, value = power_support_oracle(r, eps)
            gap = (value - solve_power(r, eps, 0.9).rate_sum) / abs(value)
            if gap > 1e-4:
                short.append((i, gap))
        assert short == []

    @pytest.mark.parametrize("kind", ["level", "arbitrary"])
    def test_solve_power_equals_support_oracle(self, kind):
        off = []
        for i, (r, eps) in enumerate(random_instances(kind, 8)):
            res = solve_power(r, eps, 0.9)
            _, value = power_support_oracle(r, eps)
            if abs(value - res.rate_sum) > 1e-9 * abs(value) or not res.converged:
                off.append((i, value, res.rate_sum, res.converged))
        assert off == []


class TestSupports:
    def test_equal_eps_gives_nested_top_k(self):
        rng = np.random.default_rng(81)
        for n in (1, 2, 4, 12):
            gamma = rng.choice(rng.exponential(1.0, n), n)  # ties go to the lower index
            order = np.lexsort((np.arange(n), -gamma))
            expected = np.array([np.isin(np.arange(n), order[:k]) for k in range(1, n + 1)])
            assert np.array_equal(closed_supports(gamma, np.full(n, 3.7)), expected)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_matches_brute_force_closure(self, n):
        # the same sets, in any order, as testing all 2^N masks; qinv draws
        # from few values, so ties in eps occur
        rng = np.random.default_rng(90 + n)
        for _ in range(10):
            gamma = rng.choice(rng.exponential(1.0, n), n)
            qinv = rng.choice([3.0, 3.5, 4.0, 4.5], n)
            got = closed_supports(gamma, qinv)
            expected = brute_force_closed(gamma, qinv)
            assert got.shape == expected.shape
            assert {tuple(row) for row in got} == {tuple(row) for row in expected}

    def test_many_users_row_count(self):
        # rows solved at N = 12 at a level z: far fewer than the 2^12 - 1
        # nonempty masks (median 51, 90th percentile 121, max 403 over 2,000
        # draws of many_users_level_draws)
        counts = []
        for r, eps in many_users_level_draws(40):
            qinv = q_inverse(eps)
            rows = closed_supports(r.gamma, qinv)
            assert len(rows) == len(brute_force_closed(r.gamma, qinv))
            counts.append(len(rows))
        assert 12 <= np.median(counts) <= 256 and max(counts) < 2**12 - 1


class TestNewtonSolve:
    @pytest.mark.parametrize("n", [4, 12])
    def test_fixed_step_count_is_converged(self, n, monkeypatch):
        draws = seeded_minmax_instances(4) if n == 4 else many_users_level_draws(8)
        fixed = [solve_power(r, eps, 0.9) for r, eps in draws]
        monkeypatch.setattr(fblopt.power, "NEWTON_STEPS", 40)
        for (r, eps), res in zip(draws, fixed):
            assert res.converged
            assert abs(solve_power(r, eps, 0.9).rate_sum - res.rate_sum) <= 1e-12 * abs(res.rate_sum)

    def test_one_step_is_not_converged(self, monkeypatch):
        # default trial 0's optimum has two users, off every vertex: one
        # Newton step from the start moves p by far more than POWER_TOL
        r, eps = default_trial_minmax(0)
        assert solve_power(r, eps, 0.9).converged
        monkeypatch.setattr(fblopt.power, "NEWTON_STEPS", 1)
        res = solve_power(r, eps, 0.9)
        assert np.count_nonzero(res.p) == 2 and not res.converged

    def test_extreme_inputs_raise_no_warning(self):
        # RuntimeWarnings are errors under pytest; users off a support sit at
        # a finite point on their concave branch, so none arises at budgets,
        # gains, lengths and eps at the ends of their ranges
        rng = np.random.default_rng(97)
        for p_max in (1e-12, 1e-3, 1.0, 1e3, 1e6):
            for L in (2, 200, 100_000):
                for eps in (EPS_FLOOR, 1e-5, 0.4999):
                    n = int(rng.integers(1, 8))
                    r = make_realization(10 ** rng.uniform(-3.0, 3.0, n), p_max, L)
                    res = solve_power(r, np.full(n, eps) * rng.uniform(0.5, 1.0, n), 0.9)
                    assert np.all(res.p >= 0.0) and np.sum(res.p) <= p_max * (1 + 1e-12)
                    assert np.isfinite(res.rate_sum)

    def test_inflection_memo_same_bits_and_bounded(self):
        # the inflection SNR is memoized on (qinv, L), a pure function of
        # two floats: a hit returns the computed bits, and the memo is
        # capped, so a long run does not grow it
        memo = fblopt.power._inflection_snr
        for qinv in q_inverse(np.geomspace(EPS_FLOOR, 0.49, 25)).tolist():
            for L in (2, 100, 200, 1600, 100_000):
                computed = memo.__wrapped__(qinv, L)
                assert memo(qinv, L) == computed and memo(qinv, L) == computed
        size = memo.cache_info().maxsize
        assert size is not None and size <= 1024
        for qinv in np.linspace(1.0, 7.0, 2 * size).tolist():
            memo(qinv, 200)
        assert memo.cache_info().currsize == size

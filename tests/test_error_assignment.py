import numpy as np
import pytest

import fblopt.channel
from fblopt.channel import NetworkRealization
from fblopt.error_assignment import (
    EDGE_TOL,
    SortedQosProfile,
    beta_k,
    corner_levels,
    errors_at_level,
    optimal_errors,
)
from fblopt.harness import scheme_dispatch
from fblopt.kernels import EPS_FLOOR, dispersion_coeff, q_inverse
from fblopt.power import sr_infinity, water_filling
from oracles import grid_search_errors, kkt_residual, subproblem_objective

PAPER_CAPS = (1e-5, 5e-5, 1e-4, 5e-4)


def make_instance(gamma, p_max=4.0, L=200, caps=PAPER_CAPS):
    r = NetworkRealization(
        gamma=np.asarray(gamma, dtype=float),
        p_max=p_max,
        block_length=L,
    )
    return r, SortedQosProfile.from_caps(caps[: len(gamma)])


def random_instance(rng, n=None):
    n = n or int(rng.integers(1, 5))
    gamma = rng.exponential(1.0, n) + 0.02
    p_max = rng.uniform(0.5, 10.0)
    L = int(rng.integers(100, 1000))
    caps = np.sort(rng.uniform(1e-5, 1e-2, n))
    r = NetworkRealization(gamma=gamma, p_max=p_max, block_length=L)
    profile = SortedQosProfile.from_caps(caps)
    p = rng.dirichlet(np.ones(n)) * p_max * rng.uniform(0.3, 1.0)
    omega = rng.uniform(0.1, 0.99)
    sr = sr_infinity(gamma, p_max)
    return r, profile, p, omega, sr


def many_users_instance(rng):
    """Twelve users with caps geomspace(1e-5, 5e-4, 12), the regime where
    the branch scan's tail sums run longest."""
    gamma = rng.exponential(1.0, 12) + 0.02
    p_max = 10.0 ** (rng.choice([0.0, 12.0]) / 10.0)
    r = NetworkRealization(
        gamma=gamma, p_max=p_max, block_length=int(rng.choice([100, 1600]))
    )
    profile = SortedQosProfile.from_caps(rng.permutation(np.geomspace(1e-5, 5e-4, 12)))
    p = rng.dirichlet(np.ones(12)) * p_max
    return r, profile, p, rng.uniform(0.1, 0.99), sr_infinity(gamma, p_max)


def naive_grid_min(realization, p, profile, omega, sr_inf, points):
    """Direct enumeration of the full product grid (small cases only)."""
    caps = profile.caps
    grids = [np.geomspace(EPS_FLOOR, c, points + 1)[1:] for c in caps]
    mesh = np.meshgrid(*grids, indexing="ij")
    eps_all = np.stack([m.ravel() for m in mesh], axis=1)
    a = dispersion_coeff(realization.gamma * p, realization.block_length)
    cost = (omega / sr_inf) * (q_inverse(eps_all) @ a) + (
        1.0 - omega
    ) / profile.eps_max_overall * eps_all.max(axis=1)
    best = int(np.argmin(cost))
    return eps_all[best], float(cost[best])


class TestSortedQosProfile:
    def test_sorting_and_permutation(self):
        prof = SortedQosProfile.from_caps([5e-4, 1e-5, 1e-4])
        assert prof.eps_max_sorted == (1e-5, 1e-4, 5e-4)
        assert prof.order == (1, 2, 0)
        assert np.array_equal(prof.caps, [5e-4, 1e-5, 1e-4])
        # built once and shared by every errors_at_level call, so read-only
        assert prof.caps is prof.caps and not prof.caps.flags.writeable

    def test_duplicate_caps_stable(self):
        prof = SortedQosProfile.from_caps([1e-4, 1e-4, 1e-5])
        assert prof.order == (2, 0, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SortedQosProfile.from_caps([0.5])
        with pytest.raises(ValueError):
            SortedQosProfile.from_caps([0.0, 1e-4])
        with pytest.raises(ValueError):
            SortedQosProfile.from_caps([np.nan])
        # below the floor no error probability is solved for: such a cap
        # would be reported while the rate is computed at Qinv(EPS_FLOOR)
        with pytest.raises(ValueError):
            SortedQosProfile.from_caps([1e-13, 5e-5, 1e-4, 5e-4])
        assert SortedQosProfile.from_caps([EPS_FLOOR]).eps_max_sorted == (EPS_FLOOR,)


class TestBetaK:
    def test_log_argument_one_gives_half(self):
        # set the realization's normalizer so the logarithm's argument is
        # exactly 1; no power budget gives this value
        r, prof = make_instance([1.0], p_max=4.0, L=100, caps=(1e-3,))
        p = np.array([3.0])
        term = np.sqrt(15.0) / 4.0
        omega = 0.5
        sr = 1e-3 * omega * np.sqrt(2 * np.pi) * term / (np.sqrt(100) * (1 - omega))
        r.__dict__["sr_inf"] = sr  # where the cached property keeps its value
        b, degenerate = beta_k(r, p, prof, omega, 1)
        assert not degenerate
        assert b == pytest.approx(0.5, abs=1e-12)

    def test_zero_tail_power_degenerate(self):
        r, prof = make_instance([1.0, 1.0])
        b, degenerate = beta_k(r, np.zeros(2), prof, 0.5, 1)
        assert degenerate and b == 0.0

    def test_matches_kkt_bisection(self):
        # re-derive the shared level by bisecting the z-stationarity equation
        gamma = np.array([1.0, 1.0])
        p = np.array([0.5, 0.5])
        r, prof = make_instance(gamma, p_max=1.0, caps=(1e-5, 5e-4))
        omega = 0.5
        sr = sr_infinity(gamma, 1.0)
        a = dispersion_coeff(gamma * p, r.block_length)
        target = (1 - omega) / prof.eps_max_overall

        def lhs(z, k):
            y = q_inverse(z)
            return (
                (omega / sr) * np.sqrt(2 * np.pi) * np.exp(y * y / 2) * a[k - 1 :].sum()
            )

        for k in (1, 2):
            lo, hi = 1e-12, 0.499999
            for _ in range(200):
                mid = np.sqrt(lo * hi)
                if lhs(mid, k) > target:
                    lo = mid
                else:
                    hi = mid
            b, degenerate = beta_k(r, p, prof, omega, k)
            assert not degenerate
            assert b == pytest.approx(np.sqrt(lo * hi), rel=1e-9)

    def test_absent_when_argument_below_one(self):
        r, prof = make_instance([1.0])
        # omega = 1 zeroes the numerator
        b, degenerate = beta_k(r, np.array([1.0]), prof, 1.0, 1)
        assert b is None and not degenerate

    def test_range_when_present(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r, prof, p, omega, _ = random_instance(rng)
            for k in range(1, r.n_users + 1):
                b, degenerate = beta_k(r, p, prof, omega, k)
                if b is not None and not degenerate:
                    assert 0.0 < b <= 0.5


class TestOptimalErrors:
    def test_omega_one_returns_caps(self):
        r, prof = make_instance([0.7, 1.1, 0.4, 0.9])
        p = water_filling(r.gamma, r.p_max)
        out = optimal_errors(r, p, prof, 1.0)
        assert np.array_equal(out, prof.caps)
        assert out.max() == 5e-4

    @pytest.mark.parametrize("sr_inf", [0.0, -1.0, np.nan])
    def test_bad_sr_inf_rejected(self, sr_inf, monkeypatch):
        # the realization checks its normalizer where it computes it, so the
        # error subproblem never scales by a value that is not positive
        monkeypatch.setattr(fblopt.channel, "sr_infinity", lambda *args: sr_inf)
        r, prof = make_instance([1.0])
        with pytest.raises(ValueError, match="sr_inf must be positive"):
            r.sr_inf
        with pytest.raises(ValueError, match="sr_inf must be positive"):
            optimal_errors(r, np.array([1.0]), prof, 0.9)

    def test_paper_profile_shape(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            gamma = rng.exponential(1.0, 4) + 0.02
            r, prof = make_instance(gamma)
            p = rng.dirichlet(np.ones(4)) * r.p_max
            omega = rng.uniform(0.05, 0.95)
            out = optimal_errors(r, p, prof, omega)
            caps = np.array(prof.eps_max_sorted)
            assert EPS_FLOOR <= out.max() <= caps[-1]
            assert np.array_equal(out[prof.index], np.minimum(caps, out.max()))

    def test_symmetric_two_user_grid_oracle(self):
        gamma = np.array([1.5, 1.5])
        r, prof = make_instance(gamma, p_max=4.0, L=200, caps=(1e-4, 1e-4))
        p = np.array([2.0, 2.0])  # gamma*p = [3, 3]
        out = optimal_errors(r, p, prof, 0.5)
        obj = subproblem_objective(r, p, prof, 0.5, out)
        _, grid_obj = grid_search_errors(r, p, prof, 0.5, points_per_user=10_000)
        assert obj <= grid_obj + 1e-8

    def test_cap_saturated_level_regression(self):
        # the shared level can pin exactly at an intermediate cap: the
        # stationary candidates bracket cap_1 from both sides here
        gamma = np.array([0.70752926, 1.02520335, 0.56854866, 0.89510986])
        r, prof = make_instance(gamma, p_max=4.0, L=200)
        p = water_filling(gamma, 4.0)
        out = optimal_errors(r, p, prof, 0.5)
        assert out.max() == pytest.approx(1e-5, abs=1e-18)
        obj = subproblem_objective(r, p, prof, 0.5, out)
        _, grid_obj = grid_search_errors(r, p, prof, 0.5, points_per_user=4000)
        assert obj <= grid_obj + 1e-8

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(17)
        instances = [random_instance(rng) for _ in range(40)]
        for r, profile, p, omega, _ in instances + [many_users_instance(rng) for _ in range(8)]:
            out = optimal_errors(r, p, profile, omega)
            # the joint solver scores each iterate with z as the max level
            assert np.array_equal(out, errors_at_level(profile, out.max()))
            obj = subproblem_objective(r, p, profile, omega, out)
            _, grid_obj = grid_search_errors(r, p, profile, omega, points_per_user=2000)
            assert obj <= grid_obj + 1e-8

    def test_every_error_vector_is_min_of_caps_and_level(self):
        # the joint solver's alternation measures the change of eps by |dz|
        rng = np.random.default_rng(61)
        instances = [random_instance(rng) for _ in range(40)]
        moved = 0
        for r, profile, p, omega, _ in instances + [many_users_instance(rng) for _ in range(8)]:
            one = optimal_errors(r, p, profile, omega)
            two = optimal_errors(r, rng.dirichlet(np.ones(r.n_users)) * r.p_max, profile, omega)
            assert np.max(np.abs(one - two)) == abs(one.max() - two.max())
            moved += one.max() != two.max()
            # at omega = 0 the scan's own limit is the floor: every level is 0
            floor = optimal_errors(r, p, profile, 0.0)
            assert floor.max() == EPS_FLOOR
            assert np.array_equal(floor, errors_at_level(profile, EPS_FLOOR))
            report = scheme_dispatch("wf_minmax", r, profile, omega)
            assert np.array_equal(
                report.eps, np.full(r.n_users, profile.eps_max_sorted[0])
            )
        assert moved >= 40

    def test_branch_exclusivity(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            r, profile, p, omega, _ = random_instance(rng)
            caps = np.array(profile.eps_max_sorted)
            hits = 0
            for k in range(1, r.n_users + 1):
                b, degenerate = beta_k(r, p, profile, omega, k)
                if b is None or degenerate:
                    continue
                lo = 0.0 if k == 1 else caps[k - 2]
                if lo + EDGE_TOL < b <= caps[k - 1] - EDGE_TOL:
                    hits += 1
            assert hits <= 1

    def test_objective_convex_along_random_directions(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            r, profile, p, omega, _ = random_instance(rng)
            caps = profile.caps
            base = caps * rng.uniform(0.3, 0.8, r.n_users)
            d = rng.normal(size=r.n_users)
            d /= np.max(np.abs(d))
            scale = 0.1 * base.min()
            ts = np.linspace(-1.0, 1.0, 9)
            vals = [
                subproblem_objective(r, p, profile, omega, base + t * scale * d)
                for t in ts
            ]
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-10)


CORNER_OMEGAS = (0.0, 1e-6, 0.5, 0.9, 1.0)


def corner_instance(rng, n, caps_kind):
    """Gains log-uniform within a decade either side of a centre drawn on
    [1e-3, 1e3] (all weak, mixed or all strong), clipped to that range, and
    caps log-uniform on [EPS_FLOOR, 0.49], then tied (the two smallest, and
    the two largest) or with one at EPS_FLOOR."""
    gamma = 10.0 ** np.clip(rng.uniform(-3.0, 3.0) + rng.uniform(-1.0, 1.0, n), -3.0, 3.0)
    caps = np.exp(rng.uniform(np.log(EPS_FLOOR), np.log(0.49), n))
    if caps_kind == "tied":
        caps = np.sort(caps)
        caps[1], caps[-2] = caps[0], caps[-1]
        caps = rng.permutation(caps)
    elif caps_kind == "floor":
        caps[rng.integers(n)] = EPS_FLOOR
    r = NetworkRealization(
        gamma=gamma, p_max=10.0 ** rng.uniform(-1.0, 1.5), block_length=int(rng.choice([100, 200, 1600]))
    )
    return r, SortedQosProfile.from_caps(caps)


def assert_corners_match_scan(r, profile, omega):
    """Each closed-form corner level gives the scan's error vector, bit for
    bit, and is its max. Returns the vertices' branch levels (beta_k at
    k = 1, whose tail is the one user's term)."""
    levels = corner_levels(r, profile, omega)
    corners = [np.zeros(r.n_users), *np.eye(r.n_users) * r.p_max]
    assert len(levels) == len(corners)
    for z, p in zip(levels, corners):
        scan = optimal_errors(r, p, profile, omega)
        assert (errors_at_level(profile, z) == scan).all()
        assert z == scan.max()
    return [beta_k(r, p, profile, omega, 1)[0] for p in corners[1:]]


class TestCornerLevels:
    @pytest.mark.parametrize("n", [1, 2, 4, 12])
    def test_corners_match_scan(self, n):
        rng = np.random.default_rng(70 + n)
        kinds = ("plain", "floor") if n == 1 else ("plain", "tied", "floor")
        below_one = 0
        for caps_kind in kinds:
            for _ in range(40):
                r, profile = corner_instance(rng, n, caps_kind)
                for omega in CORNER_OMEGAS:
                    betas = assert_corners_match_scan(r, profile, omega)
                    below_one += omega not in (0.0, 1.0) and None in betas
        # a log argument below 1, where no vertex branch has a level
        assert below_one > 0

    @pytest.mark.parametrize("n", [2, 4, 12])
    @pytest.mark.parametrize("caps_kind", ["plain", "tied", "floor"])
    def test_level_within_edge_tol_above_a_cap_is_clipped(self, n, caps_kind):
        # set omega, by bisection, so that a vertex's level lands in
        # (c, c + EDGE_TOL] for a cap c below the user's own: the scan stops
        # at c's segment and clips the level to c
        rng = np.random.default_rng(90 + n)
        for _ in range(4):
            r, profile = corner_instance(rng, n, caps_kind)
            caps = profile.eps_max_sorted
            user = profile.order[-1]
            c = next(cap for cap in caps if cap < caps[-1])
            p = np.eye(n)[user] * r.p_max
            lo, hi = 0.0, 1.0
            for _ in range(200):
                omega = 0.5 * (lo + hi)
                b = beta_k(r, p, profile, omega, 1)[0]
                if b is not None and c < b <= c + 0.5 * EDGE_TOL:
                    break
                if b is not None and b <= c:
                    lo = omega
                else:
                    hi = omega
            assert b is not None and c < b <= c + EDGE_TOL
            assert_corners_match_scan(r, profile, omega)
            assert corner_levels(r, profile, omega)[1 + user] == c


class TestKktResidual:
    def test_closed_form_residual_small(self):
        rng = np.random.default_rng(41)
        instances = [random_instance(rng) for _ in range(40)]
        for r, profile, p, omega, _ in instances + [many_users_instance(rng) for _ in range(8)]:
            out = optimal_errors(r, p, profile, omega)
            assert kkt_residual(out, r, p, profile, omega) <= 1e-8

    def test_perturbed_assignment_flagged(self):
        r, prof = make_instance([0.8, 1.2, 0.6, 1.0])
        p = water_filling(r.gamma, r.p_max)
        out = optimal_errors(r, p, prof, 0.6)
        bad = out.copy()
        bad[1] *= 1.1
        assert kkt_residual(bad, r, p, prof, 0.6) > 1e-3

    def test_omega_one_caps_residual(self):
        r, prof = make_instance([0.8, 1.2])
        p = water_filling(r.gamma, r.p_max)
        out = optimal_errors(r, p, prof, 1.0)
        assert kkt_residual(out, r, p, prof, 1.0) <= 1e-8


class TestGridOracle:
    def test_sweep_matches_naive_enumeration(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            r, profile, p, omega, sr = random_instance(rng, n=2)
            eps_fast, obj_fast = grid_search_errors(r, p, profile, omega, points_per_user=60)
            eps_naive, obj_naive = naive_grid_min(r, p, profile, omega, sr, points=60)
            assert obj_fast == pytest.approx(obj_naive, rel=1e-12)
            assert np.allclose(eps_fast, eps_naive, rtol=1e-12)

    def test_grid_points_respect_caps(self):
        r, profile, p, omega, _ = random_instance(np.random.default_rng(3), n=3)
        eps, _ = grid_search_errors(r, p, profile, omega, points_per_user=500)
        assert np.all(eps <= profile.caps)
        assert np.all(eps > EPS_FLOOR * (1 - 1e-12))

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fblopt.channel import NetworkRealization, UserLink, mean_gain, sample_realization
from fblopt.kernels import dispersion_coeff, length_offset, q_inverse, rate_term
from fblopt.power import sr_infinity


def make_links(caps=(1e-5, 5e-5, 1e-4, 5e-4), kappa=1.0, d=1.0, delta=3.0):
    return [UserLink(kappa=kappa, distance=d, pathloss_exp=delta, eps_max=c) for c in caps]


class TestUserLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            UserLink(kappa=0.0, distance=1.0, pathloss_exp=3.0, eps_max=1e-4)
        with pytest.raises(ValueError):
            UserLink(kappa=1.0, distance=-1.0, pathloss_exp=3.0, eps_max=1e-4)
        with pytest.raises(ValueError):
            UserLink(kappa=1.0, distance=1.0, pathloss_exp=3.0, eps_max=0.5)
        with pytest.raises(ValueError):
            UserLink(kappa=1.0, distance=1.0, pathloss_exp=3.0, eps_max=0.0)
        with pytest.raises(ValueError):
            UserLink(kappa=np.nan, distance=1.0, pathloss_exp=3.0, eps_max=1e-4)
        with pytest.raises(ValueError):
            UserLink(kappa=1.0, distance=1.0, pathloss_exp=3.0, eps_max=np.nan)
        with pytest.raises(ValueError):  # below EPS_FLOOR
            UserLink(kappa=1.0, distance=1.0, pathloss_exp=3.0, eps_max=1e-13)


class TestMeanGain:
    def test_unit_distance(self):
        assert mean_gain(UserLink(1.0, 1.0, 3.0, 1e-4)) == 1.0

    def test_identity(self):
        assert mean_gain(UserLink(2.0, 2.0, 1.0, 1e-4)) == pytest.approx(1.0)

    def test_pathloss(self):
        assert mean_gain(UserLink(1.0, 10.0, 3.0, 1e-4)) == pytest.approx(1e-3, rel=1e-12)


class TestNetworkRealization:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            NetworkRealization(gamma=np.array([1.0, -1.0]), p_max=1.0, block_length=100)
        with pytest.raises(ValueError):
            NetworkRealization(gamma=np.array([1.0]), p_max=0.0, block_length=100)
        with pytest.raises(ValueError):
            NetworkRealization(gamma=np.array([1.0]), p_max=1.0, block_length=1)
        with pytest.raises(ValueError):
            NetworkRealization(gamma=np.array([1.0]), p_max=np.nan, block_length=100)
        with pytest.raises(ValueError):
            NetworkRealization(gamma=np.array([1.0]), p_max=np.inf, block_length=100)
        with pytest.raises(ValueError):
            NetworkRealization(gamma=np.array([1.0]), p_max=1.0, block_length=np.nan)
        with pytest.raises(ValueError):  # a codeword is a whole number of channel uses
            NetworkRealization(gamma=np.array([1.0]), p_max=1.0, block_length=200.5)
        with pytest.raises(ValueError):  # beyond an int64
            NetworkRealization(gamma=np.array([1.0]), p_max=1.0, block_length=2**64)

    def test_sr_inf_follows_replaced_budget(self):
        r = NetworkRealization(gamma=np.array([0.5, 2.0]), p_max=1.0, block_length=100)
        assert r.sr_inf == sr_infinity(r.gamma, 1.0)
        for p_max in (0.25, 4.0):
            assert replace(r, p_max=p_max).sr_inf == sr_infinity(r.gamma, p_max)

    def test_vertex_halves_give_rate_term_bits(self):
        r = NetworkRealization(gamma=np.array([0.5, 2.0, 7.0]), p_max=3.0, block_length=200)
        qinv = q_inverse(np.array([1e-5, 1e-3, 0.1]))
        vertices = r.vertex_terms(qinv)
        assert vertices.tobytes() == rate_term(r.gamma * 3.0, 200, qinv).tobytes()
        assert r.length_offset == length_offset(200)
        for cached in (r.vertex_log1p, r.vertex_dispersion):
            assert not cached.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_corners_are_read_only_rows(self, n):
        r = NetworkRealization(gamma=np.linspace(0.5, 2.0, n), p_max=3.0, block_length=200)
        assert r.corners is r.corners and not r.corners.flags.writeable
        assert r.corners.tobytes() == (np.eye(n + 1, n, -1) * 3.0).tobytes()

    def test_caches_follow_replaced_fields(self):
        r = NetworkRealization(gamma=np.array([0.5, 2.0]), p_max=1.0, block_length=100)
        r.vertex_log1p, r.vertex_dispersion, r.length_offset, r.corners
        for p_max, L in ((4.0, 100), (1.0, 1600), (0.25, 3)):
            moved = replace(r, p_max=p_max, block_length=L)
            s = r.gamma * p_max
            assert moved.corners.tobytes() == (np.eye(3, 2, -1) * p_max).tobytes()
            assert moved.vertex_log1p.tobytes() == np.log1p(s).tobytes()
            assert moved.vertex_dispersion.tobytes() == dispersion_coeff(s, L).tobytes()
            assert moved.length_offset == length_offset(L)

    def test_budget_lost_to_rounding_rejected(self):
        # water-filling keeps the whole budget, but 0.25 * 5e-324 rounds to
        # an SNR of 0, so the normalizer is 0; the rate objective cannot be
        # scaled by it, and reading it raises instead of dividing by zero
        r = NetworkRealization(gamma=np.array([0.25]), p_max=5e-324, block_length=100)
        assert np.array_equal(r.p_wf, [5e-324]) and r.gamma[0] * r.p_wf[0] == 0.0
        with pytest.raises(ValueError, match="sr_inf must be positive"):
            r.sr_inf


class TestSampleRealization:
    def test_fading_off_unit_gains(self):
        links = make_links(kappa=1.0, d=1.0, delta=2.0)
        gamma = sample_realization(links, 1.0, fading=False)
        assert np.array_equal(gamma, np.ones(4))

    def test_noise_normalization(self):
        links = make_links()
        gamma = sample_realization(links, 4.0, fading=False)
        assert np.allclose(gamma, 0.25)

    def test_seed_determinism(self):
        links = make_links()
        a = sample_realization(links, 1.0, seed=99)
        b = sample_realization(links, 1.0, seed=99)
        assert np.array_equal(a, b)

    def test_generator_seed_used_as_is(self):
        links = make_links()
        a = sample_realization(links, 1.0, seed=np.random.default_rng(99))
        assert np.array_equal(a, sample_realization(links, 1.0, seed=99))

    def test_different_seeds_differ(self):
        links = make_links()
        a = sample_realization(links, 1.0, seed=1)
        b = sample_realization(links, 1.0, seed=2)
        assert not np.array_equal(a, b)

    def test_fading_mean_is_one(self):
        # unit links and unit noise make gamma the fading draws themselves;
        # 100 wide realizations give 10^6 samples of theta
        links = make_links(caps=(1e-4,) * 10_000)
        rng = np.random.default_rng(7)
        draws = np.concatenate(
            [sample_realization(links, 1.0, rng) for _ in range(100)]
        )
        assert abs(draws.mean() - 1.0) <= 0.01

    def test_fading_distribution_ks(self):
        links = make_links(caps=(1e-4,) * 10_000)
        rng = np.random.default_rng(123)
        draws = np.concatenate(
            [sample_realization(links, 1.0, rng) for _ in range(10)]
        )
        stat = stats.kstest(draws, "expon").statistic
        assert stat <= 0.01

    def test_empty_links_rejected(self):
        with pytest.raises(ValueError):
            sample_realization([], 1.0)

"""Scalar kernel tests against independent high-precision oracles.

Expected values were produced by mpmath quadrature of the Gaussian tail at
40 digits (the oracle also runs live on a few points below) and by plain
bisection on q_function for the inverse.
"""

from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblopt.kernels import EPS_FLOOR, achievable_rate, dispersion_coeff, q_function, q_inverse


def tail_oracle(x, dps=30):
    """Gaussian tail by direct numerical integration, independent of erfc."""
    with mp.workdps(dps):
        val = mp.quad(lambda t: mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi), [x, mp.inf])
        return float(val)


def bisect_inverse(eps, iters=200):
    """Invert q_function by bisection only."""
    lo, hi = 0.0, 50.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_oracle_values(self):
        # mpmath quadrature, 40 digits
        assert q_function(2.0) == pytest.approx(0.0227501319481792072, rel=1e-12)
        assert q_function(4.26489) == pytest.approx(1.0000035557743590725e-05, rel=1e-12)

    def test_live_integration_oracle(self):
        for x in [0.3, 1.0, 2.5, 4.0, 5.5]:
            assert q_function(x) == pytest.approx(tail_oracle(x), rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 400)
        vals = q_function(xs)
        assert np.all(np.diff(vals) < 0)

    def test_deep_tail_accuracy(self):
        # outputs near 1e-15 keep relative accuracy
        x = 7.941345326170997  # Q(x) ~ 1e-15
        assert q_function(x) == pytest.approx(tail_oracle(x, dps=40), rel=1e-12)


class TestQInverse:
    def test_near_half_limit(self):
        assert abs(q_inverse(0.5 - 1e-16)) < 1e-12

    def test_frozen_bisection_values(self):
        assert q_inverse(0.02275013) == pytest.approx(2.0000000360834303, rel=1e-10)
        assert q_inverse(1e-5) == pytest.approx(4.2648907939228246, rel=1e-10)

    def test_against_bisection(self):
        for eps in [1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.49]:
            assert q_inverse(eps) == pytest.approx(bisect_inverse(eps), abs=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.5, 0.7, 1.0, np.nan, -1.0, np.inf])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            q_inverse(bad)
        with pytest.raises(ValueError):  # one bad element among good ones
            q_inverse([1e-3, bad, 0.25])

    def test_is_negated_inv_cdf_bit_for_bit(self):
        # Wichura's AS 241 through NormalDist, element by element, on
        # log-uniform points over the whole solved range
        rng = np.random.default_rng(30)
        eps = np.exp(rng.uniform(np.log(EPS_FLOOR), np.log(0.5), 100_000))
        eps = np.clip(eps, EPS_FLOOR, np.nextafter(0.5, 0.0))
        inv_cdf = NormalDist().inv_cdf
        want = np.array([-inv_cdf(e) for e in eps.tolist()])
        assert q_inverse(eps).tobytes() == want.tobytes()

    def test_shapes(self):
        scalar = q_inverse(np.float64(1e-5))
        assert type(scalar) is float and scalar == -NormalDist().inv_cdf(1e-5)
        assert type(q_inverse(np.array(0.25))) is float
        grid = np.linspace(0.01, 0.4, 6).reshape(2, 3)
        out = q_inverse(grid)
        assert out.shape == (2, 3) and out.dtype == float
        assert out.tobytes() == q_inverse(grid.ravel()).tobytes()
        empty = q_inverse(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == float
        listed = q_inverse([1e-5, 0.25])
        assert isinstance(listed, np.ndarray)
        assert listed.tobytes() == q_inverse(np.array([1e-5, 0.25])).tobytes()

    def test_positive_below_half(self):
        # a zero would leave a zero-power user unpinned in the power solver
        below_half = 0.5 - np.arange(1, 2002) * 2.0**-54  # the 2,001 largest floats < 0.5
        near_half = 0.5 - np.geomspace(1e-17, 1e-3, 100_000)
        criterion_10 = np.geomspace(1e-12, 0.499, 10_000)
        for eps in (below_half, near_half[near_half < 0.5], criterion_10):
            assert np.all(q_inverse(eps) > 0.0)

    def test_matches_high_precision_inverse(self):
        # -sqrt(2) * erfinv(2 eps - 1) at 40 digits, over the criterion-10
        # grid and up to 0.5 - 1e-16, where the inverse goes to zero
        eps = np.concatenate([np.geomspace(1e-12, 0.499, 1000), 0.5 - np.geomspace(1e-16, 1e-3)])
        with mp.workdps(40):
            want = np.array([float(-mp.sqrt(2) * mp.erfinv(2 * mp.mpf(e) - 1)) for e in eps])
        assert np.max(np.abs(q_inverse(eps) - want) / want) <= 2e-15

    def test_round_trip_grid(self):
        eps = np.geomspace(1e-12, 0.499, 10_000)
        rel = np.abs(q_function(q_inverse(eps)) - eps) / eps
        assert rel.max() <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-12, max_value=0.499))
    def test_round_trip_property(self, eps):
        assert abs(q_function(q_inverse(eps)) - eps) / eps <= 1e-10

    def test_second_derivative_matches_closed_form(self):
        # d2/dx2 of the inverse equals 2*pi*y*exp(y^2) with y = q_inverse(x);
        # checked by central differences, and positive on (0, 0.5)
        h = 1e-5
        for x in [0.05, 0.1, 0.2, 0.3, 0.45]:
            num = (q_inverse(x + h) - 2 * q_inverse(x) + q_inverse(x - h)) / h**2
            y = q_inverse(x)
            ref = 2 * np.pi * y * np.exp(y * y)
            assert num > 0
            assert num == pytest.approx(ref, rel=1e-4)


class TestDispersion:
    def test_zero_snr(self):
        assert dispersion_coeff(0.0, 100) == 0.0

    def test_high_snr_limit(self):
        assert dispersion_coeff(1e12, 100) == pytest.approx(0.1, rel=1e-9)

    def test_frozen_value(self):
        assert dispersion_coeff(3.0, 200) == pytest.approx(0.068465319688145764, rel=1e-12)

    def test_monotone_in_snr(self):
        snr = np.linspace(0.0, 50.0, 500)
        vals = dispersion_coeff(snr, 150)
        assert np.all(np.diff(vals) > 0)

    def test_range(self):
        snr = np.geomspace(1e-6, 1e6, 200)
        vals = dispersion_coeff(snr, 128)
        assert np.all(vals >= 0)
        assert np.all(vals < np.sqrt(1 / 128))


class TestAchievableRate:
    def test_zero_snr(self):
        assert achievable_rate(0.0, 100, 0.1) == pytest.approx(np.log(100) / 100, abs=1e-14)

    def test_eps_near_half(self):
        want = np.log(2) + np.log(200) / 200
        assert achievable_rate(1.0, 200, 0.5 - 1e-16) == pytest.approx(want, abs=1e-12)

    def test_frozen_value(self):
        assert achievable_rate(3.0, 200, 1e-4) == pytest.approx(1.1581622953504233, rel=1e-12)

    def test_can_be_negative(self):
        assert achievable_rate(0.01, 100, 1e-9) < 0.0

    def test_monotone_in_eps(self):
        eps = np.geomspace(1e-9, 0.4, 300)
        rates = achievable_rate(2.0, 150, eps)
        assert np.all(np.diff(rates) > 0)

    def test_monotone_in_length(self):
        lengths = [100, 200, 400, 800, 1600, 3200]
        rates = [achievable_rate(2.0, L, 1e-5) for L in lengths]
        assert np.all(np.diff(rates) > 0)

    @pytest.mark.parametrize("snr", [0.5, 1.0, 3.0, 10.0])
    def test_shannon_limit(self, snr):
        assert abs(achievable_rate(snr, 10**8, 1e-5) - np.log1p(snr)) <= 1e-3

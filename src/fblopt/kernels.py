"""Scalar kernels: Gaussian tail Q, its inverse, channel dispersion, and the
normal-approximation achievable rate for finite-blocklength coding.

All functions are pure, accept scalars or numpy arrays, and use natural
logarithms (rates in nats per channel use). Q and its inverse come from the
standard library, so numpy is the only library the package needs.
"""

import math
from statistics import NormalDist

import numpy as np

# Callers clamp error probabilities to this floor before calling q_inverse;
# the kernel itself rejects out-of-domain input so optimizer bugs cannot be
# masked by silent clamping.
EPS_FLOOR = 1e-12

_SQRT2 = math.sqrt(2.0)


def q_scalar(x: float) -> float:
    """Gaussian tail probability Q(x) = P[N(0,1) > x] of one float, as
    erfc(x/sqrt(2))/2, which keeps full relative accuracy deep into the
    tail (outputs down to ~1e-300). Scalar loops call it, not q_function."""
    return 0.5 * math.erfc(x / _SQRT2)


# elementwise lift of q_scalar; a 0-d input comes back as a Python float
_q = np.frompyfunc(q_scalar, 1, 1)
_inv_cdf = NormalDist().inv_cdf


def q_function(x):
    """q_scalar applied to a float or elementwise to an array."""
    out = np.asarray(_q(np.asarray(x, dtype=float)), dtype=float)
    return float(out) if out.ndim == 0 else out


def q_inverse(eps):
    """Inverse of q_function on (0, 0.5): -inv_cdf(eps) of the standard
    normal by Wichura's AS 241 (statistics.NormalDist), whose relative
    error against a 40-digit reference measures under 6e-16 on [1e-12, 0.5).

    Raises ValueError for eps outside the open interval (0, 0.5). The
    input is inverted element by element as a list of Python floats, with
    no object array: on the few values a solve inverts, numpy's per-call
    cost would outweigh the work. A 0-d input gives a Python float, any
    other input a float array of its shape.
    """
    e = np.asarray(eps, dtype=float)
    values = e.ravel().tolist()
    for x in values:
        if not 0.0 < x < 0.5:  # NaN fails too
            raise ValueError("q_inverse requires 0 < eps < 0.5")
    y = [-_inv_cdf(x) for x in values]
    return np.array(y, dtype=float).reshape(e.shape) if e.ndim else y[0]


# 0-d float64 operands: the same bits as the Python floats 1.0 and 2.0 in a
# ufunc call, for less of numpy's per-call cost
_ONE, _TWO = np.array(1.0), np.array(2.0)


def dispersion_coeff(s, block_length):
    """Square-root dispersion penalty sqrt((1/L) * (1 - (1+s)^-2)) at SNR s.

    Evaluated as sqrt(s*(s+2)/L)/(1+s) to avoid cancellation at small s.
    Lies in [0, sqrt(1/L)) and increases with s. Plain arithmetic on a float
    or a float64 array, with no conversion: the power solver calls it on
    every objective evaluation.
    """
    return np.sqrt(s * (s + _TWO) / block_length) / (_ONE + s)


def rate_term(s, block_length, qinv):
    """log(1+s) - dispersion_coeff(s, L) * qinv at SNR s: the normal-
    approximation rate without its log(L)/L offset, for a given Qinv(eps)."""
    return np.log1p(s) - dispersion_coeff(s, block_length) * qinv


def length_offset(block_length):
    """log(L)/L, the normal approximation's offset that rate_term leaves out."""
    return np.log(block_length) / block_length


def achievable_rate(snr, block_length, eps):
    """Normal-approximation achievable rate in nats per channel use:

        log(1+snr) - sqrt((1/L)(1-(1+snr)^-2)) * Qinv(eps) + log(L)/L

    The raw value is returned and may be negative; clamping to zero is the
    responsibility of throughput reporting, not of this kernel. Converges to
    the Shannon rate log(1+snr) as the block length grows.
    """
    L = block_length
    out = rate_term(np.asarray(snr, dtype=float), L, q_inverse(eps)) + length_offset(L)
    return float(out) if np.ndim(out) == 0 else out

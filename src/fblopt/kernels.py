"""Scalar kernels: Gaussian tail Q, its inverse, channel dispersion, and the
normal-approximation achievable rate for finite-blocklength coding.

All functions are pure, accept scalars or numpy arrays, and use natural
logarithms (rates in nats per channel use).
"""

import numpy as np
from scipy.special import erfc, ndtri

# Callers clamp error probabilities to this floor before calling q_inverse;
# the kernel itself rejects out-of-domain input so optimizer bugs cannot be
# masked by silent clamping.
EPS_FLOOR = 1e-12

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def q_function(x):
    """Gaussian tail probability Q(x) = P[N(0,1) > x].

    Computed as erfc(x/sqrt(2))/2, which keeps full relative accuracy deep
    into the tail (outputs down to ~1e-300).
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def _phi(y):
    """Standard normal density."""
    return _INV_SQRT_2PI * np.exp(-0.5 * y * y)


def q_inverse(eps):
    """Inverse of q_function on (0, 0.5).

    A library inverse-normal evaluation provides the starting point and two
    safeguarded Newton steps on q_function polish it, so the round trip
    q_function(q_inverse(eps)) agrees with eps to better than 1e-12 relative.

    Raises ValueError for eps outside the open interval (0, 0.5).
    """
    e = np.asarray(eps, dtype=float)
    if not np.all((0.0 < e) & (e < 0.5)):
        raise ValueError("q_inverse requires 0 < eps < 0.5")
    y = -ndtri(e)
    # Newton on Q(y) = eps: y <- y + (Q(y) - eps)/phi(y); stays in [0, 50].
    for _ in range(2):
        y = np.clip(y + (0.5 * erfc(y / _SQRT2) - e) / _phi(y), 0.0, 50.0)
    return float(y) if y.ndim == 0 else y


def dispersion_coeff(s, block_length):
    """Square-root dispersion penalty sqrt((1/L) * (1 - (1+s)^-2)) at SNR s.

    Evaluated as sqrt(s*(s+2)/L)/(1+s) to avoid cancellation at small s.
    Lies in [0, sqrt(1/L)) and increases with s. Plain arithmetic on a float
    or a float array, with no conversion: the power solver calls it on
    every objective evaluation.
    """
    return np.sqrt(s * (s + 2.0) / block_length) / (1.0 + s)


def rate_term(s, block_length, qinv, disp=None):
    """log(1+s) - dispersion_coeff(s, L) * qinv at SNR s: the normal-
    approximation rate without its log(L)/L offset, for a given Qinv(eps).
    disp, when given, is dispersion_coeff(s, L) already computed."""
    if disp is None:
        disp = dispersion_coeff(s, block_length)
    return np.log1p(s) - disp * qinv


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

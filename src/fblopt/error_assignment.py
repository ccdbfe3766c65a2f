"""Optimal per-user error probabilities for a fixed power vector.

For fixed powers the weighted objective reduces to minimizing

    (omega/sr_inf) * sum_i a_i * Qinv(eps_i) + ((1-omega)/cap_N) * max(eps)

over 0 < eps_i <= cap_i, where a_i is the dispersion coefficient of user i
and cap_N the largest QoS cap. The problem is convex and admits a closed
form in one number, the shared level z = max(eps): every user sits at
min(cap_i, z), and z is found by scanning N candidate branches.
optimal_errors returns that error vector itself, so its max is z.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import EPS_FLOOR, dispersion_coeff, q_scalar

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# the ufunc accumulation behind np.cumsum, called without its wrapper
_accumulate = np.add.accumulate

# absolute tolerance for interval-membership tests at branch endpoints
EDGE_TOL = 1e-12


@dataclass(frozen=True)
class SortedQosProfile:
    """Per-user error caps sorted ascending, with the sort permutation.

    order[j] gives the original index of the user in sorted slot j; ties are
    broken by original index so the sort is deterministic.
    """

    eps_max_sorted: tuple
    order: tuple

    @classmethod
    def from_caps(cls, eps_max):
        caps = np.asarray(eps_max, dtype=float)
        if caps.ndim != 1 or caps.size < 1:
            raise ValueError("eps_max must be a nonempty 1-D sequence")
        # on Python floats: a stable sort, as numpy's kind="stable"
        caps = caps.tolist()
        if not all(EPS_FLOOR <= c < 0.5 for c in caps):  # NaN fails too
            raise ValueError(f"every eps_max must lie in [{EPS_FLOOR:g}, 0.5)")
        order = sorted(range(len(caps)), key=caps.__getitem__)
        return cls(eps_max_sorted=tuple(caps[i] for i in order), order=tuple(order))

    @property
    def n_users(self) -> int:
        return len(self.eps_max_sorted)

    @property
    def eps_max_overall(self) -> float:
        return self.eps_max_sorted[-1]

    @cached_property
    def index(self) -> np.ndarray:
        """order as an index array, built once, read-only."""
        index = np.array(self.order, dtype=np.intp)
        index.flags.writeable = False
        return index

    @cached_property
    def caps(self) -> np.ndarray:
        """The caps in original user order, built once, read-only."""
        caps = np.empty(self.n_users)
        caps[self.index] = self.eps_max_sorted
        caps.flags.writeable = False
        return caps


def errors_at_level(profile, z) -> np.ndarray:
    """Every user's error probability at the shared level z, min(cap_i, z),
    in original user order."""
    return np.minimum(profile.caps, z)


def _level_of_tail(realization, profile, omega):
    """The branch level as a function of its tail sum: beta = Q(sqrt(2 log(arg)))
    with arg = sqrt(L)(1-omega) sr_inf / (cap_N omega sqrt(2 pi) tail): None
    when arg < 1, and the limit 0 when the denominator is zero (a zero tail,
    or omega = 0, where every level is 0 and the scan lands on the floor)."""
    num = math.sqrt(realization.block_length) * (1.0 - omega) * realization.sr_inf
    den = profile.eps_max_overall * omega * _SQRT_2PI

    def level(tail):
        arg = num / (den * tail) if den * tail else math.inf
        if arg < 1.0:
            return None
        return q_scalar(math.sqrt(2.0 * math.log(arg)))

    return level


def _tails(realization, p, profile) -> list:
    """tail_k for the branches k = 1..N, on floats: the sums of
    sqrt(s^2 + 2s)/(1+s), s = gamma*p, over sorted slots k..N (one reversed
    cumulative sum), for one power vector or for each row of a (K, N) stack."""
    s = (realization.gamma * p).take(profile.index, -1)
    return _accumulate(dispersion_coeff(s, 1)[..., ::-1], -1)[..., ::-1].tolist()


def beta_k(realization, p, profile, omega, k):
    """Candidate shared error level for branch k (1-based, sorted order).

    Returns (value, degenerate). value is None when the logarithm's argument
    falls below 1, so no real candidate exists and the branch test fails.
    When every user from slot k on has zero power the candidate degenerates
    to its limit 0, returned with degenerate=True.
    """
    if not 1 <= k <= realization.n_users:
        raise ValueError("branch index k must lie in [1, n_users]")
    tail = _tails(realization, p, profile)[k - 1]
    return _level_of_tail(realization, profile, omega)(tail), tail == 0.0


def check_inputs(realization, profile, omega):
    """Raise ValueError unless omega lies in [0, 1] and the profile and the
    realization agree on the user count."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    if profile.n_users != realization.n_users:
        raise ValueError("profile and realization disagree on user count")


def _scan(caps, omega, levels) -> float:
    """The shared level z from the sorted caps and the branch levels
    beta_1..beta_N, read lazily and only as far as needed.

    For a shared level z every user does best at min(cap_i, z), since Qinv
    decreases in eps. The objective restricted to z in the sorted segment
    (cap_{k-1}, cap_k] is convex with stationary point beta_k, so scanning
    segments in order finds the global minimum: an interior beta_k in its
    own segment (within EDGE_TOL, clipped to its cap), or the cap between
    a still-decreasing segment and an increasing one. With no crossing, or
    at omega = 1 (no weight on errors, and larger eps only helps the rate),
    z is the loosest cap; at omega = 0 every level is 0 and z is EPS_FLOOR.
    """
    k, z = len(caps), caps[-1]
    if omega < 1.0:
        lo = 0.0
        for k, (cap, b) in enumerate(zip(caps, levels), 1):
            # None: the objective is still decreasing across this whole segment
            if b is not None and b <= cap + EDGE_TOL:
                if b <= lo - EDGE_TOL:
                    # stationary point fell below the segment: the previous
                    # cap is the minimizer (decreasing before, increasing after)
                    k, z = k - 1, lo
                else:
                    z = b
                break
            lo = cap
    return min(max(z, EPS_FLOOR), caps[k - 1])


def optimal_errors(realization, p, profile, omega) -> np.ndarray:
    """Closed-form minimizer of the fixed-power error subproblem: the error
    probabilities in original user order, min(cap_i, z), whose max is the
    level z that _scan picks from the branch levels beta_k at p."""
    check_inputs(realization, profile, omega)
    level = _level_of_tail(realization, profile, omega)
    z = _scan(profile.eps_max_sorted, omega, map(level, _tails(realization, p, profile)))
    return errors_at_level(profile, z)


def corner_levels(realization, profile, omega) -> list:
    """The level z = max(optimal_errors(...)) at each row of
    realization.corners, N+1 floats, each giving optimal_errors' bits
    through errors_at_level: every row runs optimal_errors' own tail sums
    and scan."""
    check_inputs(realization, profile, omega)
    level = _level_of_tail(realization, profile, omega)
    return [
        _scan(profile.eps_max_sorted, omega, map(level, tails))
        for tails in _tails(realization, realization.corners, profile)
    ]

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

from .kernels import EPS_FLOOR, dispersion_coeff

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

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
        if not np.all((EPS_FLOOR <= caps) & (caps < 0.5)):
            raise ValueError(f"every eps_max must lie in [{EPS_FLOOR:g}, 0.5)")
        order = np.argsort(caps, kind="stable")
        return cls(
            eps_max_sorted=tuple(caps[order].tolist()),
            order=tuple(int(i) for i in order),
        )

    @property
    def n_users(self) -> int:
        return len(self.eps_max_sorted)

    @property
    def eps_max_overall(self) -> float:
        return self.eps_max_sorted[-1]

    @cached_property
    def caps(self) -> np.ndarray:
        """The caps in original user order, built once, read-only."""
        caps = np.empty(self.n_users)
        caps[list(self.order)] = self.eps_max_sorted
        caps.flags.writeable = False
        return caps

    def to_sorted(self, original_values) -> np.ndarray:
        """Gather an original-order vector into sorted-cap order."""
        return np.asarray(original_values, dtype=float)[list(self.order)]


def errors_at_level(profile, z) -> np.ndarray:
    """Every user's error probability at the shared level z, min(cap_i, z),
    in original user order."""
    return np.minimum(profile.caps, z)


def _branch_levels(realization, p, profile, omega):
    """Yield (tail_k, beta_k) for the branches k = 1..N in turn, on floats.

    tail_k sums sqrt(s^2 + 2s)/(1+s), s = gamma*p, over sorted slots k..N
    (one reversed cumulative sum), and beta_k = Q(sqrt(2 log(arg))) with
    arg = sqrt(L)(1-omega) sr_inf / (cap_N omega sqrt(2 pi) tail_k): None
    when arg < 1, and the limit 0 when the denominator is zero (a zero tail,
    or omega = 0, where every level is 0 and the scan lands on the floor).
    """
    s = profile.to_sorted(realization.gamma * p)
    num = math.sqrt(realization.block_length) * (1.0 - omega) * realization.sr_inf
    den = profile.eps_max_overall * omega * _SQRT_2PI
    for tail in np.cumsum(dispersion_coeff(s, 1)[::-1])[::-1].tolist():
        arg = num / (den * tail) if den * tail else math.inf
        if arg < 1.0:
            yield tail, None
        else:
            yield tail, 0.5 * math.erfc(math.sqrt(2.0 * math.log(arg)) / _SQRT2)


def beta_k(realization, p, profile, omega, k):
    """Candidate shared error level for branch k (1-based, sorted order).

    Returns (value, degenerate). value is None when the logarithm's argument
    falls below 1, so no real candidate exists and the branch test fails.
    When every user from slot k on has zero power the candidate degenerates
    to its limit 0, returned with degenerate=True.
    """
    n = realization.n_users
    if not 1 <= k <= n:
        raise ValueError("branch index k must lie in [1, n_users]")
    tail, level = list(_branch_levels(realization, p, profile, omega))[k - 1]
    return level, tail == 0.0


def optimal_errors(realization, p, profile, omega) -> np.ndarray:
    """Closed-form minimizer of the fixed-power error subproblem: the error
    probabilities in original user order, min(cap_i, z), whose max is z.

    For a shared level z every user does best at min(cap_i, z), since Qinv
    decreases in eps. The objective restricted to z in the sorted segment
    (cap_{k-1}, cap_k] is convex with stationary point beta_k, so scanning
    segments in order locates the global minimum: either an interior beta_k
    landing in its own segment, or a saturated level at the cap separating a
    still-decreasing segment from an already-increasing one. With no
    crossing at all, z is the loosest cap and every user sits at its cap.
    At omega = 0 every level is 0, so z clamps to EPS_FLOOR.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1] for the error subproblem")
    n = realization.n_users
    if profile.n_users != n:
        raise ValueError("profile and realization disagree on user count")
    caps = profile.eps_max_sorted

    # at omega == 1 there is no weight on the error objective and larger eps
    # only helps the rate, so every user sits at its cap
    k, z = n, caps[-1]
    if omega < 1.0:
        lo = 0.0
        for k, (_, b) in enumerate(_branch_levels(realization, p, profile, omega), 1):
            # None: the objective is still decreasing across this whole segment
            if b is not None and b <= caps[k - 1] + EDGE_TOL:
                if b > lo - EDGE_TOL:
                    z = b
                else:
                    # stationary point fell below the segment: the previous
                    # cap is the minimizer (decreasing before, increasing after)
                    k, z = k - 1, lo
                break
            lo = caps[k - 1]

    return errors_at_level(profile, min(max(z, EPS_FLOOR), caps[k - 1]))


def z_sweep(caps, points):
    """Per-user log grids of `points` values on (EPS_FLOOR, cap_i], and the
    sweep of the max level z over the union of those grids.

    For a given z every user's best grid point is its largest one <= z,
    because Qinv decreases in eps, so the sweep attains the best point of
    the full Cartesian product grid. Returns (grids, z candidates, index of
    each user's point per z as an (n, len(z)) array clipped at 0, mask of
    the z where every user has a point <= z).
    """
    grids = [np.geomspace(EPS_FLOOR, cap, points + 1)[1:] for cap in caps]
    z_cand = np.unique(np.concatenate(grids))
    idx = np.array([np.searchsorted(g, z_cand, side="right") - 1 for g in grids])
    return grids, z_cand, np.clip(idx, 0, None), np.all(idx >= 0, axis=0)

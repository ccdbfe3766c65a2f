"""Optimal per-user error probabilities for a fixed power vector.

For fixed powers the weighted objective reduces to minimizing

    (omega/sr_inf) * sum_i a_i * Qinv(eps_i) + ((1-omega)/cap_N) * max(eps)

over 0 < eps_i <= cap_i, where a_i is the dispersion coefficient of user i
and cap_N the largest QoS cap. The problem is convex and admits a closed
form in one number, the shared level z = max(eps): every user sits at
min(cap_i, z), and z is found by scanning N candidate branches.
optimal_errors returns that error vector itself, so its max is z.
"""

import bisect
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
        return 0.5 * math.erfc(math.sqrt(2.0 * math.log(arg)) / _SQRT2)

    return level


def _branch_levels(realization, p, profile, omega):
    """Yield (tail_k, beta_k) for the branches k = 1..N in turn, on floats.

    tail_k sums sqrt(s^2 + 2s)/(1+s), s = gamma*p, over sorted slots k..N
    (one reversed cumulative sum), and beta_k is _level_of_tail's level.
    """
    level = _level_of_tail(realization, profile, omega)
    s = profile.to_sorted(realization.gamma * p)
    for tail in np.cumsum(dispersion_coeff(s, 1)[::-1])[::-1].tolist():
        yield tail, level(tail)


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


def _check(realization, profile, omega):
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1] for the error subproblem")
    if profile.n_users != realization.n_users:
        raise ValueError("profile and realization disagree on user count")


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
    _check(realization, profile, omega)
    n = realization.n_users
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


def corner_levels(realization, profile, omega) -> list:
    """The level z = max(optimal_errors(...)) at each corner of the budget,
    without a scan: zero power first, then p_max * e_i for each user i in
    original order, N+1 floats; optimal_errors at a corner is
    errors_at_level(profile, z) for its z, the same bits.

    At a vertex every tail sum up to user i's sorted slot j is its one term
    d_i = dispersion_coeff(gamma_i p_max, 1), and every later one is 0.0,
    so each branch up to slot j has the same level beta_i and the next has
    the zero-tail level 0. The scan therefore stops at the first segment
    whose cap reaches beta_i (within EDGE_TOL), clipping beta_i to it as it
    always does, and otherwise at the zero-tail branch, whose level 0 falls
    below its segment and saturates user i's own cap. At zero power every
    tail is zero and z clamps to EPS_FLOOR; at omega = 1 every z is cap_N.
    """
    _check(realization, profile, omega)
    caps = profile.eps_max_sorted
    n = len(caps)
    if omega == 1.0:
        return [caps[-1]] * (n + 1)
    level = _level_of_tail(realization, profile, omega)
    edges = [c + EDGE_TOL for c in caps]
    slot = np.argsort(profile.order).tolist()
    levels = [EPS_FLOOR]
    for tail, j in zip(dispersion_coeff(realization.gamma * realization.p_max, 1).tolist(), slot):
        b = level(tail)
        k = n if b is None else bisect.bisect_left(edges, b)
        levels.append(min(max(b, EPS_FLOOR), caps[k]) if k <= j else caps[j])
    return levels


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

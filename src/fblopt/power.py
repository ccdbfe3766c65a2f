"""Power allocation for fixed error probabilities.

With the error probabilities fixed, each user's rate term is convex up to
an inflection point and concave after it, so the budgeted rate
maximization is a sum of sigmoids under one budget (Udell & Boyd,
"Maximizing a Sum of Sigmoids"). solve_power solves it exactly: some
optimal set of transmitting users is closed under dominance (a user with
no smaller gain and no smaller error probability transmits whenever a
dominated one does), so it solves every closed set at once by Newton
steps on its concave KKT system, whose Hessian is diagonal plus one
border, and scores the results next to the single-user vertices and zero
power.

Of the augmented-Lagrangian solver that this replaced, only the names
_alm_run, _spg and _PowerObjective's value and grad remain, as anchors
for the benchmark's hooks; each raises if called.

Also provides the water-filling and equal-power baselines and the
Shannon-sum-rate normalizer sr_infinity.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import EPS_FLOOR, q_inverse, rate_term

# exact solve on the dominance-closed supports
INFLECTION_STEPS = 6      # Newton steps in log s for each inflection point
NEWTON_STEPS = 6          # bordered Newton steps on every support at once
INFLECTION_MARGIN = 1.001 # iterates stay at or above this multiple of p_hat
POWER_TOL = 1e-6          # largest last Newton move of a converged row

# the ufunc reduction behind np.sum, called without np.sum's wrapper
_sum = np.add.reduce


@dataclass
class PowerSolveResult:
    p: np.ndarray
    rate_sum: float  # sum of each user's rate_term at p: unscaled, no log(L)/L
    converged: bool = False


def water_filling(gamma, p_max) -> np.ndarray:
    """Allocation p_i = max(0, level - 1/gamma_i) with the water level set so
    the powers sum to p_max. Exact active-set solve, no iteration.

    With gap_i = 1/gamma_i - min 1/gamma, the m active users get
    p_max/m + (mean active gap - gap_i): p_max is never added to 1/gamma,
    where a budget below its last bit would be rounded away, and every
    active gap is below p_max, so the sum holds p_max to rounding."""
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma > 0) or not p_max > 0:
        raise ValueError("gains and p_max must be positive")
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


def equal_power(n_users, p_max) -> np.ndarray:
    return np.full(n_users, p_max / n_users)


def sr_infinity(gamma, p_max, p_wf=None) -> float:
    """Shannon sum rate under water-filling; normalizes the rate objective
    and upper-bounds it for every feasible allocation. p_wf, when given, is
    water_filling(gamma, p_max) already computed."""
    gamma = np.asarray(gamma, dtype=float)
    if p_wf is None:
        p_wf = water_filling(gamma, p_max)
    return float(np.sum(np.log1p(gamma * p_wf)))


# benchmarks/hooks.py wraps these names of the retired augmented-Lagrangian
# solver and reports a missing one as absent; nothing calls them. They go
# when the benchmark reads its counts from the results instead.
def _alm_run(*args):
    raise AssertionError("the retired power solver was called")


def _spg(*args):
    raise AssertionError("the retired power solver was called")


class _PowerObjective:
    def value(self, *args):
        raise AssertionError("the retired power solver was called")

    def grad(self, *args):
        raise AssertionError("the retired power solver was called")


@functools.lru_cache(maxsize=256)
def _inflection_snr(qinv, block_length) -> float:
    """The inflection SNR s_hat of a rate term with inverse-Q value qinv,
    where it turns from convex to concave: the root of

        phi(x) = log((1+s) u^1.5 / (3u+1)) + log(sqrt(L) / qinv),  s = e^x, u = s(s+2),

    which increases in x, with phi'(x) = s/(1+s) + 3(1+s)^3/((s+2)(3u+1)).
    INFLECTION_STEPS Newton steps in x start at 0.5 (qinv/sqrt(L))^(2/3), the
    root of phi's small-s form. On floats, and memoized: users share a few
    qinv values, and the caps' values recur from solve to solve."""
    offset = 0.5 * math.log(block_length) - math.log(qinv)
    x = math.log(0.5) - offset / 1.5
    for _ in range(INFLECTION_STEPS):
        s = math.exp(x)
        one, two = 1.0 + s, 2.0 + s
        u = s * two
        v = 3.0 * u + 1.0
        x -= (math.log(one * u * math.sqrt(u) / v) + offset) / (s / one + 3.0 * one**3 / (two * v))
    return math.exp(x)


def closed_supports(gamma, qinv):
    """Every nonempty set of users closed under dominance, as the rows of a
    (K, N) boolean array; user i dominates user j when gamma_i >= gamma_j and
    qinv_i <= qinv_j (eps_i >= eps_j), with ties in both going to the lower
    index, so every dominator of j comes before j in the order (gamma
    descending, qinv ascending, index ascending).

    The sets, bit masks of users, are grown one user at a time in that
    order: each set built so far is kept, and also extended by the user when
    it already holds every dominator of that user. The list only grows, so
    no step holds more than the K closed sets, and 2^N arises only when no
    user dominates another. With equal eps the rows are the N sets of the k
    largest gains, k = 1..N, in that order."""
    n = gamma.size
    order = np.lexsort((np.arange(n), qinv, -gamma)).tolist()
    g, q = gamma.tolist(), qinv.tolist()
    sets = [0]
    for rank, j in enumerate(order):
        need = sum(1 << i for i in order[:rank] if g[i] >= g[j] and q[i] <= q[j])
        sets += [s | 1 << j for s in sets if s & need == need]
    # Python ints wider than int64 stay exact as objects
    bits = np.array(sets[1:], dtype=np.int64 if n < 63 else object)
    return (bits[:, None] >> np.arange(n)) & 1 == 1


def solve_power(realization, eps, omega) -> PowerSolveResult:
    """Exact power allocation for fixed error probabilities.

    With s = gamma * p, user i's rate term
    f_i(p) = log(1+s) - Qinv(eps_i) * sqrt(s(s+2)/L) / (1+s) is convex up to
    its inflection point s_hat_i and concave after it, so the problem is a
    sum of sigmoids under one budget (Udell & Boyd, "Maximizing a Sum of
    Sigmoids"). Two facts reduce it to a few concave problems:

    - Some optimal support (set of transmitting users) is closed under
      dominance (closed_supports). If j transmits and a user i with
      gamma_i >= gamma_j and eps_i >= eps_j does not, moving j's power to i
      at p_j * gamma_j / gamma_i gives i the same SNR at a Qinv no larger,
      for no more power; each such exchange moves the support earlier in
      closed_supports' order, so repeating it ends on a closed support.
    - A user alone on the budget does best at 0 or at p_max: its slope has
      the sign of 1 - Qinv / (sqrt(L) (1+s) sqrt(s(s+2))), which increases
      in s. So the N vertices p_max * e_i and zero power cover every
      support of size 0 or 1.

    Every closed support S of two or more users whose inflection powers
    p_hat_i = s_hat_i / gamma_i fit in the budget is solved at once, as one
    (K, N) array, with every user of S on its concave branch: NEWTON_STEPS
    Newton steps on f_i'(p_i) = lambda (i in S), sum_S p_i = p_max. Their
    Hessian is diagonal plus one border, so a step costs O(|S|) (Boyd &
    Vandenberghe, Convex Optimization, 10.2) and lambda is eliminated:
    with w_i = 1 / f_i''(p_i) < 0, lambda = (sum w_i f_i' - (sum p - p_max))
    / sum w_i and p_i += w_i (lambda - f_i'). Each row starts at p_hat plus
    an equal share of the rest of the budget, and every iterate is kept at
    or above INFLECTION_MARGIN * p_hat. Users off a support sit at that
    floor, a finite point on the concave branch, and are masked out of the
    sums, so nothing overflows or divides by zero. The per-user vectors
    are broadcast to the rows' shape once, before the steps. Each row is
    rescaled onto the budget and scored exactly; a vertex is scored by its
    one user's term, rate_term(gamma_i p_max), since every other term is
    0.0, and zero power by 0.0. The first candidate with the best score is
    returned, in the order rows, vertices, zero power, with that score as
    its rate_sum. converged is False when the winning row's last step moved
    p by more than POWER_TOL, and True for a vertex or zero power.

    The augmented-Lagrangian run that this replaced kept the wrong set of
    transmitting users on about one default trial in five; only its hooked
    names remain (see the module docstring).

    At omega == 0 the objective is identically zero, every feasible p is
    optimal, and water-filling is returned, converged.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.logical_and.reduce((0.0 < eps) & (eps < 0.5)):
        raise ValueError("eps must lie componentwise in (0, 0.5)")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1] for the power subproblem")

    gamma, L, p_max = realization.gamma, realization.block_length, realization.p_max
    qinv = q_inverse(np.maximum(eps, EPS_FLOOR))
    if omega == 0.0:
        p = realization.p_wf
        return PowerSolveResult(p=p, rate_sum=float(_sum(rate_term(gamma * p, L, qinv))), converged=True)

    n = gamma.size
    p_hat = np.array([_inflection_snr(q, L) for q in qinv.tolist()]) / gamma
    floor = INFLECTION_MARGIN * p_hat
    supports = closed_supports(gamma, qinv)
    size = supports.sum(axis=1)
    base = supports @ p_hat
    keep = (size > 1) & (base < p_max)
    supports, size, base = supports[keep], size[keep], base[keep]

    # the per-user vectors at the rows' shape, once: a same-shape operand
    # costs less per op than one broadcast against (K, N)
    per_user = np.empty((4, *supports.shape))
    per_user[...] = np.array([gamma, qinv, gamma * gamma, floor])[:, None]
    gamma_k, qinv_k, gamma2_k, floor_k = per_user

    p = np.maximum(np.where(supports, p_hat + ((p_max - base) / size)[:, None], floor_k), floor_k)
    # a row's full sum less this is sum_S p - p_max: the floors off S are fixed
    held = (~supports) @ floor + p_max
    root_l = math.sqrt(L)
    last = p
    for _ in range(NEWTON_STEPS):
        s = gamma_k * p
        one = 1.0 + s
        u = s * (s + 2.0)
        c = qinv_k / (root_l * one * np.sqrt(u))
        slope = gamma_k * (1.0 - c) / one
        w = np.where(supports, one * one / (gamma2_k * (c * (3.0 + 1.0 / u) - 1.0)), 0.0)
        price = (_sum(w * slope, axis=1) - _sum(p, axis=1) + held) / _sum(w, axis=1)
        last, p = p, np.maximum(p + w * (price[:, None] - slope), floor_k)
    moved = np.abs(p - last).max(axis=1)

    p = np.where(supports, p, 0.0)
    p *= (p_max / _sum(p, axis=1))[:, None]
    # rows, then each vertex's one term (every other user's is 0.0), then zero power
    scores = np.concatenate(
        [_sum(rate_term(gamma_k * p, L, qinv_k), axis=1), rate_term(gamma * p_max, L, qinv), [0.0]]
    )
    best = int(np.argmax(scores))
    if best < size.size:
        return PowerSolveResult(
            p=p[best], rate_sum=float(scores[best]), converged=bool(moved[best] <= POWER_TOL)
        )
    p = np.zeros(n)
    if best < size.size + n:
        p[best - size.size] = p_max
    return PowerSolveResult(p=p, rate_sum=float(scores[best]), converged=True)


def simplex_grid(n_users, p_max, points) -> np.ndarray:
    """All points of the per-axis grid on [0, p_max]^n with sum <= p_max
    (slight tolerance so the budget face itself is included), in
    lexicographic order, built from the in-budget index tuples alone."""
    if n_users > 3:
        raise ValueError("simplex_grid is guarded to n_users <= 3")
    axis = np.linspace(0.0, p_max, points)
    idx = np.zeros((1, 0), dtype=int)
    for _ in range(n_users):
        # each prefix extends by every next index keeping its sum <= points - 1
        counts = points - idx.sum(axis=1)
        nxt = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.column_stack([np.repeat(idx, counts, axis=0), nxt])
    pts = axis[idx]
    return pts[pts.sum(axis=1) <= p_max * (1.0 + 1e-12)]

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

The augmented-Lagrangian solver that solve_power used before (_alm_run,
its inner solver _spg with _armijo, update_multipliers, StageRecord and
_PowerObjective's value and gradient) is no longer on the solve path. It
is kept, as a plain projected-gradient ALM, only because the benchmark's
hooks wrap these names and report a missing one as absent; it goes when
the benchmark reads counts from the results instead.

Also provides the water-filling and equal-power baselines and the
Shannon-sum-rate normalizer sr_infinity.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import EPS_FLOOR, dispersion_coeff, q_inverse, rate_term

# augmented-Lagrangian outer loop
MU0 = 1.0
ZETA0 = 0.15
MAX_STAGES = 30
POWER_TOL = 1e-6      # inf-norm change of p between stages, or Newton steps
FEAS_TOL = 1e-8       # allowed budget violation at convergence
PROJECT_TOL = 1e-6    # worst violation still projected to feasibility

# projected-gradient inner solver
INNER_TOL = 1e-6      # projected-gradient norm target
INNER_MAX_ITER = 500
ARMIJO = 1e-4

# exact solve on the dominance-closed supports
INFLECTION_STEPS = 6      # Newton steps in log s for each inflection point
NEWTON_STEPS = 6          # bordered Newton steps on every support at once
INFLECTION_MARGIN = 1.001 # iterates stay at or above this multiple of p_hat

# stand-in for the infinite dispersion slope at exactly zero power; large
# enough to pin the component at the boundary, finite so 0 * BIG == 0
_BIG_SLOPE = 1e30

# the ufunc reduction behind np.sum, called without np.sum's wrapper
_sum = np.add.reduce


@dataclass
class StageRecord:
    stage: int
    mu: float
    zeta: float
    p: np.ndarray
    delta_p: float
    violation: float
    inner_iterations: int
    inner_converged: bool


@dataclass
class PowerSolveResult:
    p: np.ndarray
    rate_sum: float  # sum of each user's rate_term at p: unscaled, no log(L)/L
    trace: list = field(default_factory=list)
    converged: bool = False
    violation: float = 0.0
    projected: bool = False


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


class _PowerObjective:
    """Augmented-Lagrangian value and gradient of the retired solver, with
    the per-call invariants (gains, inverse-Q of the fixed error
    probabilities, scaling) set once; nothing changes after __init__.

    value(p, mu, zeta) is the scaled rate sum minus
    (1/2mu) * [max(0, zeta - mu*(P_max - sum p))^2 - zeta^2]; grad() is its
    analytic gradient in p."""

    def __init__(self, realization, eps, omega):
        self.gamma = realization.gamma
        self.L = realization.block_length
        self.p_max = realization.p_max
        self.qinv = q_inverse(np.maximum(np.asarray(eps, dtype=float), EPS_FLOOR))
        self.scale = omega / realization.sr_inf

    def rate_sum(self, p):
        """Rate objective at p before its scaling, with no penalty."""
        return float(_sum(rate_term(self.gamma * p, self.L, self.qinv)))

    def value(self, p, mu, zeta):
        v = max(0.0, zeta - mu * (self.p_max - float(_sum(p))))
        return self.scale * self.rate_sum(p) - (v * v - zeta * zeta) / (2.0 * mu)

    def grad(self, p, mu, zeta):
        s = self.gamma * p
        one = 1.0 + s
        disp = dispersion_coeff(s, self.L)
        positive = disp > 0.0
        safe = np.where(positive, disp, 1.0)
        slope = np.where(positive, self.qinv * self.gamma / (self.L * one**3 * safe), _BIG_SLOPE)
        v = max(0.0, zeta - mu * (self.p_max - float(_sum(p))))
        return self.scale * (self.gamma / one - slope) - v


def _projected_residual(p, g):
    """Gradient projected onto feasible ascent directions of {p >= 0}."""
    return np.where(p > 0.0, g, np.maximum(g, 0.0))


def _armijo(obj, mu, zeta, p, f, g, step):
    """Backtracking on max(p + eta * g, 0) from eta = step, halving while
    eta >= 1e-18, until value() passes the Armijo test against the gradient
    g; returns (p_trial, f_trial, eta), or None when no trial passes or the
    projected move stops rising along g."""
    eta = step
    while eta >= 1e-18:
        p_trial = np.maximum(p + eta * g, 0.0)
        gd = float(g.dot(p_trial - p))
        if gd <= 0.0:
            return None
        f_trial = obj.value(p_trial, mu, zeta)
        if f_trial >= f + ARMIJO * gd:
            return p_trial, f_trial, eta
        eta *= 0.5
    return None


def _spg(obj, mu, zeta, p_init):
    """Inner maximization of one ALM stage from a nonnegative p_init by
    spectral projected-gradient steps (Barzilai-Borwein trial step with
    Armijo halving); returns (p, converged, iterations), converged False
    when the projected-gradient tolerance was not met within the cap or the
    line search failed. Users at zero power are pinned there by _BIG_SLOPE
    in the gradient. Part of the retired solver: the name and the return
    stay because benchmarks/hooks.py wraps _spg by name and reads its
    iteration count."""
    p = p_init
    f = obj.value(p, mu, zeta)
    g = obj.grad(p, mu, zeta)
    alpha = 1.0
    s_prev = y_prev = None
    converged = False
    it = 0
    for it in range(1, INNER_MAX_ITER + 1):
        pg = _projected_residual(p, g)
        pg_max = float(np.abs(pg).max())
        # max first: near p = 0 a slope of 1e161 would overflow pg.dot(pg)
        if pg_max <= INNER_TOL and math.sqrt(pg.dot(pg)) <= INNER_TOL:
            converged = True
            break
        if s_prev is not None:
            sy = float(s_prev.dot(y_prev))
            if sy < 0.0:
                alpha = -float(s_prev.dot(s_prev)) / sy
            else:
                alpha *= 2.0
        else:
            alpha = 1.0 / max(pg_max, 1e-12)
        alpha = min(max(alpha, 1e-16), 1e12)
        step = _armijo(obj, mu, zeta, p, f, g, alpha)
        if step is None:
            break
        p_trial, f_trial, alpha = step
        g_trial = obj.grad(p_trial, mu, zeta)
        s_prev, y_prev = p_trial - p, g_trial - g
        p, f, g = p_trial, f_trial, g_trial
    return p, converged, it


def update_multipliers(mu, zeta, slack):
    """Multiplier and penalty update between stages, given the budget slack
    P_max - sum p: zeta <- max(0, zeta - mu*slack), mu <- 2*mu, uncapped:
    a run starts at MU0 and stops within MAX_STAGES stages, so mu stays
    below MU0 * 2^MAX_STAGES. Returns (mu, zeta)."""
    return 2.0 * mu, max(0.0, zeta - mu * slack)


def _alm_run(obj, realization, p_init) -> PowerSolveResult:
    """One multiplier-method run from a given nonnegative starting point."""
    mu, zeta = MU0, ZETA0
    p = p_init
    trace = []
    converged = False
    for stage in range(MAX_STAGES):
        p_new, inner_ok, iters = _spg(obj, mu, zeta, p)
        delta = float(np.abs(p_new - p).max())
        total = float(_sum(p_new))
        slack = realization.p_max - total
        violation = max(0.0, -slack)
        trace.append(StageRecord(stage, mu, zeta, p_new, delta, violation, iters, inner_ok))
        mu, zeta = update_multipliers(mu, zeta, slack)
        p = p_new
        if inner_ok and delta <= POWER_TOL and violation <= FEAS_TOL:
            converged = True
            break

    projected = 0.0 < violation <= PROJECT_TOL
    if projected:
        p = p * (realization.p_max / total)
        violation = 0.0
    return PowerSolveResult(
        p=p, rate_sum=obj.rate_sum(p), trace=trace, converged=converged, violation=violation,
        projected=projected,
    )


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
    sums, so nothing overflows or divides by zero. Each row is rescaled
    onto the budget and scored exactly next to the vertices and zero power,
    and the first with the best rate sum is returned. converged is False
    when the winning row's last step moved p by more than POWER_TOL.

    The augmented-Lagrangian run that this replaced kept the wrong set of
    transmitting users on about one default trial in five; its code stays
    in the module only for the benchmark's hooks (see the module docstring).

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

    p = np.maximum(np.where(supports, p_hat + ((p_max - base) / size)[:, None], floor), floor)
    # a row's full sum less this is sum_S p - p_max: the floors off S are fixed
    held = (~supports) @ floor + p_max
    root_l, gamma2 = math.sqrt(L), gamma * gamma
    last = p
    for _ in range(NEWTON_STEPS):
        s = gamma * p
        one = 1.0 + s
        u = s * (s + 2.0)
        c = qinv / (root_l * one * np.sqrt(u))
        slope = gamma * (1.0 - c) / one
        w = np.where(supports, one * one / (gamma2 * (c * (3.0 + 1.0 / u) - 1.0)), 0.0)
        price = (_sum(w * slope, axis=1) - _sum(p, axis=1) + held) / _sum(w, axis=1)
        last, p = p, np.maximum(p + w * (price[:, None] - slope), floor)
    moved = np.abs(p - last).max(axis=1)

    p = np.where(supports, p, 0.0)
    p *= (p_max / _sum(p, axis=1))[:, None]
    candidates = np.vstack([p, np.eye(n) * p_max, np.zeros((1, n))])
    best = int(np.argmax(_sum(rate_term(gamma * candidates, L, qinv), axis=1)))
    p = candidates[best]
    converged = best >= size.size or bool(moved[best] <= POWER_TOL)
    return PowerSolveResult(p=p, rate_sum=float(_sum(rate_term(gamma * p, L, qinv))), converged=converged)


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

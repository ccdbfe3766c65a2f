"""Power allocation for fixed error probabilities.

The budgeted rate maximization is non-concave (the dispersion penalty has a
square-root kink at zero power), so it is solved with the augmented
Lagrangian method: repeated inner maximizations of the penalized objective
with the multiplier and penalty parameter updated between stages. Projected
gradient ascent with a Barzilai-Borwein trial step and Armijo backtracking
(halving) handles each inner problem; only the sum-power constraint is
penalized, nonnegativity is kept by projection.

Also provides the water-filling and equal-power baselines and the
Shannon-sum-rate normalizer sr_infinity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import EPS_FLOOR, dispersion_coeff, q_inverse, rate_term

# augmented-Lagrangian outer loop
MU0 = 1.0
ZETA0 = 0.15
MU_CAP = 1e12
MAX_STAGES = 30
POWER_TOL = 1e-6      # inf-norm change of p between stages
FEAS_TOL = 1e-8       # allowed budget violation at convergence
PROJECT_TOL = 1e-6    # worst violation still projected to feasibility

# projected-gradient inner solver
INNER_TOL = 1e-6      # projected-gradient norm target
INNER_MAX_ITER = 500
ARMIJO = 1e-4

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
    the powers sum to p_max. Exact active-set solve, no iteration."""
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma > 0) or not p_max > 0:
        raise ValueError("gains and p_max must be positive")
    inv = 1.0 / gamma
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    csum = np.cumsum(inv_sorted)
    level = 0.0
    for m in range(gamma.size, 0, -1):
        level = (p_max + csum[m - 1]) / m
        if level > inv_sorted[m - 1]:
            break
    return np.maximum(level - inv, 0.0)


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
    """Augmented-Lagrangian value/gradient with per-call invariants cached
    (gains, inverse-Q of the fixed error probabilities, scaling, and the
    slope pieces that do not depend on p).

    value(p, mu, zeta) is the scaled rate sum minus
    (1/2mu) * [max(0, zeta - mu*(P_max - sum p))^2 - zeta^2]; grad() is its
    analytic gradient in p. value() keeps the SNR vector, the dispersion
    vector and the power sum it computes; grad() on the same array object
    reuses them, so the gradient at an accepted point costs no second
    evaluation, and neither does the next stage's start. Callers must not
    write into p between the calls."""

    def __init__(self, realization, eps, omega, sr_inf):
        self.gamma = realization.gamma
        self.L = realization.block_length
        self.p_max = realization.p_max
        self.qinv = q_inverse(np.maximum(np.asarray(eps, dtype=float), EPS_FLOOR))
        self.scale = omega / sr_inf
        self._qinv_gamma = self.qinv * self.gamma
        self._at = None  # (p, s, disp, sum p) of the last value() call

    def rate_sum(self, p):
        """Rate objective at p before its scaling, with no penalty."""
        return float(_sum(rate_term(self.gamma * p, self.L, self.qinv)))

    def _point(self, p):
        """(p, SNR, dispersion, sum p) at p; the last value() call's tuple
        when p is the array it was called on."""
        at = self._at
        if at is None or at[0] is not p:
            s = self.gamma * p
            at = (p, s, dispersion_coeff(s, self.L), float(_sum(p)))
        return at

    def value(self, p, mu, zeta):
        self._at = self._point(p)
        _, s, disp, total = self._at
        rate = self.scale * float(_sum(rate_term(s, self.L, self.qinv, disp)))
        v = max(0.0, zeta - mu * (self.p_max - total))
        return rate - (v * v - zeta * zeta) / (2.0 * mu)

    def grad(self, p, mu, zeta):
        _, s, disp, total = self._point(p)
        one = 1.0 + s
        positive = disp > 0.0
        safe = np.where(positive, disp, 1.0)
        slope = np.where(positive, self._qinv_gamma / (self.L * one**3 * safe), _BIG_SLOPE)
        v = max(0.0, zeta - mu * (self.p_max - total))
        return self.scale * (self.gamma / one - slope) - v


def _projected_residual(p, g):
    """Gradient projected onto feasible ascent directions of {p >= 0}."""
    return np.where(p > 0.0, g, np.maximum(g, 0.0))


def _spg(obj, mu, zeta, p_init):
    """Projected gradient ascent with BB trial step and Armijo halving, from
    a nonnegative p_init; returns (p, converged, iterations), converged False
    when the projected-gradient tolerance was not met within the cap."""
    p = p_init
    f = obj.value(p, mu, zeta)
    g = obj.grad(p, mu, zeta)
    alpha = 1.0
    s_prev = y_prev = None
    converged = False
    it = 0
    for it in range(1, INNER_MAX_ITER + 1):
        pg = _projected_residual(p, g)
        if math.sqrt(pg.dot(pg)) <= INNER_TOL:
            converged = True
            break
        if s_prev is not None:
            sy = float(s_prev.dot(y_prev))
            if sy < 0.0:
                alpha = -float(s_prev.dot(s_prev)) / sy
            else:
                alpha *= 2.0
        else:
            alpha = 1.0 / max(float(np.abs(pg).max()), 1e-12)
        alpha = min(max(alpha, 1e-16), 1e12)

        eta = alpha
        accepted = False
        while eta >= 1e-18:
            p_trial = np.maximum(p + eta * g, 0.0)
            d = p_trial - p
            gd = float(g.dot(d))
            if gd == 0.0:
                break
            f_trial = obj.value(p_trial, mu, zeta)
            if f_trial >= f + ARMIJO * gd:
                g_trial = obj.grad(p_trial, mu, zeta)
                s_prev, y_prev = d, g_trial - g
                p, f, g = p_trial, f_trial, g_trial
                alpha = eta
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
    return p, converged, it


def update_multipliers(mu, zeta, slack):
    """Multiplier and penalty update between stages, given the budget slack
    P_max - sum p: zeta <- max(0, zeta - mu*slack), mu <- 2*mu (capped at
    MU_CAP). Returns (mu, zeta)."""
    zeta_next = max(0.0, zeta - mu * slack)
    mu_next = min(2.0 * mu, MU_CAP)
    return mu_next, zeta_next


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
        if delta <= POWER_TOL and violation <= FEAS_TOL:
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


def solve_power(realization, eps, omega, sr_inf, p_init=None) -> PowerSolveResult:
    """Augmented-Lagrangian outer loop for the fixed-error power subproblem.

    Stages alternate an inner maximization with the multiplier update until
    the power vector stalls (inf-norm change <= POWER_TOL) with the budget
    violation below FEAS_TOL, or the stage cap is reached. A tiny residual
    violation (<= PROJECT_TOL) is removed by scaling onto the budget.

    The dispersion penalty's square-root kink makes switching a user off a
    separate basin that projected ascent cannot enter, so the method restarts
    from each single-user vertex and from all-zero power in addition to the
    water-filling (or warm) start, and keeps the best feasible rate
    objective. For two users this covers every support pattern, including
    transmitting nothing when every rate would come out negative. The warm
    start is projected onto p >= 0 first. The all-zero start stays at zero
    (see below), so some start always ends within budget; if none does,
    ArithmeticError is raised.

    Support invariant: a user at zero power in a run's start has gradient
    about -_BIG_SLOPE (Qinv(eps) > 0 on the whole domain of eps), so every
    trial step leaves it at exactly zero for the whole run, and exact zeros
    change no sum, dot product or maximum. A run, and the rate objective of
    its result, therefore depend only on its start vector, on Qinv(eps) over
    the start's support and on omega / sr_inf (the realization fixed); so
    does its rate_sum, since users at zero power add exactly 0.0 to it.
    Reuse rule: each generated start (a vertex or zero; never the warm
    start) is run once per realization; the result is kept in
    realization.alm_runs under exactly those values, and a later call with
    the same key takes it from there. The kept result is then shared between
    calls, so its p is read-only (as is the water-filling allocation
    returned with omega == 0).

    With omega == 0 the objective is identically zero and the water-filling
    allocation is returned as the deterministic tie-break.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all((0.0 < eps) & (eps < 0.5)):
        raise ValueError("eps must lie componentwise in (0, 0.5)")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")

    obj = _PowerObjective(realization, eps, omega, sr_inf)
    if omega == 0.0:
        p = realization.p_wf
        return PowerSolveResult(p=p, rate_sum=obj.rate_sum(p), trace=[], converged=True)

    n = realization.n_users
    starts = [realization.p_wf if p_init is None else np.maximum(p_init, 0.0)]
    for i in range(n):
        vertex = np.zeros(n)
        vertex[i] = realization.p_max
        if (vertex != starts[0]).any():
            starts.append(vertex)
    if starts[0].any():
        starts.append(np.zeros(n))

    runs = [_alm_run(obj, realization, starts[0])]
    memo = realization.alm_runs
    for p0 in starts[1:]:
        key = (p0.tobytes(), obj.qinv[p0 != 0.0].tobytes(), obj.scale)
        if key not in memo:
            run = _alm_run(obj, realization, p0)
            run.p.flags.writeable = False  # shared by every call that reuses it
            memo[key] = run
        runs.append(memo[key])
    feasible = [run for run in runs if run.violation <= PROJECT_TOL]
    if not feasible:
        raise ArithmeticError("no power-solve start ended within the budget")
    return max(feasible, key=lambda run: obj.scale * run.rate_sum)


def simplex_grid(n_users, p_max, points) -> np.ndarray:
    """All points of the per-axis grid on [0, p_max]^n with sum <= p_max
    (slight tolerance so the budget face itself is included)."""
    if n_users > 3:
        raise ValueError("simplex_grid is guarded to n_users <= 3")
    axis = np.linspace(0.0, p_max, points)
    if n_users == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * n_users), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[pts.sum(axis=1) <= p_max * (1.0 + 1e-12)]


def power_grid_oracle(realization, eps, omega, sr_inf, points=300):
    """Best scaled rate objective over a simplex grid; brute-force reference
    for solve_power. Returns (p, objective value)."""
    pts = simplex_grid(realization.n_users, realization.p_max, points)
    qinv = q_inverse(np.maximum(np.asarray(eps, dtype=float), EPS_FLOOR))
    terms = rate_term(pts * realization.gamma, realization.block_length, qinv)
    vals = (omega / sr_inf) * np.sum(terms, axis=1)
    best = int(np.argmax(vals))
    return pts[best], float(vals[best])

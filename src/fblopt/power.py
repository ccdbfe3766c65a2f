"""Power allocation for fixed error probabilities.

The budgeted rate maximization is non-concave (the dispersion penalty has a
square-root kink at zero power), so it is solved with the augmented
Lagrangian method: repeated inner maximizations of the penalized objective
with the multiplier and penalty parameter updated between stages. Only the
sum-power constraint is penalized; nonnegativity is kept by projection.

Each inner iteration (_spg) first tries a projected Newton step on the
transmitting users (Bertsekas 1982). There the Hessian is diag(h) minus the
penalty's mu * 11^T, so the step costs O(N) by Sherman-Morrison, and it is
taken when every h is negative (each user past its rate term's inflection
point). Otherwise, or when its Armijo backtracking fails, a spectral
projected-gradient step (Barzilai-Borwein trial step, Armijo halving) is
taken. _spg keeps its name and its (p, converged, iterations) return from
the gradient-only solver, because the benchmark's hooks wrap it.

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

    def __init__(self, realization, eps, omega):
        self.gamma = realization.gamma
        self.L = realization.block_length
        self.p_max = realization.p_max
        self.qinv = q_inverse(np.maximum(np.asarray(eps, dtype=float), EPS_FLOOR))
        self.scale = omega / realization.sr_inf
        self._qinv_gamma = self.qinv * self.gamma
        self._scale_gamma2 = self.scale * self.gamma**2
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

    def inverse_curvature(self, p):
        """1/h, where h = scale * gamma^2 * r''(s) is the diagonal of the
        scaled rate sum's Hessian, on the users with p > 0 and positive
        dispersion (grad's positive mask) and 0 elsewhere; None unless every
        such h is negative. Read from the held point. With u = s(s+2) and
        t = L*u*(1+s)*disp (= sqrt(L) * u^1.5, and 0 off the mask),

            r''(s) = -1/(1+s)^2 + Qinv * [3/(L (1+s)^4 disp) + 1/(L^2 (1+s)^6 disp^3)]
                   = (Qinv * (3u + 1) - t * (1+s)) / (t * (1+s)^3),

        so only the numerator's sign is tested, and nothing is divided by a
        quantity that can underflow to zero: off the mask it is Qinv > 0."""
        _, s, disp, _ = self._point(p)
        one = 1.0 + s
        u = s * (s + 2.0)
        t = self.L * u * one * disp
        num = self.qinv * (3.0 * u + 1.0) - t * one
        if ((p > 0.0) & (disp > 0.0) & (num >= 0.0)).any():
            return None
        return t * one**3 / (self._scale_gamma2 * num)

    def newton_direction(self, p, g, mu, zeta):
        """Newton direction for the gradient g at p on the users of
        inverse_curvature's mask (zero elsewhere), or None when the Hessian
        there is not negative definite. That Hessian is diag(h) - mu * 11^T,
        the rank-one term only while the penalty is active
        (zeta - mu * (P_max - sum p) > 0); with x = g/h, Sherman-Morrison
        gives d = -(x + mu / (1 - mu * sum 1/h) * (1/h) * sum x)."""
        c = self.inverse_curvature(p)
        if c is None:
            return None
        x = g * c
        if zeta - mu * (self.p_max - self._point(p)[3]) > 0.0:
            x = x + (mu / (1.0 - mu * float(_sum(c))) * float(_sum(x))) * c
        return -x


def _projected_residual(p, g):
    """Gradient projected onto feasible ascent directions of {p >= 0}."""
    return np.where(p > 0.0, g, np.maximum(g, 0.0))


def _armijo(obj, mu, zeta, p, f, g, direction, step):
    """Backtracking on max(p + eta * direction, 0) from eta = step, halving
    while eta >= 1e-18, until value() passes the Armijo test against the
    gradient g; returns (p_trial, f_trial, eta), or None when no trial
    passes or the projected move stops rising along g."""
    eta = step
    while eta >= 1e-18:
        p_trial = np.maximum(p + eta * direction, 0.0)
        gd = float(g.dot(p_trial - p))
        if gd <= 0.0:
            return None
        f_trial = obj.value(p_trial, mu, zeta)
        if f_trial >= f + ARMIJO * gd:
            return p_trial, f_trial, eta
        eta *= 0.5
    return None


def _spg(obj, mu, zeta, p_init):
    """Inner maximization of one ALM stage from a nonnegative p_init;
    returns (p, converged, iterations), converged False when the
    projected-gradient tolerance was not met within the cap.

    Each iteration first tries a projected Newton step on the transmitting
    users (obj.newton_direction, searched from t = 1 by halving), and falls
    back to the spectral projected-gradient step (Barzilai-Borwein trial
    step with Armijo halving) when the Hessian there is not negative
    definite or that search fails. Users at zero power are outside the
    Newton step and pinned by _BIG_SLOPE in the gradient step, so they stay
    at exactly zero. The name and the return are kept from the
    gradient-only solver, because benchmarks/hooks.py wraps _spg by name
    and reads its iteration count."""
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
        d = obj.newton_direction(p, g, mu, zeta)
        step = None if d is None else _armijo(obj, mu, zeta, p, f, g, d, 1.0)
        if step is None:
            if s_prev is not None:
                sy = float(s_prev.dot(y_prev))
                if sy < 0.0:
                    alpha = -float(s_prev.dot(s_prev)) / sy
                else:
                    alpha *= 2.0
            else:
                alpha = 1.0 / max(pg_max, 1e-12)
            alpha = min(max(alpha, 1e-16), 1e12)
            step = _armijo(obj, mu, zeta, p, f, g, g, alpha)
            if step is None:
                break
            alpha = step[2]
        p_trial, f_trial, _ = step
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


def solve_power(realization, eps, omega, p_init=None) -> PowerSolveResult:
    """Augmented-Lagrangian outer loop for the fixed-error power subproblem.

    Stages alternate an inner maximization with the multiplier update until
    a converged inner solve leaves the power vector still (inf-norm change
    <= POWER_TOL) with the budget violation below FEAS_TOL, or the stage cap
    is reached. A tiny residual violation (<= PROJECT_TOL) is removed by
    scaling onto the budget.

    One run starts from water-filling, or from the warm start projected onto
    p >= 0. A user at zero power in that start has gradient about
    -_BIG_SLOPE (Qinv(eps) > 0 on the whole domain of eps), so every trial
    step leaves it at exactly zero for the whole run: the run can switch
    users off but never on.

    The allocations with at most one transmitting user are scored in closed
    form instead: with s = gamma * p, a user's rate term
    f(p) = log(1+s) - Qinv(eps) * sqrt(s(s+2)/L) / (1+s) has a slope with
    the sign of 1 - Qinv(eps) / (sqrt(L) (1+s) sqrt(s(s+2))), which
    increases in s, so a user alone on the budget does best at 0 or at
    p_max. Of the run (if it ended within budget), each vertex p_max * e_i
    and all-zero power (best when every rate would come out negative), the
    first with the best rate objective is returned.

    At omega == 0 the objective is identically zero, every feasible p is
    optimal, and the start itself is returned, converged.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all((0.0 < eps) & (eps < 0.5)):
        raise ValueError("eps must lie componentwise in (0, 0.5)")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1] for the power subproblem")

    obj = _PowerObjective(realization, eps, omega)
    n = realization.n_users
    start = realization.p_wf if p_init is None else np.maximum(p_init, 0.0)
    if omega == 0.0:
        return PowerSolveResult(p=start, rate_sum=obj.rate_sum(start), converged=True)
    run = _alm_run(obj, realization, start)
    candidates = [run] if run.violation <= PROJECT_TOL else []
    for vertex in np.eye(n) * realization.p_max:
        candidates.append(PowerSolveResult(p=vertex, rate_sum=obj.rate_sum(vertex), converged=True))
    candidates.append(PowerSolveResult(p=np.zeros(n), rate_sum=0.0, converged=True))
    return max(candidates, key=lambda c: obj.scale * c.rate_sum)


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

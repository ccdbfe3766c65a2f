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


@dataclass
class AugLagState:
    """Multiplier-method state: penalty mu, multiplier zeta, current power
    vector, and the stage counter."""

    mu: float
    zeta: float
    p: np.ndarray
    stage: int = 0


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
    trace: list = field(default_factory=list)
    converged: bool = False
    violation: float = 0.0
    projected: bool = False
    infeasible: bool = False  # every start ended over budget


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


def sr_infinity(gamma, p_max) -> float:
    """Shannon sum rate under water-filling; normalizes the rate objective
    and upper-bounds it for every feasible allocation."""
    gamma = np.asarray(gamma, dtype=float)
    return float(np.sum(np.log1p(gamma * water_filling(gamma, p_max))))


class _PowerObjective:
    """Augmented-Lagrangian value/gradient with per-call invariants cached
    (gains, inverse-Q of the fixed error probabilities, scaling)."""

    def __init__(self, realization, eps, omega, sr_inf):
        self.gamma = realization.gamma
        self.L = realization.block_length
        self.p_max = realization.p_max
        self.qinv = q_inverse(np.maximum(np.asarray(eps, dtype=float), EPS_FLOOR))
        self.scale = omega / sr_inf

    def rate_value(self, p):
        """Scaled rate objective (the quantity being maximized), no penalty."""
        return self.scale * float(np.sum(rate_term(self.gamma * p, self.L, self.qinv)))

    def value(self, p, mu, zeta):
        v = max(0.0, zeta - mu * (self.p_max - float(np.sum(p))))
        return self.rate_value(p) - (v * v - zeta * zeta) / (2.0 * mu)

    def grad(self, p, mu, zeta):
        s = self.gamma * p
        one = 1.0 + s
        disp = dispersion_coeff(s, self.L)
        safe = np.where(disp > 0.0, disp, 1.0)
        slope = np.where(
            disp > 0.0,
            self.qinv * self.gamma / (self.L * one**3 * safe),
            np.where(self.qinv > 0.0, _BIG_SLOPE, 0.0),
        )
        v = max(0.0, zeta - mu * (self.p_max - float(np.sum(p))))
        return self.scale * (self.gamma / one - slope) - v


def augmented_lagrangian(p, realization, eps, omega, sr_inf, mu, zeta) -> float:
    """Value of the augmented Lagrangian at p: the scaled rate sum minus
    (1/2mu) * [max(0, zeta - mu*(P_max - sum p))^2 - zeta^2]."""
    obj = _PowerObjective(realization, eps, omega, sr_inf)
    return obj.value(np.asarray(p, dtype=float), mu, zeta)


def augmented_lagrangian_grad(p, realization, eps, omega, sr_inf, mu, zeta) -> np.ndarray:
    """Analytic gradient of augmented_lagrangian in p."""
    obj = _PowerObjective(realization, eps, omega, sr_inf)
    return obj.grad(np.asarray(p, dtype=float), mu, zeta)


def _projected_residual(p, g):
    """Gradient projected onto feasible ascent directions of {p >= 0}."""
    return np.where(p > 0.0, g, np.maximum(g, 0.0))


def _spg(obj, mu, zeta, p_init):
    """Projected gradient ascent with BB trial step and Armijo halving."""
    p = np.maximum(np.asarray(p_init, dtype=float), 0.0)
    f = obj.value(p, mu, zeta)
    g = obj.grad(p, mu, zeta)
    alpha = 1.0
    s_prev = y_prev = None
    converged = False
    it = 0
    for it in range(1, INNER_MAX_ITER + 1):
        pg = _projected_residual(p, g)
        if float(np.linalg.norm(pg)) <= INNER_TOL:
            converged = True
            break
        if s_prev is not None:
            sy = float(np.dot(s_prev, y_prev))
            if sy < 0.0:
                alpha = -float(np.dot(s_prev, s_prev)) / sy
            else:
                alpha *= 2.0
        else:
            alpha = 1.0 / max(float(np.max(np.abs(pg))), 1e-12)
        alpha = min(max(alpha, 1e-16), 1e12)

        eta = alpha
        accepted = False
        while eta >= 1e-18:
            p_trial = np.maximum(p + eta * g, 0.0)
            d = p_trial - p
            gd = float(np.dot(g, d))
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


def inner_maximize(realization, eps, omega, sr_inf, mu, zeta, p_init):
    """Maximize the augmented Lagrangian over p >= 0 for fixed mu, zeta.

    Returns (p, converged, iterations); converged is False when the
    projected-gradient tolerance was not met within the iteration cap.
    """
    obj = _PowerObjective(realization, eps, omega, sr_inf)
    return _spg(obj, mu, zeta, p_init)


def update_multipliers(state: AugLagState, realization) -> AugLagState:
    """Multiplier and penalty update between stages:
    zeta <- max(0, zeta - mu*(P_max - sum p)), mu <- 2*mu (capped at MU_CAP)."""
    residual = realization.p_max - float(np.sum(state.p))
    zeta_next = max(0.0, state.zeta - state.mu * residual)
    mu_next = min(2.0 * state.mu, MU_CAP)
    return AugLagState(mu=mu_next, zeta=zeta_next, p=state.p, stage=state.stage + 1)


def _alm_run(obj, realization, p_init) -> PowerSolveResult:
    """One multiplier-method run from a given starting point."""
    p_prev = np.asarray(p_init, dtype=float)
    state = AugLagState(mu=MU0, zeta=ZETA0, p=p_prev, stage=0)
    trace = []
    converged = False
    for _ in range(MAX_STAGES):
        p_new, inner_ok, iters = _spg(obj, state.mu, state.zeta, state.p)
        delta = float(np.max(np.abs(p_new - p_prev)))
        violation = max(0.0, float(np.sum(p_new)) - realization.p_max)
        trace.append(
            StageRecord(
                stage=state.stage,
                mu=state.mu,
                zeta=state.zeta,
                p=p_new.copy(),
                delta_p=delta,
                violation=violation,
                inner_iterations=iters,
                inner_converged=inner_ok,
            )
        )
        state = update_multipliers(
            AugLagState(mu=state.mu, zeta=state.zeta, p=p_new, stage=state.stage),
            realization,
        )
        p_prev = p_new
        if delta <= POWER_TOL and violation <= FEAS_TOL:
            converged = True
            break

    p_final = p_prev.copy()
    violation = max(0.0, float(np.sum(p_final)) - realization.p_max)
    projected = False
    if 0.0 < violation <= PROJECT_TOL:
        p_final *= realization.p_max / float(np.sum(p_final))
        violation = 0.0
        projected = True
    return PowerSolveResult(
        p=p_final,
        trace=trace,
        converged=converged,
        violation=violation,
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
    transmitting nothing when every rate would come out negative.
    If no start ends within budget, the warm-start run is returned with
    infeasible set.

    With omega == 0 the objective is identically zero and the water-filling
    allocation is returned as the deterministic tie-break.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all((0.0 < eps) & (eps < 0.5)):
        raise ValueError("eps must lie componentwise in (0, 0.5)")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")

    if omega == 0.0:
        p = water_filling(realization.gamma, realization.p_max)
        return PowerSolveResult(p=p, trace=[], converged=True)

    n = realization.n_users
    starts = [
        np.asarray(p_init, dtype=float)
        if p_init is not None
        else water_filling(realization.gamma, realization.p_max)
    ]
    for i in range(n):
        vertex = np.zeros(n)
        vertex[i] = realization.p_max
        if not np.array_equal(vertex, starts[0]):
            starts.append(vertex)
    if np.any(starts[0] != 0.0):
        starts.append(np.zeros(n))

    obj = _PowerObjective(realization, eps, omega, sr_inf)
    runs = [_alm_run(obj, realization, p0) for p0 in starts]
    feasible = [r for r in runs if r.violation <= PROJECT_TOL]
    if not feasible:
        # every start ended over budget, which the all-zero start (pinned at
        # zero by the kink) prevents today; report the warm-start run, flagged
        runs[0].infeasible = True
        return runs[0]
    return max(feasible, key=lambda r: obj.rate_value(r.p))


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

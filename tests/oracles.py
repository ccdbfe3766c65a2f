"""Brute-force and exact references the tests check the solvers against.

None of these is part of the system: the error subproblem's objective, its
KKT-residual checker and log-grid oracle check optimal_errors; the simplex
grid oracle and the support enumeration check solve_power; the level
objective checks solve_joint at a given shared error level.
"""

import itertools
import math

import numpy as np

from fblopt.error_assignment import _SQRT_2PI, errors_at_level
from fblopt.joint import weighted_objective
from fblopt.kernels import EPS_FLOOR, dispersion_coeff, q_inverse, rate_term
from fblopt.oracle import simplex_grid, z_sweep
from fblopt.power import solve_power

# absolute tolerance for detecting active constraints in the KKT checker
_ACTIVE_TOL = 1e-11


def subproblem_objective(realization, p, profile, omega, eps) -> float:
    """Value of the fixed-power error objective at eps (original order)."""
    eps = np.maximum(np.asarray(eps, dtype=float), EPS_FLOOR)
    a = dispersion_coeff(realization.gamma * np.asarray(p), realization.block_length)
    cost = (omega / realization.sr_inf) * float(np.sum(a * q_inverse(eps)))
    return cost + (1.0 - omega) / profile.eps_max_overall * float(eps.max())


def kkt_residual(eps, realization, p, profile, omega) -> float:
    """Max absolute residual of the subproblem's KKT system at an error
    vector eps (original order), whose max is the shared level z.

    Multipliers are rebuilt from the active-set structure: lambda_i for the
    eps_i <= z couplings, nu_i for the caps, eta for z <= cap_N. Slots where
    both constraints are active get their stationarity weight split so the
    z-stationarity equation is matched as closely as possible.
    """
    n = realization.n_users
    eps_s = np.asarray(eps, dtype=float)[profile.index]
    caps = np.asarray(profile.eps_max_sorted)
    z = float(np.max(eps))
    a = dispersion_coeff(
        (realization.gamma * np.asarray(p, dtype=float))[profile.index],
        realization.block_length,
    )
    y = q_inverse(np.maximum(eps_s, EPS_FLOOR))
    weight = (omega / realization.sr_inf) * a * _SQRT_2PI * np.exp(0.5 * y * y)

    lam_active = (z - eps_s) <= _ACTIVE_TOL
    nu_active = (caps - eps_s) <= _ACTIVE_TOL
    eta_free = (profile.eps_max_overall - z) <= _ACTIVE_TOL

    lam = np.zeros(n)
    nu = np.zeros(n)
    lam_only = lam_active & ~nu_active
    nu_only = nu_active & ~lam_active
    flexible = lam_active & nu_active
    lam[lam_only] = weight[lam_only]
    nu[nu_only] = weight[nu_only]

    target = (1.0 - omega) / profile.eps_max_overall
    need = target - float(lam.sum())
    for i in np.flatnonzero(flexible):
        take = min(max(need, 0.0), weight[i])
        lam[i] = take
        nu[i] = weight[i] - take
        need -= take
    eta = max(0.0, float(lam.sum()) - target) if eta_free else 0.0

    inactive = ~lam_active & ~nu_active
    residuals = [
        # stationarity in eps: -weight + lam + nu = 0
        float(np.max(np.abs(-weight + lam + nu))) if n else 0.0,
        # stationarity in z
        abs(target - float(lam.sum()) + eta),
        # complementary slackness
        float(np.max(lam * np.abs(z - eps_s))),
        float(np.max(nu * np.abs(caps - eps_s))),
        eta * abs(profile.eps_max_overall - z),
        # primal feasibility
        float(np.max(np.maximum(eps_s - z, 0.0))),
        float(np.max(np.maximum(eps_s - caps, 0.0))),
        max(z - profile.eps_max_overall, 0.0),
        float(np.max(np.maximum(-eps_s, 0.0))),
    ]
    # slots touching neither constraint violate stationarity outright
    if np.any(inactive):
        residuals.append(float(np.max(weight[inactive])))
    return max(residuals)


def grid_search_errors(realization, p, profile, omega, points_per_user=10_000):
    """Brute-force oracle: minimize the error subproblem over per-user log
    grids on (EPS_FLOOR, cap_i], exactly over their product via z_sweep.

    Returns (eps in original order, objective value).
    """
    a = dispersion_coeff(realization.gamma * np.asarray(p), realization.block_length)
    c = (omega / realization.sr_inf) * a
    d = (1.0 - omega) / profile.eps_max_overall

    grids, z_cand, idx, feasible = z_sweep(profile.caps, points_per_user)
    total = d * z_cand
    for i, g in enumerate(grids):
        total += (c[i] * q_inverse(g))[idx[i]]

    total[~feasible] = np.inf
    best = int(np.argmin(total))
    eps = np.array([g[idx[i, best]] for i, g in enumerate(grids)])
    return eps, subproblem_objective(realization, p, profile, omega, eps)


def power_grid_oracle(realization, eps, omega, points=300):
    """Best scaled rate objective over a simplex grid; brute-force reference
    for solve_power. Returns (p, objective value)."""
    pts = simplex_grid(realization.n_users, realization.p_max, points)
    qinv = q_inverse(np.maximum(np.asarray(eps, dtype=float), EPS_FLOOR))
    terms = rate_term(pts * realization.gamma, realization.block_length, qinv)
    vals = (omega / realization.sr_inf) * np.sum(terms, axis=1)
    best = int(np.argmax(vals))
    return pts[best], float(vals[best])

# bisection steps, in log s on a user's branch and in log lambda on a root of
# the budget equation: 64 halvings take the widest interval, 770 in log s,
# below 1e-16
_BISECT = 64
# points of the log grid in lambda that brackets the budget equation's roots
_LAMBDA_POINTS = 3000


def _slope(s, qinv, block_length):
    """g'(s) for the rate term g(s) = log(1+s) - qinv * sqrt(s(s+2)/L)/(1+s):
    (1 - qinv / (sqrt(L) (1+s) sqrt(s(s+2)))) / (1+s), for s > 0."""
    one = 1.0 + s
    return (1.0 - qinv / (math.sqrt(block_length) * one * np.sqrt(s * (s + 2.0)))) / one


def _log_bisect(increasing, lo, hi):
    """Elementwise root of increasing(s) on [exp(lo), exp(hi)] by bisection
    in log s; the nearer end where there is no sign change."""
    for _ in range(_BISECT):
        mid = 0.5 * (lo + hi)
        below = increasing(np.exp(mid)) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.exp(0.5 * (lo + hi))


def power_support_oracle(realization, eps):
    """Exact reference for solve_power at fixed eps, by support enumeration
    (Udell & Boyd, "Maximizing a Sum of Sigmoids").

    Each rate term g_i is convex up to its inflection point s_hat_i and
    concave after it, so its slope rises to a peak at s_hat_i and falls
    towards 0. A maximizer with power on a support S spends the whole budget
    (a zero slope lies on the convex branch), and the second-order condition
    on the budget face allows at most one user of S on the convex branch.
    So for every support S, with every user on the concave branch or exactly
    one on the convex branch, the roots in the budget price lambda of
    sum_S p_i(lambda) = p_max, where f_i'(p_i) = lambda, are bracketed on a
    log grid and refined by bisection. Each root is rescaled onto the budget
    and scored exactly, next to the N vertices and zero power.

    Returns (p, rate sum), the rate sum unscaled as in PowerSolveResult.
    """
    gamma = realization.gamma
    n, L, p_max = gamma.size, realization.block_length, realization.p_max
    qinv = q_inverse(np.maximum(np.asarray(eps, dtype=float), EPS_FLOOR))

    # inflection: sqrt(L) u^1.5 (1+s) = qinv (3u+1), u = s(s+2); the ratio
    # of the two sides increases in s
    def excess(s):
        u = s * (s + 2.0)
        return math.sqrt(L) * u**1.5 * (1.0 + s) / (3.0 * u + 1.0) - qinv

    s_hat = _log_bisect(excess, np.full(n, -70.0), np.full(n, 70.0))
    peak = gamma * _slope(s_hat, qinv, L)
    # below this price every concave-branch user wants more than p_max
    floor = np.min(gamma * _slope(np.maximum(s_hat, gamma * p_max), qinv, L))

    def powers(lam):
        """Each user's power at each price in lam (rows) on its concave and
        on its convex branch, capped at p_max, and whether the price is at
        most the user's peak slope, where both branches exist."""
        lam = lam[:, None]
        concave = _log_bisect(
            lambda s: lam - gamma * _slope(s, qinv, L),
            np.log(s_hat), np.log(np.maximum(s_hat, gamma * p_max)),
        )
        convex = _log_bisect(
            lambda s: gamma * _slope(s, qinv, L) - lam,
            np.full(n, -700.0), np.log(np.minimum(s_hat, gamma * p_max)),
        )
        return np.minimum(concave / gamma, p_max), np.minimum(convex / gamma, p_max), lam <= peak

    # one row per (support, its convex user or none): the users on each branch
    rows = [
        (support - convex, convex)
        for support in np.array(list(itertools.product((0.0, 1.0), repeat=n)))[1:]
        for convex in [np.zeros(n), *np.eye(n)[support > 0]]
    ]
    on_concave, on_convex = (np.array(side) for side in zip(*rows))

    def allocations(lam, concave, convex):
        """Row b's powers at price lam[b], each user on the branch that row b
        of concave and convex picks (neither for a user off the support)."""
        p_cc, p_cv, _ = powers(lam)
        return p_cc * concave + p_cv * convex

    grid = np.unique(np.concatenate([np.geomspace(0.5 * floor, peak.max(), _LAMBDA_POINTS), peak]))
    p_cc, p_cv, valid = powers(grid)
    gap = p_cc @ on_concave.T + p_cv @ on_convex.T - p_max
    gap[~valid @ (on_concave + on_convex).T > 0.0] = np.nan
    # brackets: grid interval m where config k's gap changes sign
    m, k = np.nonzero(gap[:-1] * gap[1:] < 0.0)
    concave, convex = on_concave[k], on_convex[k]
    lo, hi = np.log(grid[m]), np.log(grid[m + 1])
    lo_sign = np.sign(gap[m, k])
    for _ in range(_BISECT):
        mid = 0.5 * (lo + hi)
        p = allocations(np.exp(mid), concave, convex)
        same = np.sign(p.sum(axis=1) - p_max) == lo_sign
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    roots = allocations(np.exp(0.5 * (lo + hi)), concave, convex)

    candidates = np.vstack([
        roots * (p_max / roots.sum(axis=1, keepdims=True)),
        np.eye(n) * p_max,
        np.zeros((1, n)),
    ])
    values = np.sum(rate_term(candidates * gamma, L, qinv), axis=1)
    best = int(np.argmax(values))
    return candidates[best], float(values[best])


def level_objective(realization, profile, z, omega) -> float:
    """Joint objective at the shared error level z: every user at
    min(cap_i, z), with the exact power solve at those errors."""
    eps = errors_at_level(profile, z)
    rate_sum = solve_power(realization, eps, omega).rate_sum
    return weighted_objective(omega, rate_sum, realization.sr_inf, float(eps.max()), profile.eps_max_overall)

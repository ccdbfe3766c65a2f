"""Alternating joint optimization of error probabilities and powers,
normalized objective evaluation, throughput metric, and the exhaustive
grid-search oracle used to validate the solver at small user counts.
"""

from dataclasses import dataclass, field

import numpy as np

from .error_assignment import optimal_errors, z_sweep
from .kernels import EPS_FLOOR, dispersion_coeff, length_offset, q_inverse, rate_term
from .power import simplex_grid, solve_power

MAX_ALTERNATIONS = 50
EPS_TOL = 1e-9        # inf-norm change of eps between alternations


@dataclass
class SolveReport:
    """A joint decision point, powers p and error probabilities eps both in
    original user order, with its objective and metrics."""

    p: np.ndarray
    eps: np.ndarray
    objective: float
    u1: float
    u2: float
    sum_rate: float
    max_eps: float
    throughput: float
    iterations: int
    trace: list = field(default_factory=list)
    flags: list = field(default_factory=list)


@dataclass(frozen=True)
class OracleGrid:
    p_points: int = 200
    eps_points: int = 200

    def __post_init__(self):
        if self.p_points < 1 or self.eps_points < 1:
            raise ValueError(f"oracle grid points must be >= 1: {self.p_points}, {self.eps_points}")


def u2(max_eps, eps_max_overall) -> float:
    """Normalized reliability objective (cap_N - max_eps) / cap_N."""
    return (eps_max_overall - max_eps) / eps_max_overall


def weighted_objective(omega, rate_sum, sr_inf, max_eps, eps_max_overall) -> float:
    """omega * U1 + (1 - omega) * U2, where U1 = rate_sum / sr_inf is the
    normalized rate objective: the sum of each user's rate_term, which
    deliberately leaves out the log(L)/L offset (constant in the decision
    variables; reported rates include it)."""
    return omega * (rate_sum / sr_inf) + (1.0 - omega) * u2(max_eps, eps_max_overall)


def sum_throughput(rates, eps) -> float:
    """Sum of rate * success probability, with negative rates clamped to
    zero (a negative rate is a normal-approximation artifact, not physical
    throughput)."""
    r = np.maximum(np.asarray(rates, dtype=float), 0.0)
    return float(np.sum(r * (1.0 - np.asarray(eps, dtype=float))))


def make_report(
    realization,
    profile,
    p,
    eps,
    omega,
    iterations=1,
    trace=None,
    flags=None,
) -> SolveReport:
    """Assemble a SolveReport for any feasible allocation. One inversion of
    eps (clamped to EPS_FLOOR) gives each user's rate_term; the reported
    rates add log(L)/L (kernels.achievable_rate, possibly negative), and u1
    and the objective take the terms' sum."""
    p = np.asarray(p, dtype=float)
    eps = np.asarray(eps, dtype=float)
    qinv = q_inverse(np.maximum(eps, EPS_FLOOR))
    terms = rate_term(realization.gamma * p, realization.block_length, qinv)
    rates = terms + length_offset(realization.block_length)
    rate_sum = float(np.sum(terms))
    max_eps = float(np.max(eps))
    sr_inf = realization.sr_inf
    return SolveReport(
        p=p,
        eps=eps,
        objective=weighted_objective(omega, rate_sum, sr_inf, max_eps, profile.eps_max_overall),
        u1=rate_sum / sr_inf,
        u2=u2(max_eps, profile.eps_max_overall),
        sum_rate=float(np.sum(rates)),
        max_eps=max_eps,
        throughput=sum_throughput(rates, eps),
        iterations=iterations,
        trace=trace or [],
        flags=flags or [],
    )


def _alternate(realization, profile, omega, p0):
    """One alternation run from a given initial power vector. Returns
    (best objective, best p, best eps, trace, flags, iterations)."""
    p = np.asarray(p0, dtype=float)
    z_prev = None
    p_prev = p
    best = None
    trace = []
    flags = []
    converged = False
    iterations = 0

    for t in range(1, MAX_ALTERNATIONS + 1):
        iterations = t
        eps = optimal_errors(realization, p, profile, omega)
        z = float(eps.max())
        power = solve_power(realization, eps, omega)
        if not power.converged and "power_stage_cap" not in flags:
            flags.append("power_stage_cap")
        p = power.p
        obj = weighted_objective(
            omega, power.rate_sum, realization.sr_inf, z, profile.eps_max_overall
        )
        # every eps_i = min(cap_i, z) moves by at most |dz|, the loosest by |dz|
        d_eps = abs(z - z_prev) if z_prev is not None else np.inf
        d_p = float(np.max(np.abs(p - p_prev)))
        trace.append((obj, d_eps, d_p))
        if len(trace) > 1 and obj < trace[-2][0] - 1e-6:
            if "objective_decreased" not in flags:
                flags.append("objective_decreased")
        if best is None or obj > best[0]:
            best = (obj, p.copy(), eps)
        z_prev = z
        p_prev = p
        if d_eps <= EPS_TOL:
            converged = True
            break

    if not converged:
        flags.append("not_converged")
    return best[0], best[1], best[2], trace, flags, iterations


def solve_joint(realization, profile, omega) -> SolveReport:
    """Alternate the closed-form error assignment and the exact power solve
    at its errors, from water-filling, until the error vector stalls
    (inf-norm <= EPS_TOL) or the alternation cap is reached, keeping the
    best iterate, not necessarily the last.

    Block updates cannot cross into the silent basin (where foregoing rate
    buys the full reliability reward), and on weak channels the silent
    point can win jointly even though each block prefers to transmit given
    the other. So zero power and each vertex p_max * e_i are also scored
    with their optimal errors (the floor errors at zero power). The best
    over eps of the quasi-convex rate terms (see solve_power) is still
    quasi-convex in p, so these cover every allocation with at most one
    transmitting user. The best of them (the first on ties) is returned,
    flagged "silent_start", if it beats the alternation strictly.

    At omega = 0, the pure reliability regime, the solvers' own limits
    decide: every error probability sits at the floor, solve_power returns
    water-filling, and no corner beats it strictly.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    if profile.n_users != realization.n_users:
        raise ValueError("profile and realization disagree on user count")

    _, p, eps, trace, flags, iterations = _alternate(realization, profile, omega, realization.p_wf)
    best = make_report(
        realization, profile, p, eps, omega, iterations=iterations, trace=trace, flags=flags
    )
    n = realization.n_users
    for p in [np.zeros(n), *np.eye(n) * realization.p_max]:
        eps = optimal_errors(realization, p, profile, omega)
        corner = make_report(realization, profile, p, eps, omega, flags=["silent_start"])
        if corner.objective > best.objective:
            best = corner
    return best


def exhaustive_oracle(realization, profile, omega, grid=None):
    """Best weighted objective over the Cartesian product of a power simplex
    grid and per-user log error grids. Guarded to N <= 3 users.

    The error part is maximized exactly for each power point by sweeping the
    max level z over the union of the user grids (z_sweep), which attains the
    same maximum as enumerating the full product grid (verified against
    naive enumeration in the tests).

    Returns the make_report of the best grid point.
    """
    grid = grid or OracleGrid()
    n = realization.n_users
    if n > 3:
        raise ValueError("exhaustive_oracle is guarded to 3 users or fewer")
    if profile.n_users != n:
        raise ValueError("profile and realization disagree on user count")

    grids, z_cand, idx, feasible = z_sweep(profile.caps, grid.eps_points)
    nz = z_cand.size
    qbest = np.array([q_inverse(g[ix]) for g, ix in zip(grids, idx)])

    # column value pieces independent of p
    z_term = (1.0 - omega) * (1.0 - z_cand / profile.eps_max_overall)
    z_term[~feasible] = -np.inf

    pts = simplex_grid(n, realization.p_max, grid.p_points)
    best_val = -np.inf
    best_p = None
    best_zi = None
    chunk = 4096
    for lo in range(0, pts.shape[0], chunk):
        block = pts[lo : lo + chunk]
        s = block * realization.gamma
        a = dispersion_coeff(s, realization.block_length)
        logsum = np.sum(np.log1p(s), axis=1)
        vals = (omega / realization.sr_inf) * (logsum[:, None] - a @ qbest) + z_term[None, :]
        flat = int(np.argmax(vals))
        row, col = divmod(flat, nz)
        if vals[row, col] > best_val:
            best_val = float(vals[row, col])
            best_p = block[row].copy()
            best_zi = col

    eps = np.array([g[idx[i, best_zi]] for i, g in enumerate(grids)])
    return make_report(realization, profile, best_p, eps, omega)

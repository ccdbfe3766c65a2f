"""Alternating joint optimization of error probabilities and powers,
normalized objective evaluation and the throughput metric.
"""

from dataclasses import dataclass, field

import numpy as np

from .error_assignment import check_inputs, corner_levels, errors_at_level, optimal_errors
from .kernels import EPS_FLOOR, q_inverse, rate_term
from .power import solve_power

MAX_ALTERNATIONS = 50
EPS_TOL = 1e-9        # inf-norm change of eps between alternations

# the ufunc reductions behind np.sum and np.max, called without their wrappers
_sum, _max = np.add.reduce, np.maximum.reduce


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
    return float(_sum(r * (1.0 - np.asarray(eps, dtype=float))))


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
    rates = terms + realization.length_offset
    rate_sum = float(_sum(terms))
    max_eps = float(_max(eps))
    sr_inf = realization.sr_inf
    return SolveReport(
        p=p,
        eps=eps,
        objective=weighted_objective(omega, rate_sum, sr_inf, max_eps, profile.eps_max_overall),
        u1=rate_sum / sr_inf,
        u2=u2(max_eps, profile.eps_max_overall),
        sum_rate=float(_sum(rates)),
        max_eps=max_eps,
        throughput=sum_throughput(rates, eps),
        iterations=iterations,
        trace=trace or [],
        flags=flags or [],
    )


def _alternate(realization, profile, omega):
    """One alternation run from water-filling. Returns
    (best objective, best p, best eps, trace, flags, iterations).

    The power problem is solved only when the level z differs from the
    previous round's: at the same z, bit for bit, the error vector is the
    same, so that round's solve is reused, and the round still adds its
    trace row."""
    p = realization.p_wf
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
        z = float(_max(eps))
        if z != z_prev:
            power = solve_power(realization, eps, omega)
        if not power.converged and "power_stage_cap" not in flags:
            flags.append("power_stage_cap")
        p = power.p
        obj = weighted_objective(
            omega, power.rate_sum, realization.sr_inf, z, profile.eps_max_overall
        )
        # every eps_i = min(cap_i, z) moves by at most |dz|, the loosest by |dz|
        d_eps = abs(z - z_prev) if z_prev is not None else np.inf
        d_p = float(_max(np.abs(p - p_prev)))
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
    transmitting user. Their levels come from corner_levels, the error
    assignment's own scan fed each vertex's branch levels, and they are
    scored from their objectives alone, the same bits as their reports':
    a vertex's rate sum is its one user's term, and zero power's is 0.

    One list is scored: the alternation's best objective, then zero power,
    then the N vertices. Its first maximum wins, so a corner must beat the
    alternation strictly, and the winner alone gets a report, a corner's
    flagged "silent_start". At omega = 0 every error sits at the floor and
    solve_power returns water-filling, which no corner beats strictly.
    """
    check_inputs(realization, profile, omega)
    objective, p, eps, trace, flags, iterations = _alternate(realization, profile, omega)
    levels = corner_levels(realization, profile, omega)
    # each vertex's rate_term at its own level, from the realization's halves
    qinv = q_inverse(errors_at_level(profile, np.array(levels[1:])))
    terms = realization.vertex_log1p - realization.vertex_dispersion * qinv
    # a corner's max eps is its level, which never exceeds cap_N
    corners = weighted_objective(
        omega, np.append(0.0, terms), realization.sr_inf, np.array(levels), profile.eps_max_overall
    )
    k = int(np.argmax(np.append(objective, corners)))
    if k:
        p = np.zeros(realization.n_users)
        if k > 1:
            p[k - 2] = realization.p_max
        eps = errors_at_level(profile, levels[k - 1])
        trace, flags, iterations = [], ["silent_start"], 1
    return make_report(
        realization, profile, p, eps, omega, iterations=iterations, trace=trace, flags=flags
    )

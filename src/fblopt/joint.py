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
# 0-d float64 operands: the same bits as Python floats in a ufunc call, for
# less of numpy's per-call cost
_ZERO, _ONE, _EPS_FLOOR = np.array(0.0), np.array(1.0), np.array(EPS_FLOOR)


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
    r = np.maximum(np.asarray(rates, dtype=float), _ZERO)
    return float(_sum(r * (_ONE - np.asarray(eps, dtype=float))))


def make_report(
    realization,
    profile,
    p,
    eps,
    omega,
    iterations=1,
    flags=None,
) -> SolveReport:
    """Assemble a SolveReport for any feasible allocation. One inversion of
    eps (clamped to EPS_FLOOR) gives each user's rate_term; the reported
    rates add log(L)/L (kernels.achievable_rate, possibly negative), and u1
    and the objective take the terms' sum."""
    p = np.asarray(p, dtype=float)
    eps = np.asarray(eps, dtype=float)
    qinv = q_inverse(np.maximum(eps, _EPS_FLOOR))
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
        flags=flags or [],
    )


def _alternate(realization, profile, omega):
    """One alternation run from water-filling. Returns
    (best objective, best p, best eps, flags, converged, rounds).

    A round whose level z equals the previous round's, bit for bit, has
    the same error vector, so its power solve would repeat the last one:
    the run ends there, converged, before any solve. Otherwise it ends
    converged once z moves by at most EPS_TOL (every eps_i = min(cap_i, z)
    moves by at most |dz|), or unconverged after MAX_ALTERNATIONS rounds."""
    p = realization.p_wf
    z_prev = best = None
    flags = []
    for rounds in range(1, MAX_ALTERNATIONS + 1):
        eps = optimal_errors(realization, p, profile, omega)
        z = float(_max(eps))
        if z == z_prev:
            return (*best, flags, True, rounds)
        power = solve_power(realization, eps, omega)
        if not power.converged and "power_stage_cap" not in flags:
            flags.append("power_stage_cap")
        p = power.p
        obj = weighted_objective(
            omega, power.rate_sum, realization.sr_inf, z, profile.eps_max_overall
        )
        if best is None or obj > best[0]:
            best = (obj, p, eps)
        if z_prev is not None and abs(z - z_prev) <= EPS_TOL:
            return (*best, flags, True, rounds)
        z_prev = z
    return (*best, flags, False, MAX_ALTERNATIONS)


def solve_joint(realization, profile, omega) -> SolveReport:
    """Alternate the closed-form error assignment and the exact power solve
    at its errors, from water-filling, until the shared level z repeats bit
    for bit or moves by at most EPS_TOL, or the alternation cap is reached
    (flagged "not_converged"), keeping the best iterate, not necessarily
    the last.

    Block updates cannot cross into the silent basin (where foregoing rate
    buys the full reliability reward), and on weak channels the silent
    point can win jointly even though each block prefers to transmit given
    the other. So the budget's corners, realization.corners (zero power,
    then each vertex p_max * e_i), are also scored with their optimal
    errors (the floor errors at zero power). The best over eps of the
    quasi-convex rate terms (see solve_power) is still quasi-convex in p,
    so these cover every allocation with at most one transmitting user.
    Their levels come from corner_levels, and they are scored from their
    objectives alone, the same bits as their reports': zero power's rate
    sum is 0, and a vertex's is its one user's term.

    One list is scored: the alternation's best objective, then the
    corners. Its first maximum wins, so a corner must beat the alternation
    strictly, and the winner alone gets a report, a corner's flagged
    "silent_start" with its read-only row as p. At omega = 0 every error
    sits at the floor and solve_power returns water-filling, which no
    corner beats strictly.
    """
    check_inputs(realization, profile, omega)
    objective, p, eps, flags, converged, iterations = _alternate(realization, profile, omega)
    if not converged:
        flags = [*flags, "not_converged"]
    levels = corner_levels(realization, profile, omega)
    # each vertex's rate_term at its own level, from the realization's halves
    qinv = q_inverse(errors_at_level(profile, np.array(levels[1:])))
    terms = realization.vertex_terms(qinv)
    # a corner's max eps is its level, which never exceeds cap_N
    corners = weighted_objective(
        omega, np.append(0.0, terms), realization.sr_inf, np.array(levels), profile.eps_max_overall
    )
    k = int(np.argmax(np.append(objective, corners)))
    if k:
        p = realization.corners[k - 1]
        eps = errors_at_level(profile, levels[k - 1])
        flags, iterations = ["silent_start"], 1
    return make_report(realization, profile, p, eps, omega, iterations=iterations, flags=flags)

"""The exhaustive grid oracle behind the --oracle rows, for at most
MAX_ORACLE_USERS users.

It scores every point of a power simplex grid against per-user log error
grids and reports the best point through the solver's own make_report. It
is a lower bound on the joint optimum, used to validate solve_joint at
small user counts; no solver path calls it.
"""

from dataclasses import dataclass

import numpy as np

from .error_assignment import check_inputs
from .joint import make_report
from .kernels import EPS_FLOOR, dispersion_coeff, q_inverse

MAX_ORACLE_USERS = 3  # the simplex grid has about points^N / N! points


@dataclass(frozen=True)
class OracleGrid:
    p_points: int = 200
    eps_points: int = 200

    def __post_init__(self):
        if self.p_points < 1 or self.eps_points < 1:
            raise ValueError(f"oracle grid points must be >= 1: {self.p_points}, {self.eps_points}")


def simplex_grid(n_users, p_max, points) -> np.ndarray:
    """All points of the per-axis grid on [0, p_max]^n with sum <= p_max
    (slight tolerance so the budget face itself is included), in
    lexicographic order, built from the in-budget index tuples alone."""
    if n_users > MAX_ORACLE_USERS:
        raise ValueError(f"simplex_grid is guarded to n_users <= {MAX_ORACLE_USERS}")
    axis = np.linspace(0.0, p_max, points)
    idx = np.zeros((1, 0), dtype=int)
    for _ in range(n_users):
        # each prefix extends by every next index keeping its sum <= points - 1
        counts = points - idx.sum(axis=1)
        nxt = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.column_stack([np.repeat(idx, counts, axis=0), nxt])
    pts = axis[idx]
    return pts[pts.sum(axis=1) <= p_max * (1.0 + 1e-12)]


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


def exhaustive_oracle(realization, profile, omega, grid=None):
    """Best weighted objective over the Cartesian product of a power simplex
    grid and per-user log error grids. Guarded to MAX_ORACLE_USERS users.

    The error part is maximized exactly for each power point by sweeping the
    max level z over the union of the user grids (z_sweep), which attains the
    same maximum as enumerating the full product grid (verified against
    naive enumeration in the tests).

    Returns the make_report of the best grid point.
    """
    check_inputs(realization, profile, omega)
    grid = grid or OracleGrid()
    n = realization.n_users
    if n > MAX_ORACLE_USERS:
        raise ValueError(f"exhaustive_oracle is guarded to {MAX_ORACLE_USERS} users or fewer")

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

"""Channel model: per-user average gains from path loss and instantaneous
gains from Rayleigh small-scale fading, with seeded, reproducible sampling.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import EPS_FLOOR, dispersion_coeff, length_offset
from .power import sr_infinity, water_filling

MAX_BLOCK_LENGTH = 2**63 - 1  # numpy's log(L) of a larger int raises TypeError


@dataclass(frozen=True)
class UserLink:
    """One user's propagation parameters and QoS cap.

    kappa: power gain at 1 m, distance in meters, pathloss_exp the path-loss
    exponent, eps_max the per-user block-error-probability cap (must lie in
    [EPS_FLOOR, 0.5): no error probability is solved for below the floor).
    """

    kappa: float
    distance: float
    pathloss_exp: float
    eps_max: float

    def __post_init__(self):
        if not (self.kappa > 0 and self.distance > 0 and self.pathloss_exp > 0):
            raise ValueError("kappa, distance and pathloss_exp must be positive")
        if not EPS_FLOOR <= self.eps_max < 0.5:
            raise ValueError(f"eps_max must lie in [{EPS_FLOOR:g}, 0.5)")


@dataclass(frozen=True)
class NetworkRealization:
    """One cell of a sampled network: gains, power budget and block length.

    gamma holds the normalized channel gains g_i / sigma^2, so gamma_i * p_i
    is user i's received SNR.
    """

    gamma: np.ndarray
    p_max: float
    block_length: int

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        if gamma.ndim != 1 or gamma.size < 1:
            raise ValueError("gamma must be a nonempty 1-D vector")
        # on Python floats: a few users cost less than numpy's per-call cost
        if not all(0.0 < g < math.inf for g in gamma.tolist()):  # NaN fails too
            raise ValueError("gamma entries must be finite and positive")
        if not 0.0 < self.p_max < math.inf:
            raise ValueError("p_max must be positive and finite")
        L = self.block_length
        if not (2 <= L <= MAX_BLOCK_LENGTH and float(L).is_integer()):
            raise ValueError(f"block_length must be an integer in [2, {MAX_BLOCK_LENGTH}]")

    @property
    def n_users(self) -> int:
        return self.gamma.size

    # Per-realization caches below: each is computed once, on first use, and
    # dataclasses.replace builds a new instance that starts them afresh.

    @cached_property
    def p_wf(self) -> np.ndarray:
        """The water-filling allocation (power.water_filling), read-only."""
        p = water_filling(self.gamma, self.p_max)
        p.flags.writeable = False
        return p

    @cached_property
    def sr_inf(self) -> float:
        """Shannon sum rate under water-filling (power.sr_infinity) at p_wf,
        the normalizer of the rate objective; ValueError unless positive."""
        sr_inf = sr_infinity(self.gamma, self.p_max, self.p_wf)
        if not sr_inf > 0.0:
            raise ValueError("sr_inf must be positive")
        return sr_inf

    @cached_property
    def vertex_log1p(self) -> np.ndarray:
        """log1p(gamma * p_max), each user's rate_term half at its vertex
        p_max * e_i that reads no error probability, read-only."""
        out = np.log1p(self.gamma * self.p_max)
        out.flags.writeable = False
        return out

    @cached_property
    def vertex_dispersion(self) -> np.ndarray:
        """dispersion_coeff(gamma * p_max, L), the vertex half that
        multiplies Qinv(eps), read-only."""
        out = dispersion_coeff(self.gamma * self.p_max, self.block_length)
        out.flags.writeable = False
        return out

    @cached_property
    def corners(self) -> np.ndarray:
        """The budget's N+1 corners as the rows of one (N+1, N) array: zero
        power first, then p_max * e_i for each user i in order, read-only."""
        n = self.n_users
        out = np.eye(n + 1, n, -1) * self.p_max
        out.flags.writeable = False
        return out

    def vertex_terms(self, qinv) -> np.ndarray:
        """Each user's rate_term(gamma_i * p_max, L, qinv_i) at its vertex
        p_max * e_i, bit for bit, from the two cached halves."""
        return self.vertex_log1p - self.vertex_dispersion * qinv

    @cached_property
    def length_offset(self) -> float:
        """log(L)/L (kernels.length_offset), added to every reported rate."""
        return length_offset(self.block_length)


def mean_gain(link: UserLink) -> float:
    """Average channel power gain kappa * d^(-pathloss_exp)."""
    return link.kappa * link.distance ** (-link.pathloss_exp)


def sample_realization(links, noise_power, seed=None, fading=True) -> np.ndarray:
    """Draw one realization's normalized gains gamma_i = g_i / sigma^2.

    Small-scale fading multiplies each mean gain by a unit-mean exponential
    power gain theta (Rayleigh-distributed amplitude). With fading=False the
    gains are deterministic (theta = 1). seed is anything
    np.random.default_rng takes, a Generator included; the same seed always
    yields bit-identical output.
    """
    links = tuple(links)
    if not links:
        raise ValueError("links must be nonempty")
    gbar = np.array([mean_gain(l) for l in links])
    if fading:
        theta = np.random.default_rng(seed).exponential(1.0, size=len(links))
    else:
        theta = np.ones(len(links))
    return gbar * theta / noise_power

"""Channel model: per-user average gains from path loss and instantaneous
gains from Rayleigh small-scale fading, with seeded, reproducible sampling.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .power import sr_infinity, water_filling


@dataclass(frozen=True)
class UserLink:
    """One user's propagation parameters and QoS cap.

    kappa: power gain at 1 m, distance in meters, pathloss_exp the path-loss
    exponent, eps_max the per-user block-error-probability cap (must lie
    strictly inside (0, 0.5)).
    """

    kappa: float
    distance: float
    pathloss_exp: float
    eps_max: float

    def __post_init__(self):
        if not (self.kappa > 0 and self.distance > 0 and self.pathloss_exp > 0):
            raise ValueError("kappa, distance and pathloss_exp must be positive")
        if not 0.0 < self.eps_max < 0.5:
            raise ValueError("eps_max must lie in (0, 0.5)")


@dataclass(frozen=True)
class NetworkRealization:
    """A sampled network instance.

    gamma holds the normalized channel gains g_i / sigma^2, so gamma_i * p_i
    is user i's received SNR.
    """

    gamma: np.ndarray
    p_max: float
    block_length: int
    noise_power: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        if self.gamma.ndim != 1 or self.gamma.size < 1:
            raise ValueError("gamma must be a nonempty 1-D vector")
        if not np.all(np.isfinite(self.gamma)) or np.any(self.gamma <= 0):
            raise ValueError("gamma entries must be finite and positive")
        if not 0.0 < self.p_max < np.inf:
            raise ValueError("p_max must be positive and finite")
        if not self.block_length >= 2:
            raise ValueError("block_length must be >= 2")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")

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
        """Shannon sum rate under water-filling (power.sr_infinity) at p_wf."""
        return sr_infinity(self.gamma, self.p_max, self.p_wf)

    @cached_property
    def alm_runs(self) -> dict:
        """Results of power.solve_power's generated starts, kept under its
        reuse rule."""
        return {}


def mean_gain(link: UserLink) -> float:
    """Average channel power gain kappa * d^(-pathloss_exp)."""
    return link.kappa * link.distance ** (-link.pathloss_exp)


def sample_realization(
    links,
    p_max,
    block_length,
    noise_power,
    seed=None,
    rng=None,
    fading=True,
) -> NetworkRealization:
    """Draw one network realization.

    Small-scale fading multiplies each mean gain by a unit-mean exponential
    power gain theta (Rayleigh-distributed amplitude). With fading=False the
    gains are deterministic (theta = 1). Pass either a seed or an existing
    numpy Generator; the same seed always yields bit-identical output.
    """
    links = tuple(links)
    if not links:
        raise ValueError("links must be nonempty")
    gbar = np.array([mean_gain(l) for l in links])
    if fading:
        if rng is None:
            rng = np.random.default_rng(seed)
        theta = rng.exponential(1.0, size=len(links))
    else:
        theta = np.ones(len(links))
    gamma = gbar * theta / noise_power
    return NetworkRealization(
        gamma=gamma,
        p_max=float(p_max),
        block_length=int(block_length),
        noise_power=float(noise_power),
    )

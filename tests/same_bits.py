"""Print one SHA-256 over the solvers' answers, to check that a change
leaves every bit of them alone.

Run it before and after a change, from the repository root:

    PYTHONPATH=src python tests/same_bits.py

Equal digests mean equal bits for:

- scheme_dispatch (p, eps, objective, throughput, sum rate, flags) under
  every scheme, on seeded draws of the default scenario at L in
  {100, 200, 1600}, budgets {0, 6, 12} dB and omega in {0, 0.5, 0.9, 1};
- corner_levels and optimal_errors on random instances with up to 20
  users, whose caps are plain, tied or include one at EPS_FLOOR, at zero
  power, each vertex and random powers.

pytest does not collect this file; it is a probe, not a test.
"""

import hashlib
import json

import numpy as np

from fblopt.channel import NetworkRealization, sample_realization
from fblopt.error_assignment import SortedQosProfile, corner_levels, optimal_errors
from fblopt.harness import SCHEMES, default_config, scheme_dispatch
from fblopt.kernels import EPS_FLOOR

DRAWS = 40
LENGTHS = (100, 200, 1600)
BUDGETS_DB = (0.0, 6.0, 12.0)
OMEGAS = (0.0, 0.5, 0.9, 1.0)
INSTANCES = 1000


def _floats(digest, values):
    digest.update(np.asarray(values, dtype=float).tobytes())


def hash_schemes(digest):
    cfg = default_config()
    profile = SortedQosProfile.from_caps([link.eps_max for link in cfg.links])
    for trial in range(DRAWS):
        gamma = sample_realization(cfg.links, cfg.noise_power, np.random.SeedSequence([cfg.master_seed, trial]))
        for length in LENGTHS:
            for db in BUDGETS_DB:
                r = NetworkRealization(gamma, cfg.p_max_linear(db), length)
                for omega in OMEGAS:
                    for scheme in SCHEMES:
                        rep = scheme_dispatch(scheme, r, profile, omega)
                        _floats(digest, rep.p)
                        _floats(digest, rep.eps)
                        _floats(digest, [rep.objective, rep.throughput, rep.sum_rate])
                        digest.update(json.dumps(rep.flags).encode())


def _instance(rng):
    """Up to 20 users with gains on [1e-3, 1e3], caps log-uniform on
    [EPS_FLOOR, 0.49], tied or with one at the floor, and a random budget,
    length and weight (0 and 1 included)."""
    n = int(rng.integers(1, 21))
    caps = np.exp(rng.uniform(np.log(EPS_FLOOR), np.log(0.49), n))
    kind = rng.integers(3)
    if kind == 1 and n >= 2:
        caps = np.sort(caps)
        caps[1], caps[-2] = caps[0], caps[-1]
        caps = rng.permutation(caps)
    elif kind == 2:
        caps[rng.integers(n)] = EPS_FLOOR
    r = NetworkRealization(
        gamma=10.0 ** rng.uniform(-3.0, 3.0, n),
        p_max=10.0 ** rng.uniform(-1.0, 1.5),
        block_length=int(rng.choice(LENGTHS)),
    )
    omega = float(rng.choice([0.0, 1.0, *rng.uniform(0.0, 1.0, 4)]))
    return r, SortedQosProfile.from_caps(caps), omega


def hash_error_levels(digest):
    rng = np.random.default_rng(2026)
    for _ in range(INSTANCES):
        r, profile, omega = _instance(rng)
        n = r.n_users
        _floats(digest, corner_levels(r, profile, omega))
        powers = [np.zeros(n), *np.eye(n) * r.p_max, rng.dirichlet(np.ones(n)) * r.p_max]
        for p in powers:
            _floats(digest, optimal_errors(r, p, profile, omega))


def main():
    digest = hashlib.sha256()
    hash_schemes(digest)
    hash_error_levels(digest)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()

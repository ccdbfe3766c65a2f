"""Joint error-probability and power optimization for finite-blocklength
multi-user downlinks: closed-form error assignment, augmented-Lagrangian
power allocation, an alternating joint solver, baselines, and grid oracles.
"""

from .kernels import (
    EPS_FLOOR,
    achievable_rate,
    dispersion_coeff,
    q_function,
    q_inverse,
)
from .channel import UserLink, NetworkRealization, mean_gain, sample_realization
from .error_assignment import (
    ErrorAssignment,
    SortedQosProfile,
    beta_k,
    grid_search_errors,
    kkt_residual,
    optimal_errors,
    subproblem_objective,
)
from .power import (
    AugLagState,
    PowerSolveResult,
    augmented_lagrangian,
    augmented_lagrangian_grad,
    equal_power,
    inner_maximize,
    power_grid_oracle,
    simplex_grid,
    solve_power,
    sr_infinity,
    update_multipliers,
    water_filling,
)
from .joint import (
    Allocation,
    OracleGrid,
    SolveReport,
    exhaustive_oracle,
    per_user_rates,
    solve_joint,
    sum_throughput,
    u1,
    u2,
    weighted_objective,
)
from .harness import (
    ResultRow,
    ScenarioConfig,
    default_config,
    emit_csv,
    load_config_file,
    run_scenario,
    scheme_dispatch,
)

__version__ = "0.1.0"

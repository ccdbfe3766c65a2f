"""Joint error-probability and power optimization for finite-blocklength
multi-user downlinks: closed-form error assignment, exact power
allocation for fixed errors, an alternating joint solver, baselines, and,
in fblopt.oracle, the exhaustive grid oracle behind the --oracle rows.
"""

from .kernels import (
    EPS_FLOOR,
    achievable_rate,
    dispersion_coeff,
    q_function,
    q_inverse,
)
from .channel import UserLink, NetworkRealization, mean_gain, sample_realization
from .error_assignment import SortedQosProfile, optimal_errors
from .power import (
    PowerSolveResult,
    equal_power,
    solve_power,
    sr_infinity,
    water_filling,
)
from .joint import (
    SolveReport,
    solve_joint,
    sum_throughput,
    u2,
    weighted_objective,
)
from .oracle import OracleGrid, exhaustive_oracle, simplex_grid
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

import numpy as np
import pytest

import fblopt.power


@pytest.fixture
def over_budget_alm(monkeypatch):
    """Make every augmented-Lagrangian run end 10% over the power budget.

    solve_power must then return one of its closed-form candidates (a
    vertex or zero power), which are within the budget by construction.
    """
    real = fblopt.power._alm_run

    def run(obj, realization, p_init):
        result = real(obj, realization, p_init)
        result.p = np.full(realization.n_users, 1.1 * realization.p_max / realization.n_users)
        result.violation = 0.1 * realization.p_max
        return result

    monkeypatch.setattr(fblopt.power, "_alm_run", run)

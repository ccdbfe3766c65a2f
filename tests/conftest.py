import pytest

import fblopt.power


@pytest.fixture
def one_newton_step(monkeypatch):
    """Stop every support's Newton solve after its first step.

    The rows are then off their KKT points, and over the budget wherever
    the floor above an inflection point bound a user. solve_power must still
    return a point within the budget, scored after that rescaling, and flag
    it as not converged when it won.
    """
    monkeypatch.setattr(fblopt.power, "NEWTON_STEPS", 1)

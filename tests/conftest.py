import numpy as np

from softirl import mdp as mdp_module
from softirl.mdp import TabularMdp

# acceptance criteria append their PASS/FAIL lines here; printed after capture
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def random_mdp(rng: np.random.Generator, n_states: int, n_actions: int,
               gamma: float) -> TabularMdp:
    """Dense random MDP with Dirichlet(1) transition rows."""
    t = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    return TabularMdp(t, gamma)


def random_policy(rng: np.random.Generator, n_states: int, n_actions: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n_actions), size=n_states)


def toggle_mdp(gamma: float = 0.5) -> TabularMdp:
    """Two states, action 0 stays, action 1 toggles, deterministically."""
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = t[1, 0, 1] = 1.0  # stay
    t[0, 1, 1] = t[1, 1, 0] = 1.0  # toggle
    return TabularMdp(t, gamma)


def count_solves(monkeypatch) -> list:
    """A list that gains one entry per run of the soft value-iteration loop
    that `soft_value_iteration` makes."""
    calls, solve = [], mdp_module._soft_value_iteration

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mdp_module, "_soft_value_iteration", counted)
    return calls

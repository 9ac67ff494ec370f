"""Shared test helpers and pytest hooks.

`decay_model` and `EXCITED` are the decaying qubit most test files use;
`random_model` draws a random (S, L, H) and `random_beta` a complex beta.
`martingale_test` and `bias_ensemble_records` are the innovations check
and its negative control; `riccati_steady_state` is the Kalman-Bucy
oracle.
The hook collects acceptance-criterion lines and prints them in the
terminal summary, so each criterion shows one pass/fail line even when
output capturing is on.
"""

import numpy as np

from qfilter import ensemble, trajectory
from qfilter.linalg import SIGMA_MINUS, random_hermitian, random_matrix, random_unitary
from qfilter.model import HPModel

ACCEPTANCE_LINES = []

EXCITED = np.array([[1, 0], [0, 0]], dtype=complex)


def decay_model(gamma=1.0):
    return HPModel(
        S=np.eye(2, dtype=complex),
        L=np.sqrt(gamma) * SIGMA_MINUS,
        H=np.zeros((2, 2), dtype=complex),
    )


def random_model(rng: np.random.Generator, dim: int) -> HPModel:
    """S, L and H drawn in that order: random unitary, matrix and Hermitian."""
    return HPModel(random_unitary(rng, dim), random_matrix(rng, dim), random_hermitian(rng, dim))


def random_beta(rng: np.random.Generator) -> complex:
    return rng.standard_normal() + 1j * rng.standard_normal()


def martingale_test(columns: dict, n_traj: int, z_max: float = 4.0):
    """Zero-mean check of the innovations at the checkpoints of `run_ensemble`'s columns.

    Passes iff max |mean(I_t)| / stderr <= z_max.  Requires N >= 100 for
    the normal approximation to be meaningful.
    """
    if n_traj < 100:
        raise ValueError("martingale test needs at least 100 trajectories")
    z = ensemble.innovations_z(columns)
    return bool(np.max(np.abs(z)) <= z_max), z


def bias_ensemble_records(monkeypatch, bias: float) -> None:
    """Make `run_ensemble` add bias dt to every quadrature dY it draws.

    The record is then no longer the filter's own, so its innovations
    drift: the negative control of the martingale test.
    """

    def biased(rng, kind, grid):
        return trajectory.draw_noise(rng, kind, grid) + bias * grid.dt

    monkeypatch.setattr(ensemble, "draw_noise", biased)


def riccati_steady_state(a: float, c: float, sigma: float) -> float:
    """Fixed point of the scalar Riccati equation: (a + sqrt(a^2 + c^2 sigma^2)) / c^2."""
    return (a + np.sqrt(a**2 + c**2 * sigma**2)) / c**2


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

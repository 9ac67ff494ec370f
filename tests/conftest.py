"""Shared test helpers and pytest hooks.

`decay_model` and `EXCITED` are the decaying qubit most test files use.
The hook collects acceptance-criterion lines and prints them in the
terminal summary, so each criterion shows one pass/fail line even when
output capturing is on.
"""

import numpy as np

from qfilter.linalg import SIGMA_MINUS
from qfilter.model import HPModel

ACCEPTANCE_LINES = []

EXCITED = np.array([[1, 0], [0, 0]], dtype=complex)


def decay_model(gamma=1.0):
    return HPModel(
        S=np.eye(2, dtype=complex),
        L=np.sqrt(gamma) * SIGMA_MINUS,
        H=np.zeros((2, 2), dtype=complex),
    )


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

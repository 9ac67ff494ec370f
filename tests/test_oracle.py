"""The Euler filter against the exact posterior of QND models (`oracles.qnd_table`).

On every case, d = 2 ... 6 and each measurement kind, the median error of
the final populations must fall at every refinement of dt, and its fitted
order must reach the gate set from the theory, below Euler's strong order
1/2 for quadrature (Kloeden & Platen 1992, section 10.2) and its order 1
for counting.  Diverged paths count in the median with error inf and are
named in a failure; none of these cases has one.
"""

import numpy as np
import pytest

from conftest import qnd_model
from oracles import QND_DIMS, fitted_order, qnd_table, replay_errors
from qfilter.trajectory import COUNTING, QUADRATURE

ORDER_GATE = {QUADRATURE: 0.4, COUNTING: 0.8}


@pytest.mark.parametrize("dim", QND_DIMS)
@pytest.mark.parametrize("kind", [QUADRATURE, COUNTING])
def test_euler_filter_converges_to_the_exact_qnd_posterior(kind, dim):
    rows = qnd_table(kind, dim, seed=dim)
    dts, errors, diverged, doubles = zip(*rows)
    table = f"dt {dts}, median errors {errors}, diverged {diverged}, two-click cells {doubles}"
    assert all(a > b for a, b in zip(errors, errors[1:])), table
    assert fitted_order(dts, errors) >= ORDER_GATE[kind], table


def test_paths_that_diverge_or_raise_count_with_error_inf_in_their_place():
    # Path 1 is driven off trace 1 (dY = 0.5 a step, as in test_trajectory), and
    # path 2's nan increment fails its batch, so every path is replayed alone.
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    increments = np.zeros((64, 4))
    increments[:, 1] = 0.5
    increments[5, 2] = np.nan
    exact = np.full((4, 3), 1 / 3)
    model, b = qnd_model(), 0.6 + 0.3j
    errors, diverged = replay_errors(model, QUADRATURE, b, rho0, 1.0, increments, exact)
    alone, _ = replay_errors(model, QUADRATURE, b, rho0, 1.0, increments[:, [0, 3]], exact[:2])
    assert diverged == 2
    assert np.isinf(errors[1:3]).all()
    assert errors[[0, 3]].tobytes() == alone.tobytes()

"""The Euler filter against the exact posterior of QND models (`oracles.qnd_table`).

On every case, d = 2 ... 6 and each measurement kind, the median error of
the final populations must fall at every refinement of dt, and its fitted
order must reach the gate set from the theory, below Euler's strong order
1/2 for quadrature (Kloeden & Platen 1992, section 10.2) and its order 1
for counting.  Diverged paths count in the median with error inf and are
named in a failure; none of these cases has one.

`integrate_master` is gated against the closed form of the averaged
dynamics of a QND model (`oracles.diagonal_master`), within RK4's global
error: under a constant beta, whose path is filled by repeated squaring,
and under a samples beta whose samples start on grid points, stepped one
RK4 polynomial product at a time.
"""

import numpy as np
import pytest

from conftest import qnd_model
from oracles import (
    QND_DIMS,
    diagonal_master,
    diagonal_rates,
    fitted_order,
    qnd_model as random_qnd_model,
    qnd_table,
    replay_errors,
)
from qfilter.linalg import random_density
from qfilter.master import TimeGrid, integrate_master
from qfilter.model import CoherentInput
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


def rk4_bound(kappa, rho, duration, dt):
    """RK4's global error bound on rho_ij' = kappa_ij rho_ij over `duration`, entry by entry.

    A step misses e^z, z = kappa dt, by about |z|^5 / 120, and |e^z| <= 1 here,
    so the step errors add up to duration |kappa|^5 dt^4 / 120 |rho_ij|; 1.5
    covers the higher terms (|z| < 0.1) and 1e-13 the rounding, which alone
    moves the populations (kappa_ii = 0).
    """
    return 1.5 * duration * np.abs(kappa) ** 5 * dt**4 / 120 * np.abs(rho) + 1e-13


def test_integrate_master_matches_the_closed_form_of_a_qnd_model():
    # T = 1 in 64 steps, max |kappa| about 4.7.  Under the samples beta each
    # sample lasts 16 steps and is compared from the state at its first grid
    # point: the step that ends on a sample boundary takes its last stage at the
    # next sample, an O(dt) error (about 1e-4 here) that the closed form,
    # integrating beta itself, does not share.
    rng = np.random.default_rng(3)
    model, b = random_qnd_model(rng, 4, 2.0)
    rho0 = random_density(rng, 4)
    grid = TimeGrid(dt=2.0**-6, steps=64)
    states = integrate_master(model, CoherentInput.constant(b), rho0, grid)
    error = np.abs(states - diagonal_master(model, b, rho0, grid.times()))
    assert (error <= rk4_bound(diagonal_rates(model, b), rho0, grid.times()[-1], grid.dt)).all()

    values, n = [b, 0.3j - 0.5 * b, 0.8j * b, 0.2], 16
    beta = CoherentInput.piecewise(0.0, n * grid.dt, values)
    states = integrate_master(model, beta, rho0, grid)
    for j, v in enumerate(values):
        start, durations = states[j * n], grid.times()[:n]
        exact = diagonal_master(model, v, start, durations)
        bound = rk4_bound(diagonal_rates(model, v), start, durations[-1], grid.dt)
        assert (np.abs(states[j * n : (j + 1) * n] - exact) <= bound).all(), j

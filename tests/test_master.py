import numpy as np
import pytest

from conftest import EXCITED, decay_model
from qfilter.linalg import (
    NumericalError,
    max_norm,
    random_density,
    random_hermitian,
    random_matrix,
    random_unitary,
    trace_distance,
)
from qfilter.master import (
    StepSizeError,
    TimeGrid,
    at,
    drift_superoperator,
    hermitian,
    integrate_master,
)
from qfilter.model import CoherentInput, HPModel, adjoint_generator

GROUND = np.array([[0, 0], [0, 1]], dtype=complex)
GAP_TOL = 1e-8  # steady_state: a second singular value this small is degenerate


class DegenerateSteadyStateError(NumericalError):
    """The generator's null space is not one-dimensional."""


def steady_state(model: HPModel, beta_value: complex) -> np.ndarray:
    """Unique stationary density matrix of the constant-beta generator."""
    # The coordinates of rho are the left null vector of the row-form generator.
    _, svals, vh = np.linalg.svd(at(drift_superoperator(model), beta_value).T)
    if len(svals) > 1 and svals[-2] <= GAP_TOL:
        raise DegenerateSteadyStateError(
            f"null space is degenerate (second singular value {svals[-2]:.3e})"
        )
    d = model.dim
    rho = hermitian(vh[-1].reshape(d, d))
    return rho / np.trace(rho)


def test_time_grid():
    grid = TimeGrid.from_duration(dt=0.1, duration=1.0)
    assert grid.steps == 10
    assert np.allclose(grid.times(), np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        TimeGrid(dt=-0.1, steps=10)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.1, steps=0)
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            TimeGrid(dt=dt, steps=3)
    for steps in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            TimeGrid(dt=0.1, steps=steps)
    assert TimeGrid(dt=0.1, steps=np.int64(3)).times()[-1] == pytest.approx(0.3)


def test_vacuum_decay_matches_exponential():
    gamma = 1.3
    grid = TimeGrid.from_duration(dt=1e-3, duration=2.0)
    states = integrate_master(decay_model(gamma), CoherentInput.constant(0.0), EXCITED, grid)
    pe = np.trace(states @ EXCITED, axis1=1, axis2=2).real
    exact = np.exp(-gamma * grid.times())
    assert np.max(np.abs(pe - exact)) < 1e-9


def test_rabi_oscillation_frequency():
    # Driven lossless qubit: L = 0, H = 0, beta drives nothing; instead use
    # a driven decaying qubit at strong drive and check the state oscillates.
    model = decay_model(1.0)
    beta = CoherentInput.constant(2.0)
    grid = TimeGrid.from_duration(dt=1e-3, duration=5.0)
    states = integrate_master(model, beta, EXCITED, grid)
    pe = np.trace(states @ EXCITED, axis1=1, axis2=2).real
    # Strongly driven: population must dip below 1/2 and come back up.
    assert pe.min() < 0.5
    assert pe[-1] > pe.min()
    # Trace preserved along the way.
    traces = np.array([np.trace(r) for r in states])
    assert np.max(np.abs(traces - 1.0)) < 1e-9


def test_step_size_error():
    model = decay_model(200.0)
    grid = TimeGrid(dt=0.5, steps=10)
    with pytest.raises(StepSizeError):
        integrate_master(model, CoherentInput.constant(0.0), EXCITED, grid)


def test_step_size_error_names_its_step():
    # Each step multiplies the excited population by about 4e6, so within a
    # few steps the trace loses every digit to rounding; which step that is
    # depends on the rounding of the BLAS kernels.
    grid = TimeGrid(dt=0.5, steps=10)
    with pytest.raises(StepSizeError, match=r"^trace drift \S+ at step [1-9]: dt=0.5 too large"):
        integrate_master(decay_model(200.0), CoherentInput.constant(0.0), EXCITED, grid)


def test_non_finite_trace_counts_as_drift():
    # The first step overflows, so the trace is nan rather than far from 1.
    grid = TimeGrid(dt=1.0, steps=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepSizeError, match=r"^trace drift (nan|inf) at step 0"):
            integrate_master(decay_model(1e80), CoherentInput.constant(0.0), EXCITED, grid)


def rk4_reference(model, beta, rho0, grid):
    """Classical RK4 on adjoint_generator, one matrix stage at a time."""
    rho, dt, states = rho0.astype(complex), grid.dt, [rho0]
    for k in range(grid.steps):
        t = k * dt
        k1 = adjoint_generator(model, beta.value(t), rho)
        k2 = adjoint_generator(model, beta.value(t + 0.5 * dt), rho + 0.5 * dt * k1)
        k3 = adjoint_generator(model, beta.value(t + 0.5 * dt), rho + 0.5 * dt * k2)
        k4 = adjoint_generator(model, beta.value(t + dt), rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(rho)
    return np.array(states)


# A sample lasts 15.5 steps of 2e-3, so one run takes both the RK4-polynomial
# steps and the stage steps.
PIECEWISE = CoherentInput.piecewise(
    0.0, 0.031, [0.6 - 0.3j, -0.2 + 0.5j, 0.1j, 0.8, -0.4 - 0.4j] * 4
)


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize(
    "beta",
    [
        CoherentInput.constant(0.6 - 0.3j),
        CoherentInput.sinusoid(0.4 + 0.2j, 2 * np.pi, 0.3),
        PIECEWISE,
    ],
    ids=["constant", "sinusoid", "piecewise"],
)
def test_integrate_master_matches_matrix_form_rk4(dim, beta):
    rng = np.random.default_rng(31 + dim)
    model = HPModel(
        S=random_unitary(rng, dim), L=random_matrix(rng, dim), H=random_hermitian(rng, dim)
    )
    rho0 = random_density(rng, dim)
    grid = TimeGrid(dt=2e-3, steps=300)
    if beta is PIECEWISE:
        stages = [{beta.value(t + s * grid.dt) for s in (0, 0.5, 1)} for t in grid.times()[:-1]]
        assert {len(values) > 1 for values in stages} == {False, True}
    states = integrate_master(model, beta, rho0, grid)
    assert states.shape == (grid.steps + 1, dim, dim)
    assert max_norm(states - rk4_reference(model, beta, rho0, grid)) <= 1e-12


def test_steady_state_vacuum_decay_is_ground():
    rho_ss = steady_state(decay_model(1.0), 0.0)
    assert trace_distance(rho_ss, GROUND) < 1e-10


def test_steady_state_driven_qubit_agrees_with_long_time_integration():
    model = decay_model(1.0)
    b = 0.5
    rho_ss = steady_state(model, b)
    grid = TimeGrid.from_duration(dt=1e-3, duration=30.0)
    states = integrate_master(model, CoherentInput.constant(b), EXCITED, grid)
    assert trace_distance(rho_ss, states[-1]) < 1e-8
    # Stationarity: the generator annihilates it.
    assert max_norm(adjoint_generator(model, b, rho_ss)) < 1e-10


def test_steady_state_degenerate_raises():
    # L = 0, H = 0: every state is stationary.
    model = HPModel(S=np.eye(2, dtype=complex), L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(model, 0.0)

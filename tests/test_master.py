import re
import tracemalloc

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
    TRACE_DRIFT_LIMIT,
    StepSizeError,
    TimeGrid,
    _rk4_polynomial,
    _squared,
    at,
    coordinates,
    drift_superoperator,
    hermitian,
    integrate_master,
)
from qfilter.model import CoherentInput, HPModel, adjoint_generator
from reference import rk4_reference

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


def random_model(seed: int, dim: int):
    rng = np.random.default_rng(seed)
    model = HPModel(
        S=random_unitary(rng, dim), L=random_matrix(rng, dim), H=random_hermitian(rng, dim)
    )
    return model, random_density(rng, dim)


def test_long_constant_run_at_d8_matches_matrix_form_rk4():
    # One run of 4097 steps: squared powers up to P^4096, the last product one row.
    model, rho0 = random_model(8, 8)
    beta = CoherentInput.constant(0.6 - 0.3j)
    grid = TimeGrid(dt=2e-3, steps=4097)
    states = integrate_master(model, beta, rho0, grid)
    assert max_norm(states - rk4_reference(model, beta, rho0, grid)) <= 1e-12


def test_runs_of_about_a_power_of_two_match_matrix_form_rk4():
    # A sample of beta lasts one step, so L + 1 equal samples make a run of L
    # steps under one generator, each one v @ P, and the step across each change
    # of sample takes the stage form.
    lengths = [3, 4, 5, 31, 32, 33]  # 2^j - 1, 2^j, 2^j + 1 for j = 2, 5
    values = [0.6 - 0.3j, -0.2 + 0.5j, 0.1j, 0.8, -0.4 - 0.4j, 0.3 + 0.3j]
    dt = 2.0**-9
    beta = CoherentInput.piecewise(0.0, dt, [b for b, n in zip(values, lengths) for _ in range(n + 1)])
    grid = TimeGrid(dt=dt, steps=sum(lengths) + len(lengths) - 1)
    runs, run = [], 0
    for t in grid.times()[:-1]:
        if len({beta.value(t + s * dt) for s in (0, 0.5, 1)}) == 1:
            run += 1
        else:
            runs.append(run)
            run = 0
    assert runs + [run] == lengths
    model, rho0 = random_model(5, 3)
    states = integrate_master(model, beta, rho0, grid)
    assert max_norm(states - rk4_reference(model, beta, rho0, grid)) <= 1e-12


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 31, 32, 33])
def test_a_constant_beta_squared_over_about_a_power_of_two_steps_matches_matrix_form_rk4(steps):
    # 2^j - 1, 2^j and 2^j + 1 steps: the last product of the squared path is
    # full, or cut to one row.  The path is the squared one, bit for bit.
    model, rho0 = random_model(5, 3)
    b, dt = 0.6 - 0.3j, 2.0**-9
    beta, grid = CoherentInput.constant(b), TimeGrid(dt=dt, steps=steps)
    path = np.empty((steps + 1, 9))
    path[0] = coordinates(rho0).reshape(9)
    assert _squared(path, _rk4_polynomial(dt * at(drift_superoperator(model), b)))
    states = integrate_master(model, beta, rho0, grid)
    assert states.tobytes() == hermitian(path.reshape(steps + 1, 3, 3)).tobytes()
    assert max_norm(states - rk4_reference(model, beta, rho0, grid)) <= 1e-12


@pytest.mark.parametrize("overflow_at", [None, 5], ids=["constant", "then-overflow"])
def test_drift_failure_inside_a_run_names_the_stepwise_step(overflow_at):
    # At dt = 6 the drift grows about 4e4 times a step.  Step by step, with the
    # same RK4 polynomial, it first passes the limit at step 2, from far below
    # it to far above; the run, filled as (rows 0, 1) @ P^2 there, names step 2 too.
    # Under a samples beta whose square overflows, first sampled by step 4, the
    # steps are taken one v @ P at a time, and the drift failure of the earlier
    # step is the one raised.
    model, rho0 = random_model(0, 2)
    b, dt = 0.4 - 0.2j, 6.0
    beta = CoherentInput.constant(b)
    if overflow_at:
        beta = CoherentInput.piecewise(0.0, dt, [b] * overflow_at + [1e300])
    poly = _rk4_polynomial(dt * at(drift_superoperator(model), b))
    v, drifts = coordinates(rho0).reshape(-1), []
    for _ in range(4):
        v = v @ poly
        drifts.append(abs(v[::3].sum() - 1.0))
    step = next(k for k, drift in enumerate(drifts) if drift > TRACE_DRIFT_LIMIT)
    assert step == 2
    assert 10 * drifts[step - 1] <= TRACE_DRIFT_LIMIT <= drifts[step] / 10
    where = re.escape(f"dt={dt} too large for this generator at t={step * dt:g}, beta = {b}")
    message = rf"^trace drift \S+ at step {step}: {where}$"
    with pytest.raises(StepSizeError, match=message):
        integrate_master(model, beta, rho0, TimeGrid(dt=dt, steps=20))


@pytest.mark.parametrize(
    "dim, seed, dt, step", [(2, 4, 8.0, 1), (2, 8, 1.0, 10)], ids=["squared-later", "squared-earlier"]
)
def test_drift_failure_that_the_squared_run_rounds_elsewhere_names_the_stepwise_step(
    dim, seed, dt, step
):
    # The drift of an RK4 run is rounding alone, on states that grow to 1e13 and
    # 5e14 here, and the squared products round it past the limit at another
    # step than v @ P does step by step: at step 2 where step by step it goes
    # 2.3e-10 -> 1.5e-3 at step 1, and at step 7 where it stays below 1e-8
    # through step 9 and is 4.7e-2 at step 10.  The run is redone step by step.
    model, rho0 = random_model(seed, dim)
    b = 0.4 - 0.2j
    poly = _rk4_polynomial(dt * at(drift_superoperator(model), b))
    v, drifts = coordinates(rho0).reshape(-1), []
    for _ in range(step + 1):
        v = v @ poly
        drifts.append(abs(v[:: dim + 1].sum() - 1.0))
    assert max(drifts[:step]) * 10 <= TRACE_DRIFT_LIMIT <= drifts[step] / 10
    where = re.escape(f"dt={dt} too large for this generator at t={step * dt:g}, beta = {b}")
    message = rf"^trace drift {re.escape(f'{drifts[step]:.3e}')} at step {step}: {where}$"
    with pytest.raises(StepSizeError, match=message):
        integrate_master(model, CoherentInput.constant(b), rho0, TimeGrid(dt=dt, steps=40))


@pytest.mark.parametrize("steps", [1000, 2000])
def test_a_run_goes_on_past_a_power_that_overflows_in_a_mode_its_states_lack(steps):
    # Level 1 decays to 0 and level 2 dephases at gamma dt = 10, where RK4
    # multiplies its coherences by about 13.7 a step: P^512 overflows in the
    # coherence-to-coherence block alone.  The diagonal states hold no such
    # coherence, so step by step nothing does.  At 1000 steps P^512 is the last
    # power used and its 0 * inf leaves the traces finite; at 2000, P^1024 also
    # turns the traces non-finite.  Either way the path is stepped one v @ P
    # at a time.
    coupling = np.zeros((3, 3))
    coupling[0, 1], coupling[2, 2] = np.sqrt(0.005), np.sqrt(10.0)
    model = HPModel(S=np.eye(3), L=coupling, H=np.zeros((3, 3)))
    beta, grid = CoherentInput.constant(0.0), TimeGrid(dt=1.0, steps=steps)
    poly = _rk4_polynomial(grid.dt * at(drift_superoperator(model), 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.linalg.matrix_power(poly, 512)).all()
    rho0 = np.diag([0.2, 0.7, 0.1]).astype(complex)
    states = integrate_master(model, beta, rho0, grid)
    assert max_norm(states - rk4_reference(model, beta, rho0, grid)) <= 1e-12


def test_constant_run_holds_no_more_than_its_states():
    # The beta values and generators are streamed: the peak stays near the
    # returned path, whatever the number of steps.
    grid = TimeGrid(dt=1e-4, steps=200_000)
    tracemalloc.start()
    try:
        states = integrate_master(decay_model(1.0), CoherentInput.constant(0.5), EXCITED, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * states.nbytes


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

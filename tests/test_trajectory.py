import numpy as np
import pytest

from conftest import EXCITED, decay_model
from qfilter.ito import girsanov_coefficients
from qfilter.linalg import (
    dagger,
    max_norm,
    random_density,
    trace_distance,
)
from qfilter.master import TimeGrid
from qfilter.model import CoherentInput, modulated_operators
from qfilter.trajectory import (
    COUNTING,
    JumpRateError,
    MeasurementRecord,
    QUADRATURE,
    TraceUnderflowError,
    count_step_arrays,
    filter_record,
    propagate,
    quad_step_arrays,
    simulate_record,
    zakai_filter,
)


def test_record_validation():
    grid = TimeGrid(dt=0.1, steps=5)
    with pytest.raises(ValueError):
        MeasurementRecord(kind="weird", grid=grid, increments=np.zeros(5))
    with pytest.raises(ValueError):
        MeasurementRecord(kind=QUADRATURE, grid=grid, increments=np.zeros(4))
    with pytest.raises(ValueError):
        MeasurementRecord(kind=COUNTING, grid=grid, increments=np.full(5, 0.5))
    rec = MeasurementRecord(kind=COUNTING, grid=grid, increments=np.array([0, 1, 0, 0, 1.0]))
    assert rec.increments.dtype == float


def test_quad_step_preserves_state_properties():
    rng = np.random.default_rng(40)
    model = decay_model()
    lb, hb = modulated_operators(model, 0.3 + 0.1j)
    rho = random_density(rng, 2)
    new, m = quad_step_arrays(rho, 0.02, lb, hb, 1e-3)
    assert abs(np.trace(new) - 1.0) < 1e-12
    assert max_norm(new - dagger(new)) < 1e-14
    assert m == pytest.approx(np.trace((lb @ rho + rho @ dagger(lb))).real)


def test_step_arrays_batched_matches_single():
    rng = np.random.default_rng(41)
    model = decay_model()
    lb, hb = modulated_operators(model, 0.5 + 0j)
    batch = np.stack([random_density(rng, 2) for _ in range(6)])
    dys = rng.standard_normal(6) * 0.03
    out, ms = quad_step_arrays(batch, dys, lb, hb, 1e-3)
    for i in range(6):
        single, m = quad_step_arrays(batch[i], dys[i], lb, hb, 1e-3)
        assert max_norm(out[i] - single) == 0
        assert ms[i] == pytest.approx(m)

    counts = (rng.random(6) < 0.5).astype(float)
    outc, rates = count_step_arrays(batch, counts, lb, hb, 1e-3)
    for i in range(6):
        single, rate = count_step_arrays(batch[i], counts[i], lb, hb, 1e-3)
        assert max_norm(outc[i] - single) == 0
        assert rates[i] == pytest.approx(rate)


def test_count_jump_from_excited_lands_in_ground():
    model = decay_model()
    lb, hb = modulated_operators(model, 0j)
    new, rate = count_step_arrays(EXCITED, 1.0, lb, hb, 1e-6)
    assert rate == pytest.approx(1.0)
    assert new[1, 1].real == pytest.approx(1.0, abs=1e-5)


def test_count_jump_with_zero_rate_raises():
    model = decay_model()
    lb, hb = modulated_operators(model, 0j)
    ground = np.array([[0, 0], [0, 1]], dtype=complex)
    with pytest.raises(JumpRateError):
        count_step_arrays(ground, 1.0, lb, hb, 1e-3)


def test_simulate_is_deterministic_and_replayable():
    model = decay_model()
    beta = CoherentInput.constant(0.4)
    grid = TimeGrid(dt=1e-3, steps=500)
    for kind in (QUADRATURE, COUNTING):
        rec1, states1, _ = simulate_record(model, beta, EXCITED, kind, grid, seed=9)
        rec2, _, _ = simulate_record(model, beta, EXCITED, kind, grid, seed=9)
        assert np.array_equal(rec1.increments, rec2.increments)
        replayed, _ = filter_record(model, beta, EXCITED, rec1)
        for a, b in zip(states1, replayed):
            assert max_norm(a - b) == 0


def test_different_seeds_give_different_records():
    model = decay_model()
    beta = CoherentInput.constant(0.4)
    grid = TimeGrid(dt=1e-3, steps=100)
    rec1, _, _ = simulate_record(model, beta, EXCITED, QUADRATURE, grid, seed=1)
    rec2, _, _ = simulate_record(model, beta, EXCITED, QUADRATURE, grid, seed=2)
    assert not np.array_equal(rec1.increments, rec2.increments)


def test_innovations_alignment_and_content():
    model = decay_model()
    beta = CoherentInput.constant(0.4)
    grid = TimeGrid(dt=1e-3, steps=200)
    rec, states, innov = simulate_record(model, beta, EXCITED, QUADRATURE, grid, seed=3)
    assert innov.shape == (200,)
    # dY_k - m_k dt, with m_k = tr[(L^b + L^b†) rho_k] of the pre-step state.
    lb, _ = modulated_operators(model, beta.value(0.0))
    m = np.einsum("kij,ji->k", states[:-1], lb + dagger(lb)).real
    assert np.allclose(innov, rec.increments - m * grid.dt, rtol=0.0, atol=1e-15)


def test_zakai_filter_kallianpur_striebel_exact():
    # The factorized unnormalized state must renormalize to the filter state
    # exactly, step by step, for both measurement kinds.
    model = decay_model()
    beta = CoherentInput.constant(0.5)
    grid = TimeGrid(dt=1e-3, steps=300)
    for kind in (QUADRATURE, COUNTING):
        rec, _, _ = simulate_record(model, beta, EXCITED, kind, grid, seed=4)
        direct, _ = filter_record(model, beta, EXCITED, rec)
        factorized, log_norm = zakai_filter(model, beta, EXCITED, rec)
        for a, b in zip(direct, factorized):
            assert trace_distance(a, b) == 0.0
        assert log_norm.shape == (grid.steps + 1,) and log_norm[0] == 0.0
        assert np.all(np.isfinite(log_norm))
        assert log_norm[-1] != 0.0


def test_zakai_log_norm_matches_naive_euler_zakai():
    # Independent check of the accumulated likelihood: propagate the raw
    # unnormalized Euler discretization of the quadrature Zakai equation,
    #   sigma' = sigma + (tK sigma + sigma tK† + tL sigma tL†) dt
    #                  + (tL sigma + sigma tL†) dY,
    # and compare log tr(sigma) against the factorized log_norm.  The two
    # discretizations differ at O(dt) accumulated.
    model = decay_model()
    beta = CoherentInput.constant(0.5)
    grid = TimeGrid(dt=1e-3, steps=1000)
    rec, _, _ = simulate_record(model, beta, EXCITED, QUADRATURE, grid, seed=5)
    tl, tk = girsanov_coefficients(model, beta.value(0.0), "quadrature")

    sigma = EXCITED.astype(complex)
    for dy in rec.increments:
        sigma = (
            sigma
            + (tk @ sigma + sigma @ dagger(tk) + tl @ sigma @ dagger(tl)) * grid.dt
            + (tl @ sigma + sigma @ dagger(tl)) * dy
        )
    states, log_norm = zakai_filter(model, beta, EXCITED, rec)
    log_naive = float(np.log(np.trace(sigma).real))
    assert log_naive == pytest.approx(log_norm[-1], abs=0.05)
    # And the renormalized naive matrix tracks the filter state to O(dt).
    assert trace_distance(sigma / np.trace(sigma), states[-1]) < 0.05


def test_counting_zakai_requires_nonvanishing_beta():
    grid = TimeGrid(dt=1e-3, steps=10)
    record = MeasurementRecord(kind=COUNTING, grid=grid, increments=np.zeros(10))
    with pytest.raises(ValueError):
        zakai_filter(decay_model(), CoherentInput.constant(0.0), EXCITED, record)


def test_zakai_underflow_names_step_and_time():
    # From |+>, m - (b + b*) = <sigma_x> = 1, so a record increment of -10
    # drives the quadrature Zakai factor 1 + (m - b - b*)(dY - (b + b*) dt)
    # below zero while the normalized step stays well defined.
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    grid = TimeGrid(dt=1e-3, steps=5)
    record = MeasurementRecord(
        kind=QUADRATURE, grid=grid, increments=np.array([0.0, 0.0, -10.0, 0.0, 0.0])
    )
    with pytest.raises(TraceUnderflowError, match=r"^step 2, t=0\.002: Zakai normalization factor"):
        zakai_filter(decay_model(), CoherentInput.constant(0.5), plus, record)


def test_jump_probability_bound_enforced():
    # A huge coupling makes r dt exceed the single-jump validity bound.
    model = decay_model(2000.0)
    beta = CoherentInput.constant(0.0)
    grid = TimeGrid(dt=1e-3, steps=10)
    with pytest.raises(JumpRateError):
        simulate_record(model, beta, EXCITED, COUNTING, grid, seed=0)


def test_failures_name_step_and_time():
    model = decay_model(2000.0)
    grid = TimeGrid(dt=1e-3, steps=10)
    with pytest.raises(JumpRateError, match="step 0, t=0: jump probability"):
        simulate_record(model, CoherentInput.constant(0.0), EXCITED, COUNTING, grid, seed=0)
    record = MeasurementRecord(kind=QUADRATURE, grid=grid, increments=np.zeros(10))
    nan_state = np.full((2, 2), np.nan, dtype=complex)
    steps = propagate(
        decay_model(), CoherentInput.constant(0.0), nan_state, QUADRATURE, grid, increments=record.increments
    )
    with pytest.raises(TraceUnderflowError, match="step 0, t=0: state trace underflow"):
        next(steps)
    with pytest.raises(ValueError, match="non-finite"):
        filter_record(decay_model(), CoherentInput.constant(0.0), nan_state, record)


@pytest.mark.parametrize("run", ["simulate", "filter", "zakai"])
def test_single_trajectory_runs_reject_an_invalid_initial_state(run):
    # Unit trace, but neither Hermitian nor positive.
    invalid = np.array([[2, 1], [0, -1]], dtype=complex)
    model, vacuum = decay_model(), CoherentInput.constant(0.0)
    grid = TimeGrid(dt=1e-3, steps=10)
    record = MeasurementRecord(kind=QUADRATURE, grid=grid, increments=np.zeros(10))
    with pytest.raises(ValueError, match="not Hermitian"):
        if run == "simulate":
            simulate_record(model, vacuum, invalid, QUADRATURE, grid, seed=0)
        elif run == "filter":
            filter_record(model, vacuum, invalid, record)
        else:
            zakai_filter(model, vacuum, invalid, record)


GROUND = np.array([[0, 0], [0, 1]], dtype=complex)


def test_batched_jump_bound_names_the_trajectory():
    # r dt = 200 * 1e-3 = 0.2 exceeds the bound in the excited row only.
    rho = np.stack([GROUND, EXCITED, GROUND])
    grid = TimeGrid(dt=1e-3, steps=10)
    noise = np.random.default_rng(0).random((grid.steps, 3))
    steps = propagate(decay_model(200.0), CoherentInput.constant(0.0), rho, COUNTING, grid, noise=noise)
    with pytest.raises(JumpRateError, match=r"step 0, t=0: trajectory 1: jump probability 0\.2 "):
        next(steps)


def test_batched_replay_failures_name_the_trajectory():
    model, vacuum = decay_model(), CoherentInput.constant(0.0)
    grid = TimeGrid(dt=1e-3, steps=1)
    single = propagate(model, vacuum, GROUND, COUNTING, grid, increments=np.ones(1))
    with pytest.raises(JumpRateError, match="step 0, t=0: detection event"):
        next(single)
    pair = np.stack([EXCITED, GROUND])
    jump = propagate(model, vacuum, pair, COUNTING, grid, increments=np.ones((1, 2)))
    with pytest.raises(JumpRateError, match="step 0, t=0: trajectory 1: detection event"):
        next(jump)
    pair[1] = np.nan
    underflow = propagate(model, vacuum, pair, QUADRATURE, grid, increments=np.zeros((1, 2)))
    with pytest.raises(TraceUnderflowError, match="step 0, t=0: trajectory 1: state trace underflow"):
        next(underflow)


def test_trace_underflow_detected():
    model = decay_model()
    lb, hb = modulated_operators(model, 0j)
    nan_state = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(TraceUnderflowError):
        quad_step_arrays(nan_state, 0.0, lb, hb, 1e-3)

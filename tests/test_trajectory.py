from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXCITED, decay_model, qnd_model
from qfilter.ensemble import mix_seed, run_ensemble
from qfilter.ito import girsanov_coefficients
from qfilter.linalg import (
    dagger,
    max_norm,
    trace_distance,
)
from qfilter.master import TimeGrid
from qfilter.model import CoherentInput, modulated_operators
from qfilter.trajectory import (
    COUNTING,
    KINDS,
    JumpRateError,
    MeasurementRecord,
    QUADRATURE,
    ROW_CHUNK,
    TraceLossError,
    TraceUnderflowError,
    draw_noise,
    filter_record,
    propagate,
    simulate_record,
    zakai_filter,
)
from reference import reference_noise


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


@pytest.mark.parametrize(
    "row, cause", [(np.nan, r"trace nan \(non-finite\)"), (0.0, r"trace 0 \(below 1e-12\)")]
)
def test_underflow_names_the_trajectory_and_its_trace(row, cause):
    # Row 1 is all NaN (a non-finite trace) or all zero (a finite underflow).
    pair = np.stack([EXCITED, np.full((2, 2), row, dtype=complex)])
    for kind in (QUADRATURE, COUNTING):
        steps = propagate(
            decay_model(), CoherentInput.constant(0.0), pair, kind, TimeGrid(dt=1e-3, steps=1),
            increments=np.zeros((1, 2)),
        )
        message = "^step 0, t=0: trajectory 1: state trace underflow during renormalization: "
        with pytest.raises(TraceUnderflowError, match=message + cause):
            next(steps)


QND_BETA = CoherentInput.constant(0.6 + 0.3j)
QND_GRID = TimeGrid(dt=1 / 64, steps=8)
MIXED3 = np.eye(3, dtype=complex) / 3


def test_a_state_that_loses_its_trace_fails_naming_its_step():
    # dY = 0.5, four standard deviations at dt = 1/64, at every step: the populations
    # grow until rounding, not the filter, sets the trace.  Steps 0-3 stay within
    # 1e-11 of trace 1 and step 4 is off it by over 1e-3, so the first failing step
    # does not turn on the last bits of any product.
    increments = np.full(QND_GRID.steps, 0.5)
    steps = propagate(qnd_model(), QND_BETA, MIXED3, QUADRATURE, QND_GRID, increments=increments)
    loss = np.abs(np.trace([x for x, _, _ in steps], axis1=1, axis2=2) - 1.0)
    assert loss[:4].max() < 1e-11 and loss[4] > 1e-3 and loss.max() > 1.0
    record = MeasurementRecord(kind=QUADRATURE, grid=QND_GRID, increments=increments)
    message = r"^step 4, t=0\.0625: state trace lost: \|tr - 1\| = \S+ > 1e-09 after renormalization$"
    for replay in (filter_record, zakai_filter):
        with pytest.raises(TraceLossError, match=message):
            replay(qnd_model(), QND_BETA, MIXED3, record)


def test_an_ensemble_trajectory_that_loses_its_trace_fails_naming_it():
    # At master seed 28, trajectory 3 is off trace 1 by about 2e-3 at step 7 (a
    # checkpoint, as every step of 8 is); every earlier state, and rows 0-2 at
    # step 7, stay within 1e-15 of it.  Run alone, it fails at the same step.
    message = r"^step 7, t=0\.109375: {}state trace lost: "
    with pytest.raises(TraceLossError, match=message.format("trajectory 3: ")):
        run_ensemble(qnd_model(), QND_BETA, MIXED3, QUADRATURE, QND_GRID, 4, master_seed=28)
    with pytest.raises(TraceLossError, match=message.format("")):
        simulate_record(qnd_model(), QND_BETA, MIXED3, QUADRATURE, QND_GRID, mix_seed(28, 3))


@pytest.mark.parametrize("batch", [(), (ROW_CHUNK + 1,)], ids=["alone", "batch"])
def test_propagate_yields_fresh_arrays(batch):
    # Each step's rows are copied into one zero-padded buffer for the step product;
    # a yielded state that was a view of it, or of another step's state, would
    # change under a caller that keeps it, as list(propagate(...)) does.
    grid = TimeGrid(dt=1e-3, steps=6)
    rho = np.broadcast_to(EXCITED, batch + (2, 2))
    noise = np.random.default_rng(0).standard_normal((grid.steps,) + batch) * np.sqrt(grid.dt)

    def run():
        return propagate(decay_model(), CoherentInput.constant(0.5), rho, QUADRATURE, grid, noise=noise)

    kept = [x for x, _, _ in list(run())]
    copied = [x.copy() for x, _, _ in run()]
    assert [x.tobytes() for x in kept] == [x.tobytes() for x in copied]
    assert not any(np.shares_memory(a, b) for a, b in combinations(kept, 2))
    for x in kept:  # each owns an array of its own size, not the larger padded buffer
        root = x
        while root.base is not None:
            root = root.base
        assert root.size == x.size


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("batch", [(), (ROW_CHUNK + 1,)], ids=["alone", "batch"])
def test_propagate_yields_nothing_of_the_step_product_buffer(monkeypatch, kind, batch):
    # The step product is written into one buffer per call, out= of np.matmul;
    # no yielded x, dY or intensity may be a view of it or of another step's.
    buffers = []
    matmul = np.matmul

    def recording_matmul(*args, **kwargs):
        buffers.append(kwargs.get("out"))
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    grid = TimeGrid(dt=1e-3, steps=6)
    rho = np.broadcast_to(EXCITED, batch + (2, 2))
    noise = np.random.default_rng(1).random((grid.steps,) + batch)
    if kind == QUADRATURE:
        noise = (noise - 0.5) * np.sqrt(grid.dt)
    else:
        noise[[1, 4]] = 0.0  # uniforms below any positive click probability
    steps = list(propagate(decay_model(), CoherentInput.constant(0.5), rho, kind, grid, noise=noise))
    buffer = {id(b): b for b in buffers if b is not None}
    assert len(buffer) == 1
    if kind == COUNTING:
        assert [np.all(dy == 1.0) for _, dy, _ in steps] == [k in (1, 4) for k in range(grid.steps)]
    for k, step in enumerate(steps):
        for a in step:
            assert not np.shares_memory(a, *buffer.values())
            assert not any(np.shares_memory(a, b) for later in steps[k + 1 :] for b in later)


NOISE_GRID = TimeGrid(dt=1e-3, steps=41)
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
seed_lists = st.sampled_from([1, 3, 257]).flatmap(
    lambda n: st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)
)
seeding = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@seeding
@given(seed_lists, st.sampled_from(KINDS))
@example(EDGE_SEEDS, QUADRATURE)
@example(EDGE_SEEDS, COUNTING)
def test_draw_noise_columns_are_the_default_rng_streams_bit_for_bit(seeds, kind):
    noise = draw_noise(seeds, kind, NOISE_GRID)
    assert noise.shape == (NOISE_GRID.steps, len(seeds))
    for i, seed in enumerate(seeds):
        expected = reference_noise(np.random.default_rng(seed), kind, NOISE_GRID)
        assert noise[:, i].tobytes() == expected.tobytes()


@seeding
@given(seed_lists, st.sampled_from(KINDS))
@example(EDGE_SEEDS, QUADRATURE)
def test_draw_noise_column_depends_only_on_its_seed(seeds, kind):
    noise = draw_noise(seeds, kind, NOISE_GRID)
    for i, seed in enumerate(seeds):
        assert noise[:, i].tobytes() == draw_noise([seed], kind, NOISE_GRID)[:, 0].tobytes()
    reversed_noise = draw_noise(seeds[::-1], kind, NOISE_GRID)
    assert reversed_noise.tobytes() == noise[:, ::-1].tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("run", ["draw_noise", "simulate", "ensemble"])
def test_seeds_outside_64_bits_are_rejected(run, seed):
    grid, beta = TimeGrid(dt=1e-3, steps=5), CoherentInput.constant(0.5)
    calls = {
        "draw_noise": lambda: draw_noise([0, seed], QUADRATURE, grid),
        "simulate": lambda: simulate_record(decay_model(), beta, EXCITED, QUADRATURE, grid, seed),
        "ensemble": lambda: run_ensemble(decay_model(), beta, EXCITED, QUADRATURE, grid, 3, seed),
    }
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        calls[run]()

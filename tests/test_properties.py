"""Bit-exactness and accuracy of the filter loop over random (S, L, H) models.

Each example draws a model with d in {2, 3, 4} (also 8 against the
reference kernels), a constant or sinusoid beta, a measurement kind and a
seed.  L is scaled, as the benchmark's random models are, so that (||L||_2 + max|beta|)^2 dt, a bound on the
per-step jump probability, stays within 0.05.  Examples are derandomized
so that every run checks the same models.  On random models too, the
real coordinates of Hermitian matrices round-trip exactly, the states the
filter loop and the master equation yield are Hermitian bit for bit, and
the step superoperators' `at` and `apply` agree with the maps they are
built from.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfilter.ensemble import _checkpoint_steps, mix_seed, run_ensemble
from qfilter.linalg import dagger, max_norm, random_density, random_hermitian, trace_distance
from qfilter.master import (
    STATE_BLOCK,
    TimeGrid,
    affine_superoperator,
    coordinates,
    drift_superoperator,
    hermitian,
    integrate_master,
)
from qfilter.model import CoherentInput, HPModel, lindblad_adjoint, modulated_operators
from qfilter.trajectory import (
    _STEPS,
    COUNTING,
    COUNTING_BETA_MIN,
    KINDS,
    QUADRATURE,
    count_step_arrays,
    draw_noise,
    filter_record,
    propagate,
    quad_step_arrays,
    simulate_record,
    zakai_filter,
)
from qfilter.verify import random_model

DT = 1e-3
JUMP_PROBABILITY_BUDGET = 0.05
GRID = TimeGrid(dt=DT, steps=40)
BATCH_SIZES = (1, 3, 257)
REFERENCE_TOL = 1e-12


def case_tuples(dims):
    return st.tuples(
        st.integers(0, 2**32 - 1),
        st.sampled_from(dims),
        st.sampled_from(KINDS),
        st.sampled_from(["constant", "sinusoid"]),
    )


cases = case_tuples([2, 3, 4])
exact = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def random_case(seed, dim, beta_kind):
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim)
    b = complex(rng.standard_normal(), rng.standard_normal()) / 2
    if beta_kind == "constant":
        beta, max_beta = CoherentInput.constant(b), abs(b)
    else:
        beta = CoherentInput.sinusoid(amplitude=b, frequency=2 * np.pi, offset=0.5)
        max_beta = abs(b) + 0.5
    l_max = np.sqrt(JUMP_PROBABILITY_BUDGET / DT) - max_beta
    l = model.L * min(1.0, l_max / np.linalg.norm(model.L, 2))
    return HPModel(S=model.S, L=l, H=model.H), beta, random_density(rng, dim)


@exact
@given(cases)
def test_replay_reproduces_simulated_states_bit_for_bit(case):
    seed, dim, kind, beta_kind = case
    model, beta, rho0 = random_case(seed, dim, beta_kind)
    record, states, innov = simulate_record(model, beta, rho0, kind, GRID, seed)
    replayed, replayed_innov = filter_record(model, beta, rho0, record)
    assert replayed.tobytes() == states.tobytes()
    assert replayed_innov.tobytes() == innov.tobytes()


def batched_run(master_seed, model, beta, rho0, kind, n_traj):
    """States and dY of rows 0..n_traj-1 propagated as one batch, and their seeds."""
    dim = rho0.shape[0]
    seeds = [mix_seed(master_seed, i) for i in range(n_traj)]
    noise = np.stack([draw_noise(np.random.default_rng(s), kind, GRID) for s in seeds], axis=1)
    stack = np.broadcast_to(rho0, (n_traj, dim, dim)).copy()
    steps = list(propagate(model, beta, stack, kind, GRID, noise=noise))
    return np.stack([hermitian(x) for x, _, _ in steps]), np.stack([dy for _, dy, _ in steps]), seeds


@exact
@given(cases, st.sampled_from(BATCH_SIZES))
def test_batched_row_equals_standalone_trajectory_bit_for_bit(case, n_traj):
    master_seed, dim, kind, beta_kind = case
    model, beta, rho0 = random_case(master_seed, dim, beta_kind)
    batched, _, seeds = batched_run(master_seed, model, beta, rho0, kind, n_traj)
    for i, s in enumerate(seeds):
        _, states, _ = simulate_record(model, beta, rho0, kind, GRID, s)
        assert batched[:, i].tobytes() == states[1:].tobytes()


@pytest.mark.parametrize("dim", [2, 8])
def test_rows_that_jump_alone_in_a_batch_equal_standalone_bit_for_bit(dim):
    # Only the rows that jumped take the second product; check they, and
    # the rows beside them that did not, are each the standalone trajectory.
    model, beta, rho0 = random_case(11, dim, "sinusoid")
    batched, dys, seeds = batched_run(11, model, beta, rho0, COUNTING, 257)
    jumps = dys.sum(axis=1)
    assert np.any((jumps > 0) & (jumps < len(seeds)))
    for i, s in enumerate(seeds):
        _, states, _ = simulate_record(model, beta, rho0, COUNTING, GRID, s)
        assert batched[:, i].tobytes() == states[1:].tobytes()


@exact
@given(case_tuples([2, 3, 4, 8]))
def test_propagate_matches_reference_kernels(case):
    seed, dim, kind, beta_kind = case
    model, beta, rho0 = random_case(seed, dim, beta_kind)
    rng = np.random.default_rng(seed)
    if kind == QUADRATURE:
        increments, step = rng.standard_normal(GRID.steps) * np.sqrt(DT), quad_step_arrays
    else:  # more jumps than the model would give, so the jump branch is exercised
        increments, step = (rng.random(GRID.steps) < 0.2).astype(float), count_step_arrays
    ref = rho0
    for k, (x, _, intensity) in enumerate(
        propagate(model, beta, rho0, kind, GRID, increments=increments)
    ):
        rho = hermitian(x)
        lb, hb = modulated_operators(model, beta.value(k * DT))
        ref, ref_intensity = step(ref, increments[k], lb, hb, DT)
        assert max_norm(rho - ref) <= REFERENCE_TOL
        assert abs(intensity - ref_intensity) <= REFERENCE_TOL


@exact
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8]), st.sampled_from(["drift", *KINDS]))
def test_apply_equals_the_product_with_the_recombined_maps(seed, dim, maps):
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim)
    if maps == "drift":
        sup = drift_superoperator(model)
    else:
        sup = affine_superoperator(model, _STEPS[maps][0])
    width = {"drift": dim * dim, QUADRATURE: 2 * dim * dim, COUNTING: dim * dim + 1}[maps]
    assert sup.pieces.shape == (4, dim * dim, width)
    b = complex(rng.standard_normal(), rng.standard_normal())
    v = coordinates(random_density(rng, dim)).reshape(dim * dim)
    assert max_norm(sup.apply(v, b) - v @ sup.at(b)) <= REFERENCE_TOL


def drift_maps(lb, hb, rho):
    return (lindblad_adjoint(lb, hb, rho),)


MAPS = {"drift": drift_maps, **{kind: _STEPS[kind][0] for kind in KINDS}}


@exact
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8]), st.sampled_from(list(MAPS)))
def test_at_equals_the_coordinates_of_the_maps_evaluated_at_beta(seed, dim, maps):
    # x(F_b(rho)) = x(rho) @ at(b), with F_b the maps at L^b, H^b on random states.
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim)
    sup = affine_superoperator(model, MAPS[maps])
    assert sup.pieces.dtype == float
    b = complex(rng.standard_normal(), rng.standard_normal())
    rhos = np.array([random_density(rng, dim) for _ in range(5)])
    direct = [
        (coordinates(m) if m.ndim == 3 else m.real).reshape(len(rhos), -1)
        for m in MAPS[maps](*modulated_operators(model, b), rhos)
    ]
    expected = np.concatenate(direct, axis=1)
    got = coordinates(rhos).reshape(len(rhos), dim * dim) @ sup.at(b)
    assert max_norm(got - expected) <= REFERENCE_TOL * max(1.0, max_norm(expected))


@exact
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8]))
def test_coordinates_round_trip_exactly(seed, dim):
    rng = np.random.default_rng(seed)
    h = np.array([random_hermitian(rng, dim) for _ in range(3)])
    x = coordinates(h)
    assert x.dtype == float and x.shape == h.shape
    assert np.array_equal(hermitian(x), h)
    assert np.array_equal(np.diagonal(x, axis1=1, axis2=2), np.diagonal(h, axis1=1, axis2=2).real)
    y = rng.standard_normal((3, dim, dim))
    assert np.array_equal(coordinates(hermitian(y)), y)
    assert np.array_equal(hermitian(y), dagger(hermitian(y)))


def assert_density_path(states):
    """Each state exactly Hermitian, with trace within 1e-12 of 1."""
    for rho in states:
        assert np.array_equal(rho, dagger(rho))
        assert np.all(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0) <= 1e-12)


@exact
@given(case_tuples([2, 3, 4, 8]))
def test_propagate_yields_exactly_hermitian_unit_trace_states(case):
    seed, dim, kind, beta_kind = case
    model, beta, rho0 = random_case(seed, dim, beta_kind)
    rngs = [np.random.default_rng([seed, i]) for i in range(3)]
    noise = np.stack([draw_noise(rng, kind, GRID) for rng in rngs], axis=1)
    stack = np.broadcast_to(rho0, (3, dim, dim))
    steps = propagate(model, beta, stack, kind, GRID, noise=noise)
    assert_density_path(hermitian(x) for x, _, _ in steps)


@exact
@given(case_tuples([2, 3, 4, 8]))
def test_integrate_master_yields_exactly_hermitian_unit_trace_states(case):
    seed, dim, _, beta_kind = case
    model, beta, rho0 = random_case(seed, dim, beta_kind)
    assert_density_path(integrate_master(model, beta, rho0, GRID))


BLOCK_GRID = TimeGrid(dt=DT, steps=2 * STATE_BLOCK + 3)


def mean_stderr(values):
    return [float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [2, 8])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["constant", "sinusoid"]))
def test_states_are_the_yielded_coordinates_across_state_blocks(dim, kind, seed, beta_kind):
    # The collectors turn coordinates into states STATE_BLOCK at a time, and
    # the ensemble only at its checkpoints: neither may change a bit.
    model, beta, rho0 = random_case(seed, dim, beta_kind)
    noise = draw_noise(np.random.default_rng(seed), kind, BLOCK_GRID)
    xs = [x for x, _, _ in propagate(model, beta, rho0, kind, BLOCK_GRID, noise=noise)]
    _, states, _ = simulate_record(model, beta, rho0, kind, BLOCK_GRID, seed)
    assert states[0].tobytes() == rho0.tobytes()
    assert states[1:].tobytes() == np.stack([hermitian(x) for x in xs]).tobytes()

    n_traj = 7
    obs = random_hermitian(np.random.default_rng(seed), dim)
    columns = run_ensemble(model, beta, rho0, kind, BLOCK_GRID, n_traj, seed, {"o": obs})
    rngs = [np.random.default_rng(mix_seed(seed, i)) for i in range(n_traj)]
    noise = np.stack([draw_noise(rng, kind, BLOCK_GRID) for rng in rngs], axis=1)
    stack = np.broadcast_to(rho0, (n_traj, dim, dim))
    master = integrate_master(model, beta, rho0, BLOCK_GRID)
    checkpoints = _checkpoint_steps(BLOCK_GRID.steps)
    innov_cum, rows = np.zeros(n_traj), []
    steps = propagate(model, beta, stack, kind, BLOCK_GRID, noise=noise)
    for k, (x, dy, intensity) in enumerate(steps, start=1):
        innov_cum += dy - intensity * DT
        if k in checkpoints:
            rho = hermitian(x)
            rows.append(
                mean_stderr(np.einsum("nij,ji->n", rho, obs).real)
                + mean_stderr(innov_cum)
                + [trace_distance(rho.sum(axis=0) / n_traj, master[k])]
                + [float(np.mean(np.einsum("nij,nji->n", rho, rho).real))]
            )
    assert columns["t"].tobytes() == (checkpoints * DT).tobytes()
    assert np.stack([columns[name] for name in list(columns)[1:]], axis=1).tobytes() == (
        np.array(rows).tobytes()
    )


def zakai_log_norm_reference(model, beta, rho0, record):
    """The log Zakai factors accumulated step by step in Python scalars."""
    dt, total, path = record.grid.dt, 0.0, [0.0]
    steps = propagate(model, beta, rho0, record.kind, record.grid, increments=record.increments)
    for k, (_, dy, intensity) in enumerate(steps):
        b = complex(beta.value(k * dt))
        if record.kind == COUNTING:
            a = abs(b) ** 2
            factor = 1.0 + (float(intensity) - a) / a * (dy - a * dt)
        else:
            c = 2.0 * b.real
            factor = 1.0 + (float(intensity) - c) * (dy - c * dt)
        total += float(np.log(factor))
        path.append(total)
    return np.array(path)


@exact
@given(cases)
def test_zakai_filter_equals_filter_states_and_scalar_log_norm_bit_for_bit(case):
    seed, dim, kind, beta_kind = case
    model, beta, rho0 = random_case(seed, dim, beta_kind)
    if kind == COUNTING:
        assume(min(abs(beta.value(t)) for t in GRID.times()) >= COUNTING_BETA_MIN)
    record, _, _ = simulate_record(model, beta, rho0, kind, GRID, seed)
    states, _ = filter_record(model, beta, rho0, record)
    zakai_states, log_norm = zakai_filter(model, beta, rho0, record)
    assert zakai_states.tobytes() == states.tobytes()
    assert np.all(np.isfinite(log_norm))
    assert log_norm.tobytes() == zakai_log_norm_reference(model, beta, rho0, record).tobytes()

"""Bit-exactness and accuracy of the filter loop over random (S, L, H) models.

Each example draws a model with d in {2, 3, 4} (also 8 against the
reference kernels), a constant or sinusoid beta, a measurement kind and a
seed.  L is scaled, as the benchmark's random models are, so that (||L||_2 + max|beta|)^2 dt, a bound on the
per-step jump probability, stays within 0.05.  Examples are derandomized
so that every run checks the same models.  On random models too, the
real coordinates of Hermitian matrices round-trip exactly, the states the
filter loop and the master equation yield are Hermitian bit for bit, the
step superoperators formed by `at` agree with the maps they are built
from, and the filter's step matrix adds to them the identity, dt and the
trace columns whose per-row trace keeps every state at unit trace.  The
maps `master.maps_at` streams, formed a block of beta values at a time,
are the ones `at` forms, a constant beta forms one per run, a failing
value is raised after the values before it, and a beta that changes
mid-block and on block starts keeps the filter on the reference kernels
and each batched row on its standalone trajectory.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_model
from qfilter import master
from qfilter.ensemble import _checkpoint_steps, mix_seed, run_ensemble
from qfilter.linalg import (
    NumericalError,
    dagger,
    max_norm,
    random_density,
    random_hermitian,
    trace_distance,
)
from qfilter.master import (
    BETA_BLOCK,
    STATE_BLOCK,
    TimeGrid,
    affine_superoperator,
    at,
    coordinates,
    hermitian,
    integrate_master,
    maps_at,
)
from qfilter.model import CoherentInput, HPModel, lindblad_adjoint, modulated_operators
from qfilter.trajectory import (
    _STEPS,
    _step_pieces,
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


def drift_maps(lb, hb, rho):
    return (lindblad_adjoint(lb, hb, rho),)


MAPS = {
    "drift": drift_maps,
    **{kind: _STEPS[kind][0][0] for kind in KINDS},
    "jump": _STEPS[COUNTING][0][1],
}


def blocks_at(maps, model, b, rhos):
    """The coordinates of each map at L^b, H^b on the states rhos, one (n, width) block each."""
    return [
        (coordinates(m) if m.ndim == 3 else m.real).reshape(len(rhos), -1)
        for m in maps(*modulated_operators(model, b), rhos)
    ]


@exact
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8]), st.sampled_from(list(MAPS)))
def test_at_equals_the_coordinates_of_the_maps_evaluated_at_beta(seed, dim, maps):
    # x(F_b(rho)) = x(rho) @ at(b), with F_b the maps at L^b, H^b on random states.
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim)
    sup = affine_superoperator(model, MAPS[maps])
    width = {
        "drift": dim * dim, QUADRATURE: 2 * dim * dim + 1, COUNTING: dim * dim + 1, "jump": dim * dim
    }[maps]
    assert sup.shape == (4, dim * dim, width)
    assert sup.dtype == float
    b = complex(rng.standard_normal(), rng.standard_normal())
    rhos = np.array([random_density(rng, dim) for _ in range(5)])
    expected = np.concatenate(blocks_at(MAPS[maps], model, b, rhos), axis=1)
    got = coordinates(rhos).reshape(len(rhos), dim * dim) @ at(sup, b)
    assert max_norm(got - expected) <= REFERENCE_TOL * max(1.0, max_norm(expected))


@exact
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8]), st.sampled_from(list(MAPS)))
def test_block_form_equals_at_at_every_beta(seed, dim, maps):
    # A run of beta values, read BETA_BLOCK at a time: a run one value
    # longer than a block, changes mid-block and on a block start, then
    # random repeats.  Each map, as it is yielded, is at(pieces, b), and its
    # weights are those of b.
    rng = np.random.default_rng(seed)
    pieces = affine_superoperator(random_model(rng, dim), MAPS[maps])
    pool = [complex(*rng.standard_normal(2)) for _ in range(3)]
    runs = [(0, BETA_BLOCK + 1), (1, 3), (2, 4), (0, 2), (1, BETA_BLOCK - 2)]
    values = [pool[j] for j, length in runs for _ in range(length)]
    values += [pool[j] for j in rng.integers(0, len(pool), size=BETA_BLOCK + 5)]
    changes = [k for k in range(1, len(values)) if values[k] != values[k - 1]]
    assert {k % BETA_BLOCK == 0 for k in changes} == {False, True}
    for b, (got, weights) in zip(values, maps_at(pieces, values), strict=True):
        assert max_norm(got - at(pieces, b)) <= REFERENCE_TOL
        assert weights == [1.0, b.real, b.imag, b.real**2 + b.imag**2]


@pytest.mark.parametrize(
    "position, repeats",
    [(0, 0), (BETA_BLOCK, 0), (BETA_BLOCK + 3, 0), (BETA_BLOCK + 3, 3)],
    ids=["first", "block-start", "mid-block", "after-repeats"],
)
def test_maps_at_yields_the_values_before_a_failure_then_raises_it(position, repeats):
    # after-repeats: the failing value's block opens with three repeats of
    # the last value of the block before, so that it forms nothing.
    rng = np.random.default_rng(position)
    pieces = affine_superoperator(random_model(rng, 2), MAPS["drift"])
    pool = [complex(*rng.standard_normal(2)) for _ in range(2)]
    values = [pool[j] for j in rng.integers(0, len(pool), size=position - repeats)]
    values += values[-1:] * repeats + [1e300 + 0j, pool[0], pool[1]]
    yielded = []
    with pytest.raises(NumericalError) as failure:
        for pair in maps_at(pieces, values):
            yielded.append(pair)
    assert str(failure.value) == "|beta|^2 overflows a float at beta = (1e+300+0j)"
    assert len(yielded) == position
    for b, (got, _) in zip(values, yielded):
        assert max_norm(got - at(pieces, b)) <= REFERENCE_TOL


BLOCK_RUN = TimeGrid(dt=DT, steps=3 * BETA_BLOCK + 5)


def _changes(values) -> int:
    """The number of values that differ from the one before them, the first included."""
    return sum(b != a for a, b in zip([None] + values, values))


@pytest.mark.parametrize("kind", KINDS)
def test_block_form_forms_each_change_of_beta_once(kind):
    # One product per block of BETA_BLOCK values, with one row per change of
    # beta; a constant beta forms one map per run, and a value carried into
    # the next block is not formed again.
    calls, changes = {}, {}
    for beta_kind in ("constant", "sinusoid"):
        model, beta, rho0 = random_case(7, 3, beta_kind)
        rngs = [np.random.default_rng(i) for i in range(3)]
        noise = np.stack([draw_noise(rng, kind, BLOCK_RUN) for rng in rngs], axis=1)
        stack = np.broadcast_to(rho0, (3, 3, 3))
        with mock.patch.object(master, "_form", wraps=master._form) as form:
            list(propagate(model, beta, stack, kind, BLOCK_RUN, noise=noise))
            integrate_master(model, beta, rho0, BLOCK_RUN)
        calls[beta_kind] = [len(c.args[0]) for c in form.call_args_list]
        steps = range(BLOCK_RUN.steps)
        grid_times = [k * DT for k in steps]
        stage_times = [0.0] + [t for i in steps for t in (i * DT + 0.5 * DT, (i + 1) * DT)]
        streams = [[beta.value(t) for t in times] for times in (grid_times, stage_times)]
        changes[beta_kind] = sum(_changes(values) for values in streams)
    assert calls["constant"] == [1, 1]
    tail = BLOCK_RUN.steps % BETA_BLOCK
    filter_rows = [BETA_BLOCK] * 3 + [tail]  # grid times
    master_rows = [BETA_BLOCK] * 7 + [3]  # 2 steps + 1 stage times
    assert calls["sinusoid"] == filter_rows + master_rows
    assert {b: sum(rows) for b, rows in calls.items()} == changes


def piecewise_case(seed, dim):
    """A random model and a piecewise beta over BLOCK_RUN, with L scaled as in `random_case`.

    Samples last BETA_BLOCK / 2 steps and repeat in places, so that beta
    changes mid-block and on some block starts, and is carried, unchanged,
    across others.
    """
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim)
    p = [complex(*rng.standard_normal(2)) / 2 for _ in range(4)]
    samples = [p[0], p[1], p[1], p[2], p[3], p[3], p[0], p[1]]
    beta = CoherentInput.piecewise(0.0, BETA_BLOCK // 2 * DT, samples)
    l_max = np.sqrt(JUMP_PROBABILITY_BUDGET / DT) - max(abs(b) for b in samples)
    l = model.L * min(1.0, l_max / np.linalg.norm(model.L, 2))
    return HPModel(S=model.S, L=l, H=model.H), beta, random_density(rng, dim)


@exact
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 8]), st.sampled_from(KINDS))
def test_block_boundaries_keep_the_reference_kernels_and_batch_rows(seed, dim, kind):
    model, beta, rho0 = piecewise_case(seed, dim)
    b = [beta.value(k * DT) for k in range(BLOCK_RUN.steps)]
    changes = [k for k in range(1, BLOCK_RUN.steps) if b[k] != b[k - 1]]
    assert {k % BETA_BLOCK == 0 for k in changes} == {False, True}
    assert BLOCK_RUN.steps >= 3 * BETA_BLOCK and BLOCK_RUN.steps % BETA_BLOCK

    rng = np.random.default_rng(seed)
    if kind == QUADRATURE:
        increments, step = rng.standard_normal(BLOCK_RUN.steps) * np.sqrt(DT), quad_step_arrays
    else:  # more jumps than the model would give, so the jump branch is exercised
        increments, step = (rng.random(BLOCK_RUN.steps) < 0.2).astype(float), count_step_arrays
    ref = rho0
    for k, (x, _, intensity) in enumerate(
        propagate(model, beta, rho0, kind, BLOCK_RUN, increments=increments)
    ):
        ref, ref_intensity = step(ref, increments[k], *modulated_operators(model, b[k]), DT)
        assert max_norm(hermitian(x) - ref) <= REFERENCE_TOL
        assert abs(intensity - ref_intensity) <= REFERENCE_TOL

    seeds = [mix_seed(seed, i) for i in range(3)]
    noise = np.stack([draw_noise(np.random.default_rng(s), kind, BLOCK_RUN) for s in seeds], axis=1)
    stack = np.broadcast_to(rho0, (3, dim, dim))
    steps = propagate(model, beta, stack, kind, BLOCK_RUN, noise=noise)
    batched = np.stack([hermitian(x) for x, _, _ in steps])
    for i, s in enumerate(seeds):
        _, states, _ = simulate_record(model, beta, rho0, kind, BLOCK_RUN, s)
        assert batched[:, i].tobytes() == states[1:].tobytes()


@exact
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8]), st.sampled_from(KINDS))
def test_step_matrix_is_the_maps_with_identity_dt_and_trace_columns(seed, dim, kind):
    # x @ at(step pieces, b) = [A | gain | tr A | tr x | m], A = x + dt drift
    # (counting: [A | tr A | tr x | r], A = x + dt no-jump drift), at L^b, H^b.
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim)
    b = complex(rng.standard_normal(), rng.standard_normal())
    rhos = np.array([random_density(rng, dim) for _ in range(5)])
    x = coordinates(rhos).reshape(len(rhos), dim * dim)
    drift, *rest, intensity = blocks_at(MAPS[kind], model, b, rhos)
    a = x + DT * drift
    traces = [y[:, :: dim + 1].sum(axis=1, keepdims=True) for y in (a, x)]
    expected = np.concatenate([a, *rest, *traces, intensity], axis=1)
    got = x @ at(_step_pieces(affine_superoperator(model, MAPS[kind]), dim, DT), b)
    assert got.shape == expected.shape
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [2, 8])
def test_column_trace_does_not_drift_over_long_runs(dim, kind):
    # The renormalization trace comes from per-row columns, not from the new
    # state's diagonal: its rounding must not build up over 10^4 steps.
    model, beta, rho0 = random_case(5, dim, "sinusoid")
    grid = TimeGrid(dt=DT, steps=10_000)
    rngs = [np.random.default_rng([5, i]) for i in range(3)]
    noise = np.stack([draw_noise(rng, kind, grid) for rng in rngs], axis=1)
    stack = np.broadcast_to(rho0, (3, dim, dim))
    steps = propagate(model, beta, stack, kind, grid, noise=noise)
    traces = np.array([np.trace(x, axis1=1, axis2=2) for x, _, _ in steps])
    assert traces.shape == (grid.steps, 3)
    assert np.max(np.abs(traces - 1.0)) <= 1e-12


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

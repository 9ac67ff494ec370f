"""Bit-exactness of the filter loop over random (S, L, H) models.

Each example draws a model with d in {2, 3, 4}, a constant or sinusoid
beta, a measurement kind and a seed.  L is scaled, as the benchmark's
random models are, so that (||L||_2 + max|beta|)^2 dt, a bound on the
per-step jump probability, stays within 0.05.  Examples are derandomized
so that every run checks the same models.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfilter.ensemble import mix_seed
from qfilter.linalg import random_density
from qfilter.master import TimeGrid
from qfilter.model import CoherentInput, HPModel
from qfilter.trajectory import (
    COUNTING,
    COUNTING_BETA_MIN,
    KINDS,
    draw_noise,
    filter_record,
    propagate,
    simulate_record,
    zakai_filter,
)
from qfilter.verify import random_model

DT = 1e-3
JUMP_PROBABILITY_BUDGET = 0.05
GRID = TimeGrid(dt=DT, steps=40)
N_TRAJ = 3

cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4]),
    st.sampled_from(KINDS),
    st.sampled_from(["constant", "sinusoid"]),
)
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
    assert replayed_innov.increments.tobytes() == innov.increments.tobytes()


@exact
@given(cases)
def test_batched_row_equals_standalone_trajectory_bit_for_bit(case):
    master_seed, dim, kind, beta_kind = case
    model, beta, rho0 = random_case(master_seed, dim, beta_kind)
    seeds = [mix_seed(master_seed, i) for i in range(N_TRAJ)]
    noise = np.stack([draw_noise(np.random.default_rng(s), kind, GRID) for s in seeds], axis=1)
    stack = np.broadcast_to(rho0, (N_TRAJ, dim, dim)).copy()
    batched = np.stack([rho for rho, _, _ in propagate(model, beta, stack, kind, GRID, noise=noise)])
    for i, s in enumerate(seeds):
        _, states, _ = simulate_record(model, beta, rho0, kind, GRID, s)
        assert batched[:, i].tobytes() == states[1:].tobytes()


def zakai_log_norm_reference(model, beta, rho0, record):
    """The log Zakai factors accumulated step by step in Python scalars."""
    dt, total, path = record.grid.dt, 0.0, [0.0]
    steps = propagate(model, beta, rho0, record.kind, record.grid, increments=record.increments)
    for k, (_, dy, intensity) in enumerate(steps):
        b = complex(beta.value(record.grid.t0 + k * dt))
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

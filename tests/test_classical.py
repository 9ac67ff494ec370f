import numpy as np
import pytest

from conftest import riccati_steady_state
from qfilter.classical import (
    bistable_double_well,
    kalman_bucy_step,
    linear_model,
    normalized_weights,
    particle_step,
    run_benchmark,
    simulate_pair,
    systematic_resample,
)
from qfilter.config import CLASSICAL_DEFAULTS
from qfilter.linalg import NumericalError
from qfilter.master import TimeGrid


def test_simulate_pair_shapes_and_determinism():
    grid = TimeGrid(dt=1e-2, steps=100)
    model = linear_model()
    xs1, dys1 = simulate_pair(model, 0.5, grid, seed=1)
    xs2, dys2 = simulate_pair(model, 0.5, grid, seed=1)
    assert xs1.shape == (101,) and dys1.shape == (100,)
    assert np.array_equal(xs1, xs2) and np.array_equal(dys1, dys2)
    assert xs1[0] == 0.5


def test_ou_marginal_statistics():
    # OU with a = -1, sigma = 1 has stationary variance 1/2.
    grid = TimeGrid(dt=1e-2, steps=500)
    model = linear_model()
    finals = [simulate_pair(model, 0.0, grid, seed=s)[0][-1] for s in range(400)]
    assert np.var(finals) == pytest.approx(0.5, abs=0.12)
    assert np.mean(finals) == pytest.approx(0.0, abs=0.15)


def test_particle_ensemble_invariants():
    rng = np.random.default_rng(50)
    w = normalized_weights(np.zeros(100))
    assert 1.0 / np.sum(w**2) == pytest.approx(100.0)
    assert w.sum() == pytest.approx(1.0)
    model = linear_model()
    with pytest.raises(ValueError, match="aligned"):
        particle_step(np.zeros(3), np.zeros(2), 0.0, model, 0.1, rng)
    with pytest.raises(ValueError, match="aligned"):
        particle_step(np.zeros(0), np.zeros(0), 0.0, model, 0.1, rng)
    with pytest.raises(ValueError, match="aligned"):
        systematic_resample(np.zeros(3), np.full(2, 0.5), rng)
    vanished = np.array([-np.inf, -np.inf])
    with pytest.raises(NumericalError, match="vanished"):
        normalized_weights(vanished)
    with pytest.raises(NumericalError, match="vanished"):
        particle_step(np.zeros(2), vanished, 0.0, model, 0.1, rng)


def test_systematic_resample_counts_within_floor_ceil():
    # Systematic resampling guarantees each particle is copied either
    # floor(n w_i) or ceil(n w_i) times.
    rng = np.random.default_rng(51)
    n = 64
    positions = np.arange(n, dtype=float)
    raw = rng.random(n) + 0.05
    w = raw / raw.sum()
    for _ in range(5):
        r = systematic_resample(positions, w, rng)
        counts = np.bincount(r.astype(int), minlength=n)
        assert np.all(counts >= np.floor(n * w))
        assert np.all(counts <= np.ceil(n * w))


def test_particle_filter_tracks_kalman():
    grid = TimeGrid(dt=1e-3, steps=1000)
    a, c, sigma = -1.0, 1.0, 1.0
    model = linear_model(a=a, sigma=sigma, c=c)
    xs, dys = simulate_pair(model, 0.0, grid, seed=7)
    rng = np.random.default_rng(8)
    x, log_w = rng.standard_normal(2000), np.zeros(2000)
    mean, cov = 0.0, 1.0
    diffs = []
    for i in range(grid.steps):
        x, log_w, w = particle_step(x, log_w, dys[i], model, grid.dt, rng)
        mean, cov = kalman_bucy_step(mean, cov, dys[i], a, c, sigma, grid.dt)
        diffs.append(np.sum(w * x) - mean)
    assert np.sqrt(np.mean(np.array(diffs) ** 2)) < 0.1


def test_kalman_covariance_converges_to_riccati_fixed_point():
    a, c, sigma = -0.5, 2.0, 1.5
    p_inf = riccati_steady_state(a, c, sigma)
    assert 2 * a * p_inf + sigma**2 - c**2 * p_inf**2 == pytest.approx(0.0, abs=1e-12)
    mean, cov = 0.0, 3.0
    for _ in range(40000):
        mean, cov = kalman_bucy_step(mean, cov, 0.0, a, c, sigma, 1e-3)
    assert cov == pytest.approx(p_inf, abs=1e-9)


def test_kalman_bucy_step_rejects_negative_covariance():
    # P' = P - c^2 P^2 dt at a = sigma = 0: dt = 1 lands on 0, dt = 2 overshoots to -1.
    assert kalman_bucy_step(0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0) == (0.0, 0.0)
    with pytest.raises(NumericalError, match="covariance"):
        kalman_bucy_step(0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 2.0)
    # A nan or infinite covariance, given or reached, is rejected too.
    for cov, sigma in ((np.nan, 0.0), (np.inf, 0.0), (1.0, np.inf)):
        with pytest.raises(NumericalError, match="covariance"):
            kalman_bucy_step(0.0, cov, 0.0, 0.0, 1.0, sigma, 1.0)


def test_double_well_drift_sign():
    m = bistable_double_well()
    assert m.drift(0.5) > 0
    assert m.drift(2.0) < 0
    assert m.drift(-0.5) < 0


def test_particle_step_rejects_bad_dt():
    rng = np.random.default_rng(52)
    with pytest.raises(ValueError):
        particle_step(rng.standard_normal(10), np.zeros(10), 0.0, linear_model(), 0.0, rng)


@pytest.mark.parametrize("preset", ["linear", "bistable-double-well"])
def test_run_benchmark_columns(preset):
    grid = TimeGrid(dt=1e-2, steps=30)
    spec = {**CLASSICAL_DEFAULTS, "preset": preset, "particles": 50}
    columns = run_benchmark(grid, 4, **spec)
    expected = ["x_true", "pf_mean", "pf_var", "innovations"]
    if preset == "linear":
        expected += ["kalman_mean", "kalman_var"]
    assert list(columns) == expected
    for values in columns.values():
        assert values.shape == (grid.steps + 1,) and np.all(np.isfinite(values))
    assert columns["x_true"][0] == spec["x0"] and columns["innovations"][0] == 0.0
    again = run_benchmark(grid, 4, **spec)
    assert all(np.array_equal(columns[k], again[k]) for k in columns)

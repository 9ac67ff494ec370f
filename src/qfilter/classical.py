"""Classical nonlinear filtering benchmark.

Scalar state-observation SDE pair

    dX = v(X) dt + sigma dW_proc,
    dY = c X dt + dW_obs,

a bootstrap particle filter with Kallianpur-Striebel log-weights and
systematic resampling, and a scalar Kalman-Bucy oracle for the
linear-Gaussian case.  Observation noise is normalized to unity.

The filter states are plain values: (N,) arrays of particle positions
and log-weights, and a Kalman-Bucy (mean, covariance) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError


@dataclass(frozen=True)
class ClassicalModel:
    """The module's SDE pair, its drift v vectorized over particle arrays."""

    drift: callable
    sigma: float
    c: float


def linear_model(a: float = -1.0, sigma: float = 1.0, c: float = 1.0) -> ClassicalModel:
    """Ornstein-Uhlenbeck state with linear observation (Kalman-Bucy solvable)."""
    return ClassicalModel(drift=lambda x: a * x, sigma=sigma, c=c)


def bistable_double_well(sigma: float = 0.5, c: float = 1.0) -> ClassicalModel:
    """Double-well drift x - x^3; a standard nonlinear filtering benchmark."""
    return ClassicalModel(drift=lambda x: x - x**3, sigma=sigma, c=c)


PRESETS = {
    "linear": linear_model,
    "bistable-double-well": bistable_double_well,
}


def simulate_pair(cm: ClassicalModel, x0: float, grid, seed: int):
    """Euler-Maruyama state path and observation increments, independent noises."""
    rng = np.random.default_rng(seed)
    dt = grid.dt
    sqdt = np.sqrt(dt)
    xs = np.empty(grid.steps + 1)
    dys = np.empty(grid.steps)
    xs[0] = x0
    dw_proc = rng.standard_normal(grid.steps) * sqdt
    dw_obs = rng.standard_normal(grid.steps) * sqdt
    for k in range(grid.steps):
        x = xs[k]
        dys[k] = cm.c * x * dt + dw_obs[k]
        xs[k + 1] = x + cm.drift(x) * dt + cm.sigma * dw_proc[k]
    return xs, dys


# Systematic resampling fires when the effective sample size drops below
# this fraction of the particle count.
RESAMPLE_THRESHOLD = 0.5


def _check_aligned(positions: np.ndarray, weights: np.ndarray) -> None:
    if len(positions) < 1 or len(positions) != len(weights):
        raise ValueError("positions and weights must be nonempty and aligned")


def normalized_weights(log_weights: np.ndarray) -> np.ndarray:
    """exp(log_weights) scaled to unit sum; raises when all weights vanish."""
    top = np.max(log_weights)
    if not np.isfinite(top):
        raise NumericalError("all particle weights vanished")
    w = np.exp(log_weights - top)
    return w / w.sum()


def systematic_resample(
    positions: np.ndarray, weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Resampled positions, one uniform draw; the new weights are uniform."""
    _check_aligned(positions, weights)
    n = len(positions)
    u = (rng.random() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(weights), u)
    idx = np.minimum(idx, n - 1)
    return positions[idx]


def particle_step(
    positions: np.ndarray,
    log_weights: np.ndarray,
    dy: float,
    cm: ClassicalModel,
    dt: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate-then-reweight realization of the unnormalized filter.

    Log-weights gain the discrete Kallianpur-Striebel factor
    h dY - (1/2) h^2 dt with h = c x; systematic resampling fires when the
    effective sample size drops below RESAMPLE_THRESHOLD * N.  Returns
    (positions, log_weights, normalized weights) after the step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_aligned(positions, log_weights)
    n = len(positions)
    noise = rng.standard_normal(n) * np.sqrt(dt)
    moved = positions + cm.drift(positions) * dt + cm.sigma * noise
    h = cm.c * moved
    log_w = log_weights + h * dy - 0.5 * h**2 * dt
    w = normalized_weights(log_w)
    if 1.0 / float(np.sum(w**2)) < RESAMPLE_THRESHOLD * n:
        moved = systematic_resample(moved, w, rng)
        log_w = np.zeros(n)
        w = normalized_weights(log_w)
    return moved, log_w, w


def kalman_bucy_step(
    mean: float, cov: float, dy: float, a: float, c: float, sigma: float, dt: float
) -> tuple[float, float]:
    """Euler step of the scalar Kalman-Bucy filter; returns (mean, cov).

    mean += a mean dt + P c (dY - c mean dt);  P += (2aP + sigma^2 - c^2 P^2) dt.
    `mean` and `dy` may be arrays of independent filters sharing P.
    """
    new_mean = mean + a * mean * dt + cov * c * (dy - c * mean * dt)
    new_cov = cov + (2 * a * cov + sigma**2 - c**2 * cov**2) * dt
    if not -1e-10 <= new_cov < np.inf:  # also true for nan
        raise NumericalError(f"covariance {new_cov} went negative or non-finite")
    return new_mean, new_cov


def run_benchmark(
    grid, seed: int, *, preset: str, a: float, c: float, sigma: float,
    particles: int, x0: float, prior_std: float,
) -> dict:
    """Particle filter (and, for the linear preset, Kalman-Bucy) on one simulated path.

    The path and record come from `seed`, the particles from seed + 1.
    `a` is the linear preset's drift rate; the other presets ignore it.
    Returns the classical.csv columns over grid.times(): x_true, pf_mean,
    pf_var, the cumulative innovations dY - pi(h) dt, pi(h) taken before
    each step, and kalman_mean, kalman_var for the linear preset only.
    """
    linear = preset == "linear"
    model = linear_model(a=a, sigma=sigma, c=c) if linear else PRESETS[preset](sigma=sigma, c=c)
    xs, dys = simulate_pair(model, x0, grid, seed)
    rng = np.random.default_rng(seed + 1)
    positions = x0 + prior_std * rng.standard_normal(particles)
    log_weights = np.zeros(particles)
    weights = normalized_weights(log_weights)
    mean, cov = x0, prior_std**2
    pf = np.empty((grid.steps + 1, 2))  # posterior mean, variance
    kb = np.empty((grid.steps + 1, 2))
    h_means = np.empty(grid.steps)

    def moments(x, w):
        m = float(np.sum(w * x))
        return m, float(np.sum(w * x**2)) - m**2

    pf[0] = moments(positions, weights)
    kb[0] = mean, cov
    for k in range(grid.steps):
        h_means[k] = float(np.sum(weights * (model.c * positions)))
        positions, log_weights, weights = particle_step(
            positions, log_weights, dys[k], model, grid.dt, rng
        )
        pf[k + 1] = moments(positions, weights)
        if linear:
            mean, cov = kalman_bucy_step(mean, cov, dys[k], a, c, sigma, grid.dt)
            kb[k + 1] = mean, cov
    innov = np.concatenate([[0.0], np.cumsum(dys - h_means * grid.dt)])
    columns = {"x_true": xs, "pf_mean": pf[:, 0], "pf_var": pf[:, 1], "innovations": innov}
    if linear:
        columns["kalman_mean"], columns["kalman_var"] = kb[:, 0], kb[:, 1]
    return columns

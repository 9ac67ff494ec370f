"""Classical nonlinear filtering benchmark.

Scalar state-observation SDE pair

    dX = v(X) dt + sigma_X(X) dW_proc,
    dY = h(X) dt + dW_obs,

a bootstrap particle filter with Kallianpur-Striebel log-weights and
systematic resampling, and a scalar Kalman-Bucy oracle for the
linear-Gaussian case.  Observation noise is normalized to unity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClassicalModel:
    """Scalar diffusion with additive-Wiener observation; callables are
    vectorized over particle arrays."""

    drift: callable
    diffusion: callable
    observation: callable


def linear_model(a: float = -1.0, sigma: float = 1.0, c: float = 1.0) -> ClassicalModel:
    """Ornstein-Uhlenbeck state with linear observation (Kalman-Bucy solvable)."""
    return ClassicalModel(
        drift=lambda x: a * x,
        diffusion=lambda x: sigma * np.ones_like(np.asarray(x, dtype=float)),
        observation=lambda x: c * x,
    )


def bistable_double_well(sigma: float = 0.5, c: float = 1.0) -> ClassicalModel:
    """Double-well drift x - x^3; a standard nonlinear filtering benchmark."""
    return ClassicalModel(
        drift=lambda x: x - x**3,
        diffusion=lambda x: sigma * np.ones_like(np.asarray(x, dtype=float)),
        observation=lambda x: c * x,
    )


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
        dys[k] = cm.observation(x) * dt + dw_obs[k]
        xs[k + 1] = x + cm.drift(x) * dt + cm.diffusion(x) * dw_proc[k]
    return xs, dys


@dataclass(frozen=True)
class ParticleEnsemble:
    positions: np.ndarray
    log_weights: np.ndarray
    t: float

    def __post_init__(self):
        if len(self.positions) < 1 or len(self.positions) != len(self.log_weights):
            raise ValueError("positions and log_weights must be nonempty and aligned")
        if not np.isfinite(np.max(self.log_weights)):
            raise ValueError("all particle weights vanished")

    @property
    def n(self) -> int:
        return len(self.positions)

    def normalized_weights(self) -> np.ndarray:
        w = np.exp(self.log_weights - np.max(self.log_weights))
        return w / w.sum()

    def effective_sample_size(self) -> float:
        w = self.normalized_weights()
        return 1.0 / float(np.sum(w**2))


def init_ensemble(rng: np.random.Generator, n: int, mean: float, std: float) -> ParticleEnsemble:
    positions = mean + std * rng.standard_normal(n)
    return ParticleEnsemble(positions=positions, log_weights=np.zeros(n), t=0.0)


def systematic_resample(e: ParticleEnsemble, rng: np.random.Generator) -> ParticleEnsemble:
    w = e.normalized_weights()
    n = e.n
    u = (rng.random() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(w), u)
    idx = np.minimum(idx, n - 1)
    return ParticleEnsemble(positions=e.positions[idx], log_weights=np.zeros(n), t=e.t)


def particle_step(
    e: ParticleEnsemble,
    dy: float,
    cm: ClassicalModel,
    dt: float,
    rng: np.random.Generator,
    resample_threshold: float = 0.5,
) -> ParticleEnsemble:
    """Propagate-then-reweight realization of the unnormalized filter.

    Log-weights gain the discrete Kallianpur-Striebel factor
    h(x) dY - (1/2) h(x)^2 dt; systematic resampling fires when the
    effective sample size drops below resample_threshold * N.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = e.positions
    moved = x + cm.drift(x) * dt + cm.diffusion(x) * (rng.standard_normal(e.n) * np.sqrt(dt))
    h = cm.observation(moved)
    log_w = e.log_weights + h * dy - 0.5 * h**2 * dt
    out = ParticleEnsemble(positions=moved, log_weights=log_w, t=e.t + dt)
    if out.effective_sample_size() < resample_threshold * out.n:
        out = systematic_resample(out, rng)
    return out


def posterior(e: ParticleEnsemble, f) -> float:
    """Weight-normalized posterior mean of f over the particles."""
    return float(np.sum(e.normalized_weights() * f(e.positions)))


@dataclass(frozen=True)
class KalmanState:
    mean: float
    covariance: float

    def __post_init__(self):
        if self.covariance < -1e-10:
            raise ValueError("covariance must be nonnegative")


def kalman_bucy_step(
    k: KalmanState, dy: float, a: float, c: float, sigma: float, dt: float
) -> KalmanState:
    """Euler step of the scalar Kalman-Bucy filter.

    mean += a mean dt + P c (dY - c mean dt);  P += (2aP + sigma^2 - c^2 P^2) dt.
    """
    p = k.covariance
    mean = k.mean + a * k.mean * dt + p * c * (dy - c * k.mean * dt)
    cov = p + (2 * a * p + sigma**2 - c**2 * p**2) * dt
    return KalmanState(mean=mean, covariance=cov)


def riccati_steady_state(a: float, c: float, sigma: float) -> float:
    """Fixed point of the scalar Riccati equation: (a + sqrt(a^2 + c^2 sigma^2)) / c^2."""
    return (a + np.sqrt(a**2 + c**2 * sigma**2)) / c**2


def classical_innovations(dys: np.ndarray, posterior_h_means: np.ndarray, dt: float) -> np.ndarray:
    """dI = dY - pi(h) dt, with pi(h) evaluated before each step."""
    dys = np.asarray(dys, dtype=float)
    means = np.asarray(posterior_h_means, dtype=float)
    if dys.shape != means.shape:
        raise ValueError("record and posterior means are misaligned")
    return dys - means * dt


def run_benchmark(
    grid, seed: int, *, preset: str, a: float, c: float, sigma: float,
    particles: int, x0: float, prior_std: float,
) -> dict:
    """Particle filter (and, for the linear preset, Kalman-Bucy) on one simulated path.

    The path and record come from `seed`, the particles from seed + 1.
    `a` is the linear preset's drift rate; the other presets ignore it.
    Returns the classical.csv columns over grid.times(): x_true, pf_mean,
    pf_var, cumulative innovations, and kalman_mean, kalman_var for the
    linear preset only.
    """
    linear = preset == "linear"
    model = linear_model(a=a, sigma=sigma, c=c) if linear else PRESETS[preset](sigma=sigma, c=c)
    xs, dys = simulate_pair(model, x0, grid, seed)
    rng = np.random.default_rng(seed + 1)
    ensemble = init_ensemble(rng, particles, mean=x0, std=prior_std)
    kalman = KalmanState(mean=x0, covariance=prior_std**2)
    pf = np.empty((grid.steps + 1, 2))  # posterior mean, variance
    kb = np.empty((grid.steps + 1, 2))
    h_means = np.empty(grid.steps)

    def moments(e):
        m = posterior(e, lambda x: x)
        return m, posterior(e, lambda x: x**2) - m**2

    pf[0] = moments(ensemble)
    kb[0] = kalman.mean, kalman.covariance
    for k in range(grid.steps):
        h_means[k] = posterior(ensemble, model.observation)
        ensemble = particle_step(ensemble, dys[k], model, grid.dt, rng)
        pf[k + 1] = moments(ensemble)
        if linear:
            kalman = kalman_bucy_step(kalman, dys[k], a, c, sigma, grid.dt)
            kb[k + 1] = kalman.mean, kalman.covariance
    innov = np.concatenate([[0.0], np.cumsum(classical_innovations(dys, h_means, grid.dt))])
    columns = {"x_true": xs, "pf_mean": pf[:, 0], "pf_var": pf[:, 1], "innovations": innov}
    if linear:
        columns["kalman_mean"], columns["kalman_var"] = kb[:, 0], kb[:, 1]
    return columns

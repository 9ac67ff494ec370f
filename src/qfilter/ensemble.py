"""Monte Carlo harness: batches of independent filtering trajectories.

All trajectories of an ensemble are propagated together as a stacked
(N, d, d) array through the same filter loop (`trajectory.propagate`) that
runs single trajectories; trajectory i draws its noise from a seed mixed
out of (master_seed, i), so it is bit-reproducible in isolation.
Aggregates are taken on the fly at the checkpoints, in fixed trajectory
order; no per-step state stack is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import trace_distance, validate_density
from .master import TimeGrid, integrate_master
from .model import CoherentInput, HPModel
from .trajectory import KINDS, draw_noise, propagate

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """SplitMix64-style mixing of (master_seed, trajectory index)."""
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class EnsembleConfig:
    model: HPModel
    beta: CoherentInput
    rho0: np.ndarray
    grid: TimeGrid
    kind: str
    n_traj: int
    master_seed: int = 0
    observables: dict = field(default_factory=dict)
    n_checkpoints: int = 50
    record_bias: float = 0.0  # added to every dY; nonzero only for negative controls

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if self.kind not in KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        validate_density(self.rho0)


@dataclass(frozen=True)
class EnsembleReport:
    """Aggregates at checkpoint times, plus the master-equation comparison."""

    config: EnsembleConfig
    checkpoint_times: np.ndarray
    mean_states: np.ndarray
    observable_means: dict
    observable_stderrs: dict
    innovations_mean: np.ndarray
    innovations_stderr: np.ndarray
    trace_distances_to_master: np.ndarray
    mean_purity: np.ndarray

    @property
    def sup_trace_distance(self) -> float:
        return float(np.max(self.trace_distances_to_master))

    def summary_dict(self) -> dict:
        return {
            "n_trajectories": self.config.n_traj,
            "master_seed": self.config.master_seed,
            "kind": self.config.kind,
            "sup_trace_distance_to_master": self.sup_trace_distance,
            "max_abs_innovations_z": float(np.max(np.abs(self.innovations_z_scores()))),
            "checkpoint_times": self.checkpoint_times.tolist(),
        }

    def innovations_z_scores(self) -> np.ndarray:
        stderr = np.where(self.innovations_stderr > 0, self.innovations_stderr, 1.0)
        z = self.innovations_mean / stderr
        return np.where(self.innovations_stderr > 0, z, 0.0)


def _checkpoint_indices(steps: int, n_checkpoints: int) -> np.ndarray:
    n = min(n_checkpoints, steps)
    # Evenly spaced, always including the final step.
    return np.unique(np.round(np.linspace(0, steps, n + 1)[1:]).astype(int))


def run_ensemble(cfg: EnsembleConfig) -> EnsembleReport:
    """Propagate N trajectories and aggregate against the master equation."""
    grid = cfg.grid
    n = cfg.n_traj
    # Filled column by column: a list of N draws and their stack would hold the
    # noise twice, and would leave the heap fragmented for the next run.
    noise = np.empty((grid.steps, n))
    for i in range(n):
        noise[:, i] = draw_noise(np.random.default_rng(mix_seed(cfg.master_seed, i)), cfg.kind, grid)
    rho0 = np.broadcast_to(np.asarray(cfg.rho0, dtype=complex), (n,) + cfg.rho0.shape).copy()
    innov_cum = np.zeros(n)

    master = integrate_master(cfg.model, cfg.beta, cfg.rho0, grid)
    checkpoints = set(_checkpoint_indices(grid.steps, cfg.n_checkpoints).tolist())

    times, mean_states, mean_purities, distances = [], [], [], []
    obs_means = {name: [] for name in cfg.observables}
    obs_stderrs = {name: [] for name in cfg.observables}
    innov_means, innov_stderrs = [], []

    steps = propagate(
        cfg.model, cfg.beta, rho0, cfg.kind, grid, noise=noise, record_bias=cfg.record_bias
    )
    for k, (rho, dy, intensity) in enumerate(steps, start=1):
        innov_cum += dy - intensity * grid.dt
        if k not in checkpoints:
            continue
        times.append(k * grid.dt)
        mean_rho = rho.sum(axis=0) / n
        mean_states.append(mean_rho)
        mean_purities.append(float(np.mean(np.einsum("nij,nji->n", rho, rho).real)))
        distances.append(trace_distance(mean_rho, master[k]))
        for name, op in cfg.observables.items():
            vals = np.einsum("nij,ji->n", rho, op).real
            obs_means[name].append(float(vals.mean()))
            obs_stderrs[name].append(float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)
        innov_means.append(float(innov_cum.mean()))
        innov_stderrs.append(float(innov_cum.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)

    return EnsembleReport(
        config=cfg,
        checkpoint_times=np.array(times),
        mean_states=np.array(mean_states),
        observable_means={k: np.array(v) for k, v in obs_means.items()},
        observable_stderrs={k: np.array(v) for k, v in obs_stderrs.items()},
        innovations_mean=np.array(innov_means),
        innovations_stderr=np.array(innov_stderrs),
        trace_distances_to_master=np.array(distances),
        mean_purity=np.array(mean_purities),
    )


def martingale_test(report: EnsembleReport, z_max: float = 4.0):
    """Zero-mean check of the innovations at the checkpoints.

    Passes iff max |mean(I_t)| / stderr <= z_max.  Requires N >= 100 for
    the normal approximation to be meaningful.
    """
    if report.config.n_traj < 100:
        raise ValueError("martingale test needs at least 100 trajectories")
    z = report.innovations_z_scores()
    return bool(np.max(np.abs(z)) <= z_max), z

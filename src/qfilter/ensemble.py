"""Monte Carlo harness: batches of independent filtering trajectories.

All trajectories of an ensemble are propagated together as a stacked
(N, d, d) array through the same filter loop (`trajectory.propagate`) that
runs single trajectories; trajectory i draws its noise from a seed mixed
out of (master_seed, i), so it is bit-reproducible in isolation.  The N
noise columns come from one `trajectory.draw_noise` call, which seeds all
N streams in one vectorized pass, with one PCG64 for every draw.
Aggregates are taken on the fly at N_CHECKPOINTS evenly spaced steps, in
fixed trajectory order; no per-step state stack is kept, and of the master
equation's path only the checkpoint states.  `run_ensemble`
returns them as the ensemble.csv columns, a name -> (checkpoints,) array
dict, and `innovations_z` reads the martingale z-scores off those columns.
"""

from __future__ import annotations

import numpy as np

from .linalg import trace_distance, validate_density
from .master import TimeGrid, hermitian, integrate_master
from .model import CoherentInput, HPModel
from .trajectory import KINDS, check_seeds, check_trace, draw_noise, propagate

N_CHECKPOINTS = 50

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """SplitMix64-style mixing of (master_seed, trajectory index)."""
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _checkpoint_steps(steps: int) -> np.ndarray:
    n = min(N_CHECKPOINTS, steps)
    # Evenly spaced, always including the final step. They are sorted, so a step that
    # repeats the one before is dropped without np.unique, whose first call imports numpy.ma.
    at = np.round(np.linspace(0, steps, n + 1)[1:]).astype(int)
    return at[np.diff(at, prepend=-1) != 0]


def _mean_stderr(x: np.ndarray) -> list:
    n = len(x)
    return [float(x.mean()), float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0]


def run_ensemble(
    model: HPModel,
    beta: CoherentInput,
    rho0: np.ndarray,
    kind: str,
    grid: TimeGrid,
    n_traj: int,
    master_seed: int = 0,
    observables: dict | None = None,
) -> dict:
    """Propagate n_traj trajectories and aggregate them against the master equation.

    Returns the ensemble.csv columns at the checkpoints, in order: t,
    mean_<name> and stderr_<name> of tr(rho O) per observable, the mean
    and standard error of the cumulative innovations, the trace distance
    of the mean state to the master-equation state, and the mean purity.
    A checkpoint state off trace 1 raises `trajectory.TraceLossError`.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if kind not in KINDS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    check_seeds((master_seed,))  # mix_seed works modulo 2**64, where a seed outside would alias
    rho0 = validate_density(rho0)
    observables = observables or {}
    checkpoints = _checkpoint_steps(grid.steps)
    master = integrate_master(model, beta, rho0, grid)[checkpoints]  # the path is not kept
    noise = draw_noise([mix_seed(master_seed, i) for i in range(n_traj)], kind, grid)
    rhos = np.broadcast_to(rho0, (n_traj,) + rho0.shape)

    innov_cum = np.zeros(n_traj)
    rows = []
    steps = propagate(model, beta, rhos, kind, grid, noise=noise)
    for k, (x, dy, intensity) in enumerate(steps, start=1):
        innov_cum += dy - intensity * grid.dt
        if k != checkpoints[len(rows)]:
            continue
        check_trace(x[None], [k - 1], grid.dt)
        rho = hermitian(x)
        row = []
        for op in observables.values():
            row += _mean_stderr(np.einsum("nij,ji->n", rho, op).real)
        row += _mean_stderr(innov_cum)
        row.append(trace_distance(rho.sum(axis=0) / n_traj, master[len(rows)]))
        row.append(float(np.mean(np.einsum("nij,nji->n", rho, rho).real)))
        rows.append(row)

    names = [f"{stat}_{name}" for name in observables for stat in ("mean", "stderr")]
    names += ["innovations_mean", "innovations_stderr", "trace_distance_to_master", "mean_purity"]
    return {"t": checkpoints * grid.dt, **dict(zip(names, np.array(rows).T))}


def innovations_z(columns: dict) -> np.ndarray:
    """Mean cumulative innovations over its standard error, 0 where that error is 0."""
    stderr = columns["innovations_stderr"]
    z = columns["innovations_mean"] / np.where(stderr > 0, stderr, 1.0)
    return np.where(stderr > 0, z, 0.0)

"""Deterministic integration of the coherent-state master equation.

Classical RK4 on d(rho)/dt = L'^{beta(t)}(rho), plus the steady state of a
time-independent generator via the null space of its vectorized form.
Serves as the ensemble-average oracle for the stochastic filters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, validate_density
from .model import CoherentInput, HPModel, adjoint_generator, modulated_operators

TRACE_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid: times t0 + k dt for k = 0..steps."""

    dt: float
    steps: int
    t0: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @classmethod
    def from_duration(cls, dt: float, duration: float, t0: float = 0.0) -> "TimeGrid":
        return cls(dt=dt, steps=int(round(duration / dt)), t0=t0)

    @property
    def duration(self) -> float:
        return self.dt * self.steps

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)


@dataclass(frozen=True)
class MasterTrajectory:
    grid: TimeGrid
    states: np.ndarray

    def expectations(self, observable: np.ndarray) -> np.ndarray:
        return np.trace(self.states @ observable, axis1=-2, axis2=-1)


class StepSizeError(RuntimeError):
    """Trace drift indicates the RK4 step is too large for the generator."""


def integrate_master(
    model: HPModel, beta: CoherentInput, rho0: np.ndarray, grid: TimeGrid
) -> MasterTrajectory:
    """RK4 integration with beta sampled at the substage times."""
    rho = validate_density(rho0).astype(complex)
    states = np.empty((grid.steps + 1,) + rho.shape, dtype=complex)
    states[0] = rho
    dt = grid.dt
    for k in range(grid.steps):
        t = grid.t0 + k * dt
        k1 = adjoint_generator(model, beta, t, rho)
        k2 = adjoint_generator(model, beta, t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = adjoint_generator(model, beta, t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = adjoint_generator(model, beta, t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(np.trace(rho) - 1.0)
        if drift > TRACE_DRIFT_LIMIT:
            raise StepSizeError(
                f"trace drift {drift:.3e} at step {k}: dt={dt} too large for this generator"
            )
        states[k + 1] = rho
    return MasterTrajectory(grid=grid, states=states)


def liouvillian_matrix(model: HPModel, beta_value: complex) -> np.ndarray:
    """Vectorized (column-stacking) generator for a constant-amplitude input.

    vec(A rho B) = (B^T kron A) vec(rho).
    """
    lb, hb = modulated_operators(model, CoherentInput.constant(beta_value), 0.0)
    d = model.dim
    eye = np.eye(d, dtype=complex)
    ldl = dagger(lb) @ lb
    out = -1j * (np.kron(eye, hb) - np.kron(hb.T, eye))
    out += np.kron(lb.conj(), lb)
    out -= 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return out


class DegenerateSteadyStateError(RuntimeError):
    """The generator's null space is not one-dimensional."""


def steady_state(model: HPModel, beta_value: complex, gap_tol: float = 1e-8) -> np.ndarray:
    """Unique stationary density matrix of the constant-beta generator."""
    mat = liouvillian_matrix(model, beta_value)
    _, svals, vh = np.linalg.svd(mat)
    if len(svals) > 1 and svals[-2] <= gap_tol:
        raise DegenerateSteadyStateError(
            f"null space is degenerate (second singular value {svals[-2]:.3e})"
        )
    d = model.dim
    rho = vh[-1].conj().reshape((d, d), order="F")  # column-stacking convention
    rho = 0.5 * (rho + dagger(rho))
    rho = rho / np.trace(rho)
    return rho

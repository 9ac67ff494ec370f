"""Deterministic integration of the coherent-state master equation.

Classical RK4 on d(rho)/dt = L'^{beta(t)}(rho).  Serves as the
ensemble-average oracle for the stochastic filters.

Linear maps of d x d matrices act here, and in the filter loop, in
Liouville space (Havel, J. Math. Phys. 44, 534 (2003)).  A state is
flattened row-major, vec_r(rho) = rho.reshape(d*d), which is Havel's
column-stacking vec(rho^T), so vec_r(A rho B) = (A kron B^T) vec_r(rho).
A map acts on the right of a row vector: vec_r(F(rho)) = vec_r(rho) @ M,
row ab of M being vec_r(F(E_ab)) for the matrix unit E_ab.  Since
L^beta = L + beta S and H^beta is affine in (beta, beta*), every map
built from them is M(beta) = M0 + beta M1 + beta* M2 + |beta|^2 M3; the
four pieces are built once per run (`affine_superoperator`).  `at` forms
M(beta); `apply` gives v @ M(beta) from the four products v @ pieces, so
RK4 under a time-varying beta forms no d^2 x d^2 matrix per stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, validate_density
from .model import CoherentInput, HPModel, lindblad_adjoint, modulated_operators

TRACE_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid: times k dt for k = 0..steps."""

    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @classmethod
    def from_duration(cls, dt: float, duration: float) -> "TimeGrid":
        return cls(dt=dt, steps=int(round(duration / dt)))

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


class StepSizeError(NumericalError):
    """Trace drift indicates the RK4 step is too large for the generator."""


@dataclass(frozen=True)
class AffineSuperoperator:
    """Row-form maps M(beta) = M0 + beta M1 + beta* M2 + |beta|^2 M3.

    pieces has shape (4, d*d, w): the maps side by side, row-form as in
    the module docstring, a matrix-valued map taking d*d columns and a
    scalar-valued one (a trace) one column.
    """

    pieces: np.ndarray

    def at(self, b: complex) -> np.ndarray:
        b = complex(b)
        p0, p1, p2, p3 = self.pieces
        out = p1 * b  # in place from here on: at d = 8 each temporary is 128 kB
        out += p0
        term = p2 * b.conjugate()
        out += term
        out += np.multiply(p3, b.real**2 + b.imag**2, out=term)
        return out

    def apply(self, v: np.ndarray, b: complex) -> np.ndarray:
        """v @ at(b) for a row vector v, from the four products v @ pieces."""
        b = complex(b)
        return np.array([1, b, b.conjugate(), b.real**2 + b.imag**2]) @ (v @ self.pieces)


def affine_superoperator(model: HPModel, maps) -> AffineSuperoperator:
    """The pieces of the row-form maps `maps(L^beta, H^beta, units)`.

    `maps` returns a tuple of arrays, each one map applied to the stack of
    the d*d matrix units: (d*d, d, d) for a matrix-valued map, (d*d,) for a
    scalar-valued one.  The maps are evaluated at beta = 0, 1, -1, i
    and the four pieces solved for, so each map keeps its one definition.
    """
    d = model.dim
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)

    def evaluate(b):
        lb, hb = modulated_operators(model, b)
        return np.concatenate([m.reshape(d * d, -1) for m in maps(lb, hb, units)], axis=1)

    f0, f_plus, f_minus, f_i = (evaluate(b) for b in (0j, 1 + 0j, -1 + 0j, 1j))
    p3 = 0.5 * (f_plus + f_minus) - f0
    even = 0.5 * (f_plus - f_minus)  # M1 + M2
    odd = -1j * (f_i - f0 - p3)  # M1 - M2
    return AffineSuperoperator(np.stack([f0, 0.5 * (even + odd), 0.5 * (even - odd), p3]))


def drift_superoperator(model: HPModel) -> AffineSuperoperator:
    """The generator L'^beta in row form."""
    return affine_superoperator(model, lambda lb, hb, units: (lindblad_adjoint(lb, hb, units),))


def _rk4_polynomial(a: np.ndarray) -> np.ndarray:
    """sum_{k=0}^4 a^k / k!, one RK4 step of a constant linear generator."""
    eye = np.eye(a.shape[0], dtype=complex)
    out = eye + a / 4
    for k in (3, 2, 1):
        out = eye + (a @ out) / k
    return out


def integrate_master(
    model: HPModel, beta: CoherentInput, rho0: np.ndarray, grid: TimeGrid
) -> np.ndarray:
    """The (steps+1, d, d) states by RK4, with beta sampled at the substage times.

    The state steps as a row vector through the row-form generator.  A
    step whose three stage values of beta agree is one product with the
    RK4 polynomial of that generator (exactly RK4), kept while beta is
    unchanged; otherwise each stage applies the pieces to its vector at its
    beta (`AffineSuperoperator.apply`).
    """
    rho = validate_density(rho0).astype(complex)
    d = rho.shape[0]
    generator = drift_superoperator(model)
    states = np.empty((grid.steps + 1, d * d), dtype=complex)
    states[0] = v = rho.reshape(d * d)
    dt = grid.dt
    b_poly = poly = None
    for k in range(grid.steps):
        t = k * dt
        b1, b2, b3 = beta.value(t), beta.value(t + 0.5 * dt), beta.value(t + dt)
        if b1 == b2 == b3:
            if b1 != b_poly:
                b_poly, poly = b1, _rk4_polynomial(dt * generator.at(b1))
            v = v @ poly
        else:
            k1 = generator.apply(v, b1)
            k2 = generator.apply(v + 0.5 * dt * k1, b2)
            k3 = generator.apply(v + 0.5 * dt * k2, b2)
            k4 = generator.apply(v + dt * k3, b3)
            v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(v[:: d + 1].sum() - 1.0)
        if not drift <= TRACE_DRIFT_LIMIT:  # a non-finite trace counts as drift
            raise StepSizeError(
                f"trace drift {drift:.3e} at step {k}: dt={dt} too large for this generator"
            )
        states[k + 1] = v
    return states.reshape(grid.steps + 1, d, d)

"""Finite-dimensional quantum probability.

Conditional expectation onto a commutative measurement algebra, the
unitary-rotation identity and the quantum Bayes formula, all realized
through the joint spectral projections of the generating observables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    COMMUTE_TOL,
    as_operator,
    check_dims,
    commutator,
    dagger,
    joint_spectral_projections,
    max_norm,
)

ZERO_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementAlgebra:
    """Commutative von Neumann algebra vN{Y_1, ..., Y_n} of Hermitian generators.

    Represented by the joint spectral projections of the generators; in
    finite dimension this carries the full algebra.
    """

    generators: tuple
    projections: tuple = field(init=False)

    def __post_init__(self):
        gens = tuple(as_operator(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "projections", joint_spectral_projections(gens)[1])

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    def rotated(self, u: np.ndarray) -> "MeasurementAlgebra":
        """U† M U."""
        return MeasurementAlgebra(tuple(dagger(u) @ g @ u for g in self.generators))


def in_commutant(x: np.ndarray, algebra: MeasurementAlgebra, tol: float = COMMUTE_TOL) -> bool:
    """Whether X commutes with every joint projection of the algebra."""
    x = as_operator(x)
    check_dims(x, *algebra.generators)
    return all(max_norm(commutator(x, p)) <= tol for p in algebra.projections)


def conditional_expectation(
    x: np.ndarray, algebra: MeasurementAlgebra, rho: np.ndarray
) -> np.ndarray:
    """E[X | M] in the state rho, as sum_k c_k P_k.

    c_k = tr(rho P_k X) / tr(rho P_k); branches with vanishing probability
    get coefficient zero (the canonical null-term representative).
    """
    x = as_operator(x)
    rho = as_operator(rho)
    if not in_commutant(x, algebra):
        raise ValueError("observable is not in the commutant of the algebra")
    out = np.zeros_like(x)
    for p in algebra.projections:
        weight = np.trace(rho @ p)
        if abs(weight) > ZERO_WEIGHT_TOL:
            out += (np.trace(rho @ p @ x) / weight) * p
    return out


def _monomials(algebra: MeasurementAlgebra, degree: int = 2):
    """Monomials in the generators up to the given degree, including identity."""
    d = algebra.dim
    mons = [np.eye(d, dtype=complex)]
    mons.extend(algebra.generators)
    if degree >= 2:
        for g in algebra.generators:
            for h in algebra.generators:
                mons.append(g @ h)
    return mons


def verify_defining_property(
    x: np.ndarray, algebra: MeasurementAlgebra, rho: np.ndarray
) -> float:
    """max_Y |tr(rho E[X|M] Y) - tr(rho X Y)| over generator monomials up to degree 2."""
    cond = conditional_expectation(x, algebra, rho)
    residual = 0.0
    for y in _monomials(algebra):
        lhs = np.trace(rho @ cond @ y)
        rhs = np.trace(rho @ x @ y)
        residual = max(residual, abs(lhs - rhs))
    return float(residual)


def rotated_conditional(
    x: np.ndarray, algebra: MeasurementAlgebra, rho: np.ndarray, u: np.ndarray
):
    """Both sides of the unitary-rotation identity.

    Returns (lhs, rhs) with lhs = E[U†XU | U†MU] in the state rho and
    rhs = U† E[X | M]_{U rho U†} U; the two agree for unitary U.
    """
    u = as_operator(u)
    d = u.shape[0]
    if max_norm(dagger(u) @ u - np.eye(d)) > 1e-9:
        raise ValueError("U is not unitary within tolerance")
    rotated_algebra = algebra.rotated(u)
    lhs = conditional_expectation(dagger(u) @ x @ u, rotated_algebra, rho)
    rho_rotated = u @ rho @ dagger(u)
    rhs = dagger(u) @ conditional_expectation(x, algebra, rho_rotated) @ u
    return lhs, rhs


def bayes_conditional(
    x: np.ndarray, f: np.ndarray, algebra: MeasurementAlgebra, rho: np.ndarray
) -> np.ndarray:
    """Quantum Bayes formula: E_F[X | M] = E[F†XF | M] / E[F†F | M].

    F must lie in the commutant of M with tr(rho F†F) = 1; the division is
    coefficient-wise over the joint projections.
    """
    x = as_operator(x)
    f = as_operator(f)
    rho = as_operator(rho)
    if not in_commutant(f, algebra):
        raise ValueError("F is not in the commutant of the algebra")
    if not in_commutant(x, algebra):
        raise ValueError("observable is not in the commutant of the algebra")
    norm = np.trace(rho @ dagger(f) @ f)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"tr(rho F†F) = {norm} is not 1 within tolerance")

    out = np.zeros_like(x)
    fxf = dagger(f) @ x @ f
    ff = dagger(f) @ f
    for p in algebra.projections:
        weight = np.trace(rho @ p)
        if abs(weight) <= ZERO_WEIGHT_TOL:
            continue
        den = np.trace(rho @ p @ ff) / weight
        if abs(den) <= ZERO_WEIGHT_TOL:
            raise ZeroDivisionError(
                "zero denominator coefficient on a projection with nonzero weight"
            )
        num = np.trace(rho @ p @ fxf) / weight
        out += (num / den) * p
    return out

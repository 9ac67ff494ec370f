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

    Represented by the joint spectral projections of the generators, held
    as one (k, d, d) array; in finite dimension this carries the full
    algebra.
    """

    generators: tuple
    projections: np.ndarray = field(init=False)

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=complex) for g in self.generators)
        # joint_spectral_projections validates each generator (`as_operator`).
        object.__setattr__(self, "projections", np.array(joint_spectral_projections(gens)[1]))
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    def rotated(self, u: np.ndarray) -> "MeasurementAlgebra":
        """U† M U."""
        return MeasurementAlgebra(tuple(dagger(u) @ g @ u for g in self.generators))


def _traces(a: np.ndarray) -> np.ndarray:
    return a.trace(axis1=-2, axis2=-1)


def in_commutant(x: np.ndarray, algebra: MeasurementAlgebra, tol: float = COMMUTE_TOL) -> bool:
    """Whether X commutes with every joint projection of the algebra."""
    return _commutes(as_operator(x), algebra, tol)


def _commutes(x: np.ndarray, algebra: MeasurementAlgebra, tol: float = COMMUTE_TOL) -> bool:
    """`in_commutant` for an X that `as_operator` has already validated."""
    check_dims(x, *algebra.generators)
    return max_norm(commutator(x, algebra.projections)) <= tol


def _branch_means(algebra: MeasurementAlgebra, rho: np.ndarray, a: np.ndarray):
    """c_k = tr(rho P_k A) / tr(rho P_k) over the projections, and which weights are live.

    A branch whose weight tr(rho P_k) vanishes is not live and gets c_k = 0.
    """
    weights = _traces(rho @ algebra.projections)
    live = np.abs(weights) > ZERO_WEIGHT_TOL
    num = _traces(rho @ algebra.projections @ a)
    return np.divide(num, weights, out=np.zeros_like(num), where=live), live


def _combine(coefficients: np.ndarray, algebra: MeasurementAlgebra) -> np.ndarray:
    """sum_k c_k P_k."""
    return (coefficients[:, None, None] * algebra.projections).sum(axis=0)


def conditional_expectation(
    x: np.ndarray, algebra: MeasurementAlgebra, rho: np.ndarray
) -> np.ndarray:
    """E[X | M] in the state rho, as sum_k c_k P_k.

    c_k = tr(rho P_k X) / tr(rho P_k); branches with vanishing probability
    get coefficient zero (the canonical null-term representative).
    """
    x = as_operator(x)
    rho = as_operator(rho)
    if not _commutes(x, algebra):
        raise ValueError("observable is not in the commutant of the algebra")
    return _combine(_branch_means(algebra, rho, x)[0], algebra)


def _monomials(algebra: MeasurementAlgebra) -> np.ndarray:
    """Monomials in the generators up to degree 2, including identity, as one stack."""
    gens = np.array(algebra.generators)
    d = algebra.dim
    products = (gens[:, None] @ gens[None, :]).reshape(-1, d, d)
    return np.concatenate([np.eye(d, dtype=complex)[None], gens, products])


def verify_defining_property(
    x: np.ndarray, algebra: MeasurementAlgebra, rho: np.ndarray
) -> float:
    """max_Y |tr(rho E[X|M] Y) - tr(rho X Y)| over generator monomials up to degree 2."""
    cond = conditional_expectation(x, algebra, rho)
    monomials = _monomials(algebra)
    return max_norm(_traces(rho @ cond @ monomials) - _traces(rho @ x @ monomials))


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
    if not _commutes(f, algebra):
        raise ValueError("F is not in the commutant of the algebra")
    if not _commutes(x, algebra):
        raise ValueError("observable is not in the commutant of the algebra")
    norm = np.trace(rho @ dagger(f) @ f)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"tr(rho F†F) = {norm} is not 1 within tolerance")

    den, live = _branch_means(algebra, rho, dagger(f) @ f)
    if np.any(live & (np.abs(den) <= ZERO_WEIGHT_TOL)):
        raise ZeroDivisionError(
            "zero denominator coefficient on a projection with nonzero weight"
        )
    num, _ = _branch_means(algebra, rho, dagger(f) @ x @ f)
    return _combine(np.divide(num, den, out=np.zeros_like(num), where=live), algebra)

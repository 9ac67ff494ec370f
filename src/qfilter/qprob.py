"""Finite-dimensional quantum probability.

Conditional expectation onto a commutative measurement algebra, the
unitary-rotation identity and the quantum Bayes formula, all realized
through the joint spectral projections of the generating observables.

Every function also takes a stack of instances: operands of shape
(..., d, d) and an algebra whose arrays carry the same leading axes.  A
stacked algebra finds the projections of all its instances in one pass
(`linalg.joint_spectra`) and pads each instance to k = d projections with
zero projections; a zero projection has weight 0 in every state, so its branch
is not live, gets coefficient 0 and commutes with everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    COMMUTE_TOL,
    as_operator,
    check_dims,
    commutator,
    dagger,
    is_unitary,
    joint_spectra,
    max_norm,
)

ZERO_WEIGHT_TOL = 1e-12


class ZeroDenominatorError(ZeroDivisionError):
    """E[F†F | M] vanishes on a live branch; `index` names the instance in a stack, () for one."""

    def __init__(self, index: tuple = ()):
        where = f"instance {index}: " if index else ""
        super().__init__(where + "zero denominator coefficient on a projection with nonzero weight")
        self.index = index


@dataclass(frozen=True)
class MeasurementAlgebra:
    """Commutative von Neumann algebra vN{Y_1, ..., Y_n} of Hermitian generators.

    Held as its (..., n, d, d) generators and (..., k, d, d) joint spectral
    projections, which in finite dimension carry the full algebra.  Given
    generators alone, the projections are found: one family's k of them from
    a sequence of (d, d) matrices, or those of a whole stacked array in one
    pass, each instance padded to k = d.  Projections given with the
    generators are kept as they are.
    """

    generators: np.ndarray
    projections: np.ndarray | None = None

    def __post_init__(self):
        gens = self.generators
        if self.projections is None:
            # joint_spectra validates the generators (`as_operator`).
            _, found, count = joint_spectra(gens)
            object.__setattr__(self, "projections", found if found.ndim > 3 else found[:count])
        object.__setattr__(self, "generators", np.asarray(gens, dtype=complex))

    @property
    def dim(self) -> int:
        return self.generators.shape[-1]

    def __getitem__(self, index) -> "MeasurementAlgebra":
        """The instances `index` of a stacked algebra."""
        return MeasurementAlgebra(self.generators[index], self.projections[index])

    def rotated(self, u: np.ndarray) -> "MeasurementAlgebra":
        """U† M U, its projections found afresh from the rotated generators."""
        u = u[..., None, :, :]
        return MeasurementAlgebra(dagger(u) @ self.generators @ u)


def _traces(a: np.ndarray) -> np.ndarray:
    return a.trace(axis1=-2, axis2=-1)


def in_commutant(x: np.ndarray, algebra: MeasurementAlgebra) -> bool:
    """Whether X commutes, within COMMUTE_TOL, with every joint projection of the algebra."""
    return _commutes(as_operator(x), algebra)


def _commutes(x: np.ndarray, algebra: MeasurementAlgebra) -> bool:
    """`in_commutant` for an X that `as_operator` has already validated."""
    check_dims(x, algebra.projections)
    return max_norm(commutator(x[..., None, :, :], algebra.projections)) <= COMMUTE_TOL


def _branch_means(algebra: MeasurementAlgebra, rho: np.ndarray, a: np.ndarray):
    """c_k = tr(rho P_k A) / tr(rho P_k) over the projections, and which weights are live.

    A branch whose weight tr(rho P_k) vanishes is not live and gets c_k = 0.
    """
    weighted = rho[..., None, :, :] @ algebra.projections
    weights = _traces(weighted)
    live = np.abs(weights) > ZERO_WEIGHT_TOL
    num = _traces(weighted @ a[..., None, :, :])
    return np.divide(num, weights, out=np.zeros_like(num), where=live), live


def _combine(coefficients: np.ndarray, algebra: MeasurementAlgebra) -> np.ndarray:
    """sum_k c_k P_k."""
    return (coefficients[..., None, None] * algebra.projections).sum(axis=-3)


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
    gens, d = algebra.generators, algebra.dim
    lead = gens.shape[:-3]
    products = (gens[..., :, None, :, :] @ gens[..., None, :, :, :]).reshape(lead + (-1, d, d))
    eye = np.broadcast_to(np.eye(d, dtype=complex), lead + (1, d, d))
    return np.concatenate([eye, gens, products], axis=-3)


def verify_defining_property(
    x: np.ndarray, algebra: MeasurementAlgebra, rho: np.ndarray
) -> float:
    """max_Y |tr(rho E[X|M] Y) - tr(rho X Y)| over generator monomials up to degree 2.

    Over a stack, the worst of its instances.
    """
    cond = conditional_expectation(x, algebra, rho)
    monomials = _monomials(algebra)
    rho = rho[..., None, :, :]
    return max_norm(
        _traces(rho @ cond[..., None, :, :] @ monomials)
        - _traces(rho @ x[..., None, :, :] @ monomials)
    )


def rotated_conditional(
    x: np.ndarray, algebra: MeasurementAlgebra, rho: np.ndarray, u: np.ndarray
):
    """Both sides of the unitary-rotation identity.

    Returns (lhs, rhs) with lhs = E[U†XU | U†MU] in the state rho and
    rhs = U† E[X | M]_{U rho U†} U; the two agree for unitary U.
    """
    u = as_operator(u)
    if not is_unitary(u):
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
    coefficient-wise over the joint projections.  A zero denominator on a
    live branch raises ZeroDenominatorError naming the first such instance.
    """
    x = as_operator(x)
    f = as_operator(f)
    rho = as_operator(rho)
    if not _commutes(f, algebra):
        raise ValueError("F is not in the commutant of the algebra")
    if not _commutes(x, algebra):
        raise ValueError("observable is not in the commutant of the algebra")
    norm = np.ravel(_traces(rho @ dagger(f) @ f))
    off = np.abs(norm - 1.0)
    if np.max(off) > 1e-9:
        raise ValueError(f"tr(rho F†F) = {norm[np.argmax(off)]} is not 1 within tolerance")

    den, live = _branch_means(algebra, rho, dagger(f) @ f)
    killed = np.any(live & (np.abs(den) <= ZERO_WEIGHT_TOL), axis=-1)
    if np.any(killed):
        raise ZeroDenominatorError(tuple(int(i) for i in np.argwhere(killed)[0]))
    num, _ = _branch_means(algebra, rho, dagger(f) @ x @ f)
    return _combine(np.divide(num, den, out=np.zeros_like(num), where=live), algebra)

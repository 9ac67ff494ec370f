import numpy as np
import pytest

from qfilter import linalg, qprob
from qfilter.linalg import (
    SIGMA_X,
    SIGMA_Z,
    dagger,
    max_norm,
    random_density,
    random_matrix,
    random_unitary,
)
from qfilter.qprob import (
    MeasurementAlgebra,
    bayes_conditional,
    conditional_expectation,
    in_commutant,
    verify_defining_property,
)
from qfilter.verify import qprob_suite


def diagonal_algebra():
    return MeasurementAlgebra((SIGMA_Z,))


def test_commutant_membership():
    alg = diagonal_algebra()
    assert in_commutant(SIGMA_Z, alg)
    assert in_commutant(np.diag([2.0, -3.0]).astype(complex), alg)
    assert not in_commutant(SIGMA_X, alg)


def test_conditional_expectation_diagonal_case():
    # For the sigma_z algebra, E[X|M] keeps the diagonal of X weighted by rho.
    alg = diagonal_algebra()
    rho = np.diag([0.7, 0.3]).astype(complex)
    x = np.diag([2.0, -1.0]).astype(complex)
    cond = conditional_expectation(x, alg, rho)
    assert max_norm(cond - x) < 1e-14  # diagonal X is already measurable


def test_conditional_expectation_rejects_noncommutant():
    with pytest.raises(ValueError):
        conditional_expectation(SIGMA_X, diagonal_algebra(), np.eye(2, dtype=complex) / 2)


def test_each_operand_is_validated_once_per_call(monkeypatch):
    calls, as_operator = [], linalg.as_operator

    def counted(a):
        calls.append(a)
        return as_operator(a)

    monkeypatch.setattr(qprob, "as_operator", counted)
    monkeypatch.setattr(linalg, "as_operator", counted)
    alg = MeasurementAlgebra((SIGMA_Z, np.diag([1.0, 1.0])))
    assert len(calls) == 2
    rho = np.diag([0.7, 0.3])
    calls.clear()
    conditional_expectation(np.diag([2.0, -1.0]), alg, rho)
    assert len(calls) == 2
    calls.clear()
    bayes_conditional(np.diag([2.0, -1.0]), np.eye(2), alg, rho)
    assert len(calls) == 3
    with pytest.raises(ValueError, match="non-finite"):
        conditional_expectation(np.diag([np.nan, 1.0]), alg, rho)
    with pytest.raises(ValueError, match="non-finite"):
        conditional_expectation(SIGMA_Z, alg, np.diag([np.inf, 0.0]))
    with pytest.raises(ValueError, match="square"):
        conditional_expectation(np.ones((2, 3)), alg, rho)
    with pytest.raises(ValueError, match="commutant"):
        conditional_expectation(SIGMA_X, alg, rho)
    with pytest.raises(ValueError, match="F is not in the commutant"):
        bayes_conditional(SIGMA_Z, SIGMA_X, alg, rho)
    with pytest.raises(ValueError, match="square"):
        MeasurementAlgebra((np.ones((2, 3)),))
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementAlgebra((np.diag([np.nan, 1.0]),))


def test_zero_weight_branch_gets_zero_coefficient():
    alg = diagonal_algebra()
    rho = np.diag([1.0, 0.0]).astype(complex)  # ground branch has probability 0
    x = np.diag([2.0, 5.0]).astype(complex)
    cond = conditional_expectation(x, alg, rho)
    assert cond[0, 0] == pytest.approx(2.0)
    assert cond[1, 1] == pytest.approx(0.0)


def test_tower_property_mean():
    # tr(rho E[X|M]) = tr(rho X) for commutant X.
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 4)
    gens = (u @ np.diag([1.0, 1.0, -1.0, 2.0]).astype(complex) @ dagger(u),)
    alg = MeasurementAlgebra(gens)
    a = random_matrix(rng, 4)
    x = sum(p @ a @ p for p in alg.projections)
    rho = random_density(rng, 4)
    cond = conditional_expectation(x, alg, rho)
    assert np.trace(rho @ cond) == pytest.approx(np.trace(rho @ x), abs=1e-12)


def test_defining_property_residual_small():
    rng = np.random.default_rng(6)
    u = random_unitary(rng, 4)
    gens = (u @ np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex) @ dagger(u),)
    alg = MeasurementAlgebra(gens)
    a = random_matrix(rng, 4)
    x = sum(p @ a @ p for p in alg.projections)
    rho = random_density(rng, 4)
    assert verify_defining_property(x, alg, rho) < 1e-10


def test_bayes_requires_normalized_f():
    alg = diagonal_algebra()
    rho = np.eye(2, dtype=complex) / 2
    f = 3.0 * np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        bayes_conditional(SIGMA_Z, f, alg, rho)


def test_bayes_zero_denominator_raises():
    alg = diagonal_algebra()
    rho = np.eye(2, dtype=complex) / 2
    # F kills the ground branch entirely, but that branch has weight 1/2.
    f = np.diag([np.sqrt(2.0), 0.0]).astype(complex)
    assert np.trace(rho @ dagger(f) @ f) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        bayes_conditional(SIGMA_Z, f, alg, rho)


def test_qprob_suite_residuals():
    for result in qprob_suite(seed=0, dims=(2, 4), instances=40):
        assert result.passed, result.line()

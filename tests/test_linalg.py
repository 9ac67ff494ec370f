import numpy as np
import pytest

from qfilter.linalg import (
    PROJ_TOL,
    DimensionMismatchError,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_operator,
    commutator,
    dagger,
    is_hermitian,
    is_unitary,
    joint_spectral_projections,
    max_norm,
    random_density,
    random_hermitian,
    random_unitary,
    trace_distance,
    validate_density,
)


def test_as_operator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.zeros(4))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.nan, 0], [0, 0]]))


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(np.eye(2), np.eye(3))


def test_pauli_algebra():
    assert max_norm(commutator(SIGMA_X, SIGMA_Y) - 2j * SIGMA_Z) == 0
    assert max_norm(dagger(SIGMA_MINUS) - SIGMA_PLUS) == 0
    # sigma_minus maps the excited state (index 0) to the ground state.
    excited = np.array([1, 0], dtype=complex)
    assert np.allclose(SIGMA_MINUS @ excited, [0, 1])


def test_hermitian_unitary_predicates():
    rng = np.random.default_rng(1)
    assert is_hermitian(random_hermitian(rng, 4))
    assert not is_hermitian(random_hermitian(rng, 4) + 1e-6j * np.eye(4))
    u = random_unitary(rng, 4)
    assert is_unitary(u)
    assert not is_unitary(2 * u)


def test_validate_density():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 3)
    assert validate_density(rho) is rho
    with pytest.raises(ValueError):
        validate_density(2 * rho)
    with pytest.raises(ValueError):
        validate_density(rho + 1e-3 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]]))
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        validate_density(bad)


def test_trace_distance_properties():
    rng = np.random.default_rng(3)
    a, b = random_density(rng, 4), random_density(rng, 4)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
    # Orthogonal pure states are at distance 1.
    assert trace_distance(np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)) == pytest.approx(1.0)


def validate_projections(projections, tol=PROJ_TOL):
    """Raise ValueError unless the projections are orthogonal and resolve the identity."""
    d = projections[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for j, p in enumerate(projections):
        if not is_hermitian(p, tol):
            raise ValueError(f"projection {j} is not Hermitian")
        if max_norm(p @ p - p) > tol:
            raise ValueError(f"projection {j} is not idempotent")
        for q in projections[j + 1 :]:
            if max_norm(p @ q) > tol:
                raise ValueError("projections are not mutually orthogonal")
        total += p
    if max_norm(total - np.eye(d)) > tol:
        raise ValueError("projections do not resolve the identity")


def test_joint_spectral_projections_resolve_and_commute():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dim = int(rng.choice([2, 4, 6]))
        u = random_unitary(rng, dim)
        fam = [
            u @ np.diag(rng.integers(-2, 3, size=dim).astype(float)).astype(complex) @ dagger(u)
            for _ in range(2)
        ]
        eigenvalues, projections = joint_spectral_projections(fam)
        validate_projections(projections)
        # Each family member is reconstructed from its joint eigenvalues.
        for j, a in enumerate(fam):
            rebuilt = sum(vals[j] * p for vals, p in zip(eigenvalues, projections))
            assert max_norm(rebuilt - a) < 1e-9


def test_joint_spectral_projections_rejects_noncommuting():
    with pytest.raises(ValueError):
        joint_spectral_projections([SIGMA_X, SIGMA_Z])
    with pytest.raises(ValueError):
        joint_spectral_projections([SIGMA_MINUS])
    with pytest.raises(ValueError):
        joint_spectral_projections([])


def test_degenerate_family_keeps_degenerate_block():
    # sigma_z (x) I on two qubits: two 2-dimensional eigenprojections.
    a = np.kron(SIGMA_Z, np.eye(2)).astype(complex)
    _, projections = joint_spectral_projections([a])
    assert len(projections) == 2
    assert all(np.trace(p).real == pytest.approx(2.0) for p in projections)


def test_random_unitary_is_haar_like_deterministic():
    u1 = random_unitary(np.random.default_rng(7), 3)
    u2 = random_unitary(np.random.default_rng(7), 3)
    assert max_norm(u1 - u2) == 0.0

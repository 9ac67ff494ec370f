import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ginibre,
    haar_unitary,
    hermitian_part,
    is_hermitian,
    is_unitary,
    joint_spectra,
    max_norm,
    normalized_density,
    random_density,
    random_hermitian,
    random_matrix,
    random_unitary,
    trace_distance,
    validate_density,
)
from qfilter.qprob import MeasurementAlgebra
from reference import joint_spectral_projections as reference_projections


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


def test_joint_spectra_of_one_family_resolve_and_commute():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dim = int(rng.choice([2, 4, 6]))
        u = random_unitary(rng, dim)
        fam = [
            u @ np.diag(rng.integers(-2, 3, size=dim).astype(float)).astype(complex) @ dagger(u)
            for _ in range(2)
        ]
        eigenvalues, projections, count = joint_spectra(fam)
        eigenvalues, projections = eigenvalues[:count], projections[:count]
        validate_projections(projections)
        # Each family member is reconstructed from its joint eigenvalues.
        for j, a in enumerate(fam):
            rebuilt = sum(vals[j] * p for vals, p in zip(eigenvalues, projections))
            assert max_norm(rebuilt - a) < 1e-9


def test_joint_spectra_rejects_noncommuting():
    with pytest.raises(ValueError):
        joint_spectra([SIGMA_X, SIGMA_Z])
    with pytest.raises(ValueError):
        joint_spectra([SIGMA_MINUS])
    with pytest.raises(ValueError):
        joint_spectra([])


def test_degenerate_family_keeps_degenerate_block():
    # sigma_z (x) I on two qubits: two 2-dimensional eigenprojections.
    a = np.kron(SIGMA_Z, np.eye(2)).astype(complex)
    _, projections, count = joint_spectra([a])
    assert count == 2
    assert all(np.trace(p).real == pytest.approx(2.0) for p in projections[:count])


def test_random_unitary_is_haar_like_deterministic():
    u1 = random_unitary(np.random.default_rng(7), 3)
    u2 = random_unitary(np.random.default_rng(7), 3)
    assert max_norm(u1 - u2) == 0.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 5))
def test_stacked_forms_equal_the_forms_of_single_matrices(seed, dim, n):
    g = ginibre(np.random.default_rng(seed).standard_normal((n, 2, dim, dim)))
    for form in (haar_unitary, hermitian_part, normalized_density):
        stacked = form(g)
        single = np.array([form(a) for a in g])
        # Bit for bit, the sign of each zero included.
        assert stacked.tobytes() == single.tobytes(), form.__name__


def test_random_instances_keep_their_values():
    """random_* against the per-matrix formulas they had before the stacked forms."""

    def matrix(rng, dim):
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    def unitary(rng, dim):
        q, r = np.linalg.qr(matrix(rng, dim))
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        return q * phases

    def density(rng, dim):
        a = matrix(rng, dim)
        rho = a @ dagger(a)
        return rho / np.trace(rho)

    def hermitian(rng, dim):
        a = matrix(rng, dim)
        return 0.5 * (a + dagger(a))

    pairs = [
        (random_matrix, matrix),
        (random_unitary, unitary),
        (random_density, density),
        (random_hermitian, hermitian),
    ]
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    for dim in range(1, 9):
        for draw, reference in pairs:
            assert draw(rng, dim).tobytes() == reference(reference_rng, dim).tobytes()


def commuting_family(rng, dim: int, spectra: np.ndarray) -> np.ndarray:
    """The (n, d, d) family with these integer spectra in one Haar-random eigenbasis."""
    u = haar_unitary(ginibre(rng.standard_normal((2, dim, dim))))
    return u @ (spectra[:, :, None] * np.eye(dim)) @ dagger(u)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 3),
    st.lists(st.sampled_from(["one", "some", "all"]), min_size=1, max_size=5),
)
def test_joint_spectra_of_a_stack_equal_the_per_family_reference(seed, dim, n, kinds):
    # Integer spectra in [-2, 2], so degenerate blocks occur; an instance has
    # one block, some, or d blocks (distinct joint eigenvalue tuples).
    rng = np.random.default_rng(seed)
    spectra = []
    for kind in kinds:
        if kind == "one":
            spectra.append(np.repeat(rng.integers(-2, 3, (n, 1)), dim, axis=1))
        elif kind == "all" and 5**n >= dim:
            tuples = rng.choice(5**n, dim, replace=False)
            spectra.append(np.array(np.unravel_index(tuples, (5,) * n)) - 2)
        else:
            spectra.append(rng.integers(-2, 3, (n, dim)))
    stack = np.array([commuting_family(rng, dim, e) for e in spectra])
    eigenvalues, projections, counts = joint_spectra(stack)
    assert eigenvalues.shape == (len(kinds), dim, n)
    assert projections.shape == (len(kinds), dim, dim, dim)
    for family, e, kind, values, p, k in zip(stack, spectra, kinds, eigenvalues, projections, counts):
        ref_values, ref_p = reference_projections(family)
        assert k == len(ref_p) == len(set(zip(*e)))
        if kind == "one":
            assert k == 1
        if kind == "all" and 5**n >= dim:
            assert k == dim
        assert max_norm(values[:k] - np.array(ref_values)) <= 1e-12
        assert max_norm(p[:k] - np.array(ref_p)) <= 1e-12
        assert not values[k:].any() and not p[k:].any()
        # The family alone returns the same values.
        single_values, single_p, single_k = joint_spectra(family)
        assert single_k == k and single_values.shape == (dim, n)
        assert max_norm(single_values[:k] - np.array(ref_values)) <= 1e-12
        assert max_norm(single_p[:k] - np.array(ref_p)) <= 1e-12


def _bad_families():
    """{case: (a (2, 2, 2) or (2, 2, 3) family that fails one check, a part of its message)}."""
    h = np.diag([1.0, -1.0]).astype(complex)
    non_hermitian = np.diag([1j, 0.0])  # commutes with h
    return {
        "non-square": (np.ones((2, 2, 3)), "square"),
        "non-finite": (np.array([h, np.diag([np.nan, 1.0])]), "non-finite"),
        "non-Hermitian": (np.array([h, non_hermitian]), "family member 1 is not Hermitian"),
        "non-commuting": (np.array([SIGMA_Z, SIGMA_X]), "family members do not commute"),
        # Member 0 fails to commute before member 1 is checked for Hermiticity.
        "both": (np.array([SIGMA_Z, SIGMA_MINUS]), "family members do not commute"),
    }


@pytest.mark.parametrize("case", list(_bad_families()))
def test_a_bad_family_alone_raises_the_reference_message(case):
    family, expected = _bad_families()[case]
    with pytest.raises(ValueError) as ref:
        reference_projections(family)
    for call in (joint_spectra, lambda f: joint_spectra(list(f))):
        with pytest.raises(ValueError) as new:
            call(family)
        assert str(new.value) == str(ref.value)
        assert expected in str(new.value)


@pytest.mark.parametrize("case", list(_bad_families()))
def test_a_bad_family_in_a_stack_names_its_instance(case):
    family, expected = _bad_families()[case]
    good = np.array([np.eye(family.shape[-2], family.shape[-1])] * len(family), dtype=complex)
    index = 0 if case == "non-square" else 3  # every instance of a non-square stack is non-square
    stack = np.array([good] * 5)
    stack[index] = family
    with pytest.raises(ValueError, match=f"^instance {index}: .*{expected}"):
        joint_spectra(stack)
    with pytest.raises(ValueError, match=f"^instance {index}: .*{expected}"):
        MeasurementAlgebra(stack)

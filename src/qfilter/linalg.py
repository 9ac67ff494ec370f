"""Dense complex linear algebra for small Hilbert spaces.

Operators are plain numpy arrays of shape (d, d) with complex entries, or
stacks of them of shape (..., d, d).
Everything here is a pure function of its inputs; dimensions up to a few
tens are the intended regime (tensor products of a handful of qubits).
"""

from __future__ import annotations

import numpy as np

# Tolerances for density-matrix and projection validation.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
PROJ_TOL = 1e-9
COMMUTE_TOL = 1e-9
EIG_CLUSTER_TOL = 1e-8


class DimensionMismatchError(ValueError):
    """Raised when operator dimensions are incompatible."""


class NumericalError(RuntimeError):
    """A run broke down numerically (CLI exit code 2, not a validation error)."""


def as_operator(a) -> np.ndarray:
    """Coerce input to a square complex matrix or a (..., d, d) stack, checking shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"operator must be square, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError("operator dimension must be >= 1")
    if not np.isfinite(m).all():
        raise ValueError("operator has non-finite entries")
    return m


def check_dims(*ops: np.ndarray) -> int:
    dims = {op.shape[-1] for op in ops}
    if len(dims) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    check_dims(a, b)
    return a @ b - b @ a


def max_norm(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> bool:
    return max_norm(a - dagger(a)) <= tol


def is_unitary(a: np.ndarray, tol: float = PROJ_TOL) -> bool:
    d = a.shape[-1]
    return max_norm(dagger(a) @ a - np.eye(d)) <= tol


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix.

    Returns the matrix unchanged on success, raises ValueError otherwise.
    """
    rho = as_operator(rho)
    if not is_hermitian(rho, HERM_TOL):
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho)} is not 1")
    evals = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if evals.min() < EIG_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {evals.min()} below floor")
    return rho


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """(1/2) sum |eigenvalues(rho1 - rho2)| for Hermitian arguments."""
    check_dims(rho1, rho2)
    diff = rho1 - rho2
    diff = 0.5 * (diff + dagger(diff))
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def joint_spectral_projections(family) -> tuple[tuple, tuple]:
    """Simultaneously diagonalize a commuting Hermitian family.

    Returns (eigenvalues, projections): eigenvalues[k] is the tuple of
    eigenvalues of the family members on the range of projections[k].
    Eigenspaces are refined one family member at a time; eigenvalues closer
    than EIG_CLUSTER_TOL are grouped into a single degenerate subspace.
    """
    mats = [as_operator(a) for a in family]
    if not mats:
        raise ValueError("empty operator family")
    d = check_dims(*mats)
    for j, a in enumerate(mats):
        if not is_hermitian(a, COMMUTE_TOL):
            raise ValueError(f"family member {j} is not Hermitian")
        for b in mats[j + 1 :]:
            if max_norm(commutator(a, b)) > COMMUTE_TOL:
                raise ValueError("family members do not commute")

    # Each block is (basis Q, eigenvalue tuple so far); Q has orthonormal columns.
    blocks = [(np.eye(d, dtype=complex), ())]
    for a in mats:
        refined = []
        for q, vals in blocks:
            sub = dagger(q) @ a @ q
            w, v = np.linalg.eigh(0.5 * (sub + dagger(sub)))
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or w[i] - w[start] > EIG_CLUSTER_TOL:
                    vecs = v[:, start:i]
                    lam = float(w[start:i].sum()) / (i - start)
                    refined.append((q @ vecs, vals + (lam,)))
                    start = i
        blocks = refined

    return tuple(vals for _, vals in blocks), tuple(q @ dagger(q) for q, _ in blocks)


# --- common fixed operators -------------------------------------------------

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|, sigma_z|e> = +|e>
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)

PAULI_BY_NAME = {
    "identity": np.eye(2, dtype=complex),
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
    "sigma_minus": SIGMA_MINUS,
    "sigma_plus": SIGMA_PLUS,
    "p_excited": np.array([[1, 0], [0, 0]], dtype=complex),
    "p_ground": np.array([[0, 0], [0, 1]], dtype=complex),
}


# --- random instances for property tests and the verify suites ---------------

def ginibre(normals: np.ndarray) -> np.ndarray:
    """Complex matrices from real normals laid out as (..., 2, d, d): real parts, then imaginary."""
    return normals[..., 0, :, :] + 1j * normals[..., 1, :, :]


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def haar_unitary(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from Ginibre matrices: QR decomposition with phase fix."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def normalized_density(a: np.ndarray) -> np.ndarray:
    """A A† over its trace."""
    rho = a @ dagger(a)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def random_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return ginibre(rng.standard_normal((2, dim, dim)))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return hermitian_part(random_matrix(rng, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return haar_unitary(random_matrix(rng, dim))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalized_density(random_matrix(rng, dim))

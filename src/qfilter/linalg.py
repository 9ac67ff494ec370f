"""Dense complex linear algebra for small Hilbert spaces.

Operators are plain numpy arrays of shape (d, d) with complex entries, or
stacks of them of shape (..., d, d).
Everything here is a pure function of its inputs; dimensions up to a few
tens are the intended regime (tensor products of a handful of qubits).
`joint_spectra` finds the joint spectral projections of a whole stack of
commuting families in one pass, one stacked eigh per block size.
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


def _blocks(opens: np.ndarray) -> list:
    """[(width, (rows, first columns))] of the blocks of each width; a row of
    `opens` opens a block at each True column (column 0 always)."""
    first = np.flatnonzero(opens)
    widths = np.diff(first, append=opens.size)
    return [(w, np.divmod(first[widths == w], opens.shape[1])) for w in sorted(set(widths.tolist()))]


def _columns(i: np.ndarray, c: np.ndarray, width: int, d: int) -> tuple:
    """The index of the (len(i), d, width) blocks of columns c[k], ..., c[k] + width - 1 of rows i."""
    return i[:, None, None], np.arange(d)[:, None], (c[:, None] + np.arange(width))[:, None, :]


def joint_spectra(family) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneously diagonalize a commuting Hermitian family, or a whole stack in one pass.

    `family` is a sequence of (d, d) matrices, each validated by
    `as_operator`, or an array (..., n, d, d) of families validated at once.
    Returns (eigenvalues (..., d, n), projections (..., d, d, d), counts (...)):
    instance i has counts[i] joint projections, zero-padded past the last,
    and eigenvalues[i][k] holds the family's eigenvalues on the range of
    projections[i][k].  Eigenspaces are refined one family member at a time,
    all blocks of one size at once; eigenvalues closer than EIG_CLUSTER_TOL
    are grouped into a single degenerate subspace.  A failed check on a stack
    names the instance by its C-order index.
    """
    if isinstance(family, np.ndarray) and family.ndim > 3:
        lead = family.shape[:-3]
        try:
            m = as_operator(family).reshape((-1,) + family.shape[-3:])
        except ValueError as exc:
            first = np.argmin(np.isfinite(family).all(axis=(-3, -2, -1)).ravel())
            raise ValueError(f"instance {first}: {exc}") from None
    else:
        lead, mats = (), [as_operator(a) for a in family]
        if not mats:
            raise ValueError("empty operator family")
        check_dims(*mats)
        m = np.array(mats)[None]
    n, d = m.shape[-3], m.shape[-1]
    if not n:
        raise ValueError("empty operator family")
    # Pairs (j, j) check that member j is Hermitian, pairs (j, k > j) that j
    # and k commute, in the order a per-member loop checks them.
    left, right = np.triu_indices(n)
    a, b = m[:, left], m[:, right]
    residual = np.where((left == right)[:, None, None], a - dagger(a), a @ b - b @ a)
    failed = np.argwhere(np.abs(residual).max(axis=(-2, -1)) > COMMUTE_TOL)
    if len(failed):
        i, pair = failed[0]
        j = left[pair]
        message = "family members do not commute"
        if j == right[pair]:
            message = f"family member {j} is not Hermitian"
        raise ValueError((f"instance {i}: " if lead else "") + message)

    # Column c of q[i] is a basis vector of the block that opens at the last
    # column <= c with opens[i] set.  A block splits in place, so the blocks
    # stay ordered by family member, then by eigenvalue.  Each product is
    # taken on the blocks of one width, as a per-family loop would take it.
    q = np.broadcast_to(np.eye(d, dtype=complex), (len(m), d, d)).copy()
    opens = np.zeros((len(m), d), dtype=bool)
    opens[:, 0] = True
    values = np.zeros((len(m), d, n))  # each column's eigenvalues
    for j in range(n):
        for s, (i, c) in _blocks(opens):
            block = q[_columns(i, c, s, d)]
            sub = dagger(block) @ m[i, j] @ block
            w, v = np.linalg.eigh(0.5 * (sub + dagger(sub)))
            cut = np.zeros(w.shape, dtype=bool)
            cut[:, 0] = True
            start = w[:, 0]
            for k in range(1, s):
                cut[:, k] = w[:, k] - start > EIG_CLUSTER_TOL
                start = np.where(cut[:, k], w[:, k], start)
            for width, (g, k) in _blocks(cut):
                q[_columns(i[g], c[g] + k, width, d)] = block[g] @ v[_columns(g, k, width, s)]
                cluster = k[:, None] + np.arange(width)
                mean = w[g[:, None], cluster].sum(axis=1) / width
                values[i[g, None], c[g, None] + cluster, j] = mean[:, None]
            opens[i[:, None], c[:, None] + np.arange(s)] = cut

    index = np.cumsum(opens, axis=1) - 1
    eigenvalues = np.zeros((len(m), d, n))
    projections = np.zeros((len(m), d, d, d), dtype=complex)
    for width, (i, c) in _blocks(opens):
        vecs = q[_columns(i, c, width, d)]
        eigenvalues[i, index[i, c]] = values[i, c]
        projections[i, index[i, c]] = vecs @ dagger(vecs)
    return tuple(x.reshape(lead + x.shape[1:]) for x in (eigenvalues, projections, opens.sum(axis=1)))


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

"""Machine verification suites for the operator-algebra identities.

Each check runs over randomized instances and reports its worst residual;
the CLI `verify` command prints one line per check and fails if any
residual exceeds the reporting threshold, or is NaN.  A suite draws its
instances one after another from `numpy.random.default_rng(seed)`, so the
same seed draws the same instances.  An instance draws its Gaussian
entries in one call (a qprob instance in three, around its integer
spectra); a suite forms one dimension's matrices as (n, d, d) stacks and
checks each identity once per dimension through the library functions;
the qprob suite stacks the algebras too, each padded to d projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ito, qprob
from .linalg import dagger, ginibre, haar_unitary, hermitian_part, max_norm, normalized_density
from .model import (
    HPModel,
    adjoint_generator,
    heisenberg_generator,
    lindblad_heisenberg,
    modulated_coupling,
    modulated_hamiltonian,
)

REPORT_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:<44s} {self.residual:12.3e}  (tol {self.tol:.0e})  {status}"


def _worst(residuals) -> float:
    """The largest residual, NaN if any is NaN, 0 if there are none."""
    return float(np.max(residuals, initial=0.0))


def _instances(rng: np.random.Generator, dims, instances: int, draw, form):
    """Draw `instances` instances in order, each as one row draw(rng, dim) after its dimension.

    Then yields, for each dimension drawn, form(dim, its rows stacked as one array).
    """
    rows = {dim: [] for dim in dims}
    for _ in range(instances):
        dim = int(rng.choice(dims))
        rows[dim].append(draw(rng, dim))
    for dim in dims:
        if rows[dim]:
            yield form(dim, np.array(rows.pop(dim)))


def _qprob_row(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One qprob instance's draws: V's normals, two spectra, then X, rho, Y, U and F's normals.

    Y takes one coefficient per joint projection, that is per distinct pair
    of eigenvalues.  The row holds V, X, rho, U and F, then the spectra and
    Y's coefficients, padded to dim with NaN like the projections with zeros.
    """
    m = dim * dim
    v = rng.standard_normal(2 * m)
    spectra = [rng.integers(-2, 3, size=dim) for _ in range(2)]
    k = len(set(zip(*spectra)))
    z = rng.standard_normal(8 * m + k)
    y = z[4 * m : 4 * m + k]
    return np.concatenate([v, z[: 4 * m], z[4 * m + k :], *spectra, y, np.full(dim - k, np.nan)])


def _qprob_form(dim: int, z: np.ndarray):
    """The qprob instances of one dimension: (algebra, X, rho, Y, U, F).

    The two commuting Hermitian generators share an eigenbasis and now and
    then repeat an eigenvalue so that degenerate blocks occur.  X and F, the
    Bayes factor (not yet normalized), are block-diagonal in their joint
    projections; Y, the least-squares rival, is a random algebra element.
    """
    m = 10 * dim * dim
    g = ginibre(z[:, :m].reshape(len(z), 5, 2, dim, dim))
    v = haar_unitary(g[:, 0])[:, None]
    spectra = z[:, m : m + 2 * dim].reshape(len(z), 2, dim, 1)
    diag = np.where(np.eye(dim, dtype=bool), spectra, 0).astype(complex)
    algebra = qprob.MeasurementAlgebra(v @ diag @ dagger(v))
    p = algebra.projections
    coefficients = z[:, m + 2 * dim :]
    if not np.array_equal(np.isnan(coefficients), ~np.any(p, axis=(-2, -1))):
        raise AssertionError("joint projections differ from the distinct eigenvalue pairs")
    y = np.sum(np.nan_to_num(coefficients)[..., None, None] * p, axis=1)
    x, f = (np.sum(p @ g[:, i, None] @ p, axis=1) for i in (1, 4))
    return algebra, x, normalized_density(g[:, 2]), y, haar_unitary(g[:, 3]), f


def _state_norm(rho: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(np.trace(rho @ dagger(op) @ op, axis1=-2, axis2=-1)))


def _bayes_residual(x, f, algebra: qprob.MeasurementAlgebra, rho) -> float:
    """Worst |E_F[X|M] - E[X|M] in the state F rho F†| over a stack, F normalized in rho.

    An instance with tr(rho F†F) < 1e-6, or whose F kills a live branch, is
    skipped alone; 0 if every instance is.
    """
    norm = np.trace(rho @ dagger(f) @ f, axis1=-2, axis2=-1).real
    keep = np.flatnonzero(norm >= 1e-6)
    while keep.size:
        fk = f[keep] / np.sqrt(norm[keep])[:, None, None]
        try:
            bayes = qprob.bayes_conditional(x[keep], fk, algebra[keep], rho[keep])
        except qprob.ZeroDenominatorError as exc:
            keep = np.delete(keep, exc.index[0])
            continue
        direct = qprob.conditional_expectation(x[keep], algebra[keep], fk @ rho[keep] @ dagger(fk))
        return max_norm(bayes - direct)
    return 0.0


def qprob_suite(seed: int = 0, dims=(2, 4, 8), instances: int = 100):
    """Defining property, projection, least squares, and the two lemmas."""
    rng = np.random.default_rng(seed)
    res_def, res_proj, res_lsq, res_l1, res_l2 = [], [], [], [], []
    for algebra, x, rho, y, u, f in _instances(rng, dims, instances, _qprob_row, _qprob_form):
        res_def.append(qprob.verify_defining_property(x, algebra, rho))
        cond = qprob.conditional_expectation(x, algebra, rho)
        twice = qprob.conditional_expectation(cond, algebra, rho)
        res_proj.append(max_norm(twice - cond))
        res_lsq.append(np.max(_state_norm(rho, x - cond) - _state_norm(rho, x - y)))
        lhs, rhs = qprob.rotated_conditional(x, algebra, rho, u)
        res_l1.append(max_norm(lhs - rhs))
        res_l2.append(_bayes_residual(x, f, algebra, rho))

    return [
        CheckResult("qprob/defining-property", _worst(res_def), REPORT_TOL),
        CheckResult("qprob/projection-property", _worst(res_proj), 1e-10),
        CheckResult("qprob/least-squares", _worst(res_lsq), REPORT_TOL),
        CheckResult("qprob/unitary-rotation-lemma", _worst(res_l1), REPORT_TOL),
        CheckResult("qprob/quantum-bayes-lemma", _worst(res_l2), REPORT_TOL),
    ]


def _ito_row(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One ito instance's 34 d² + 2 normals in one draw: S, L and H, then Re
    beta and Im beta, then X, rho and the coefficients of three polynomials."""
    return rng.standard_normal(34 * dim * dim + 2)


def _ito_form(dim: int, z: np.ndarray):
    """The ito instances of one dimension: (beta, S, L, H, X, rho, *12 polynomial coefficients)."""
    b = 6 * dim * dim  # Re beta and Im beta
    s, l, h = ginibre(z[:, :b].reshape(len(z), 3, 2, dim, dim)).swapaxes(0, 1)
    x, rho, *coeffs = ginibre(z[:, b + 2 :].reshape(len(z), 14, 2, dim, dim)).swapaxes(0, 1)
    s, h, x, rho = haar_unitary(s), hermitian_part(h), hermitian_part(x), normalized_density(rho)
    return z[:, b] + 1j * z[:, b + 1], s, l, h, x, rho, *coeffs


def ito_suite(seed: int = 0, dims=(2, 3, 4), instances: int = 100):
    """Ito-table, generator, Lindblad-form, duality and Zakai-coefficient checks."""
    rng = np.random.default_rng(seed)
    res = {
        name: []
        for name in (
            "ito/table-identities",
            "ito/associativity",
            "ito/coherent-generator",
            "model/lindblad-identity",
            "model/generator-duality",
            "ito/zakai-quadrature-gain",
            "ito/zakai-quadrature-drift",
            "ito/zakai-quadrature-rearranged",
            "ito/zakai-counting-rearranged",
            "ito/girsanov-tilde-k",
            "ito/non-demolition",
        )
    }

    # Fixed spot identities of the Ito table at dim 2.
    eye = np.eye(2, dtype=complex)
    db = ito.single("dB", eye)
    dbdag = ito.single("dBdag", eye)
    dlam = ito.single("dLambda", eye)
    dt_poly = ito.single("dt", eye)
    spots = [
        ito.ito_product(db, dbdag) - dt_poly,
        ito.ito_product(dbdag, db),
        ito.ito_product(db, dlam) - db,
        ito.ito_product(dlam, dlam) - dlam,
        ito.ito_product(dlam, dbdag) - dbdag,
        ito.ito_product(dt_poly, db),
        ito.ito_product(db, dt_poly),
    ]
    res["ito/table-identities"] = [max_norm(p) for p in spots]

    for b, s, l, h, x, rho, *coeffs in _instances(rng, dims, instances, _ito_row, _ito_form):
        b = b[:, None, None]
        model = HPModel(S=s, L=l, H=h)

        p, q, r = (ito.polynomial(*coeffs[i : i + 4]) for i in (0, 4, 8))
        left = ito.ito_product(ito.ito_product(p, q), r)
        right = ito.ito_product(p, ito.ito_product(q, r))
        res["ito/associativity"].append(max_norm(left - right))

        res["ito/coherent-generator"].append(ito.verify_generator(model, b, x))

        generator = heisenberg_generator(model, b, x)
        lb = modulated_coupling(model, b)
        hb = modulated_hamiltonian(model, b)
        res["model/lindblad-identity"].append(max_norm(generator - lindblad_heisenberg(lb, hb, x)))

        lhs = np.trace(rho @ generator, axis1=-2, axis2=-1)
        rhs = np.trace(adjoint_generator(model, b, rho) @ x, axis1=-2, axis2=-1)
        res["model/generator-duality"].append(max_norm(lhs - rhs))

        tilde_l, tilde_k = ito.girsanov_coefficients(model, b, "quadrature")
        gain, drift = ito.zakai_expansion(model, b, x, "quadrature")
        res["ito/zakai-quadrature-gain"].append(
            max_norm(gain - (x @ tilde_l + dagger(tilde_l) @ x))
        )
        res["ito/zakai-quadrature-drift"].append(
            max_norm(drift - (dagger(tilde_l) @ x @ tilde_l + x @ tilde_k + dagger(tilde_k) @ x))
        )
        c = b + np.conj(b)
        res["ito/zakai-quadrature-rearranged"].append(max_norm(drift + c * gain - generator))

        # Counting needs beta away from 0; a dimension may select none.
        bright = np.abs(b[:, 0, 0]) > 0.1
        bb = b[bright]
        cgain, cdrift = ito.zakai_expansion(
            HPModel(S=s[bright], L=l[bright], H=h[bright]), bb, x[bright], "counting"
        )
        res["ito/zakai-counting-rearranged"].append(
            max_norm(cdrift + abs(bb) ** 2 * cgain - generator[bright])
        )

        cross = (
            -dagger(model.L) @ model.S * b
            - 0.5 * dagger(model.L) @ model.L
            - 1j * model.H
            - tilde_l * b
        )
        res["ito/girsanov-tilde-k"].append(max_norm(tilde_k - cross))

        res["ito/non-demolition"].append(ito.nondemolition_residual(x))

    return [CheckResult(name, _worst(v), REPORT_TOL) for name, v in res.items()]


def full_suite(seed: int = 0, dims_check: bool = False):
    qprob_dims = (2, 4, 8) if dims_check else (2, 4)
    return qprob_suite(seed=seed, dims=qprob_dims) + ito_suite(seed=seed)

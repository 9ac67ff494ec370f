"""Machine verification suites for the operator-algebra identities.

Each check runs over randomized instances and reports its worst residual;
the CLI `verify` command prints one line per check and fails if any
residual exceeds the reporting threshold, or is NaN.  A suite draws its
instances one after another from `numpy.random.default_rng(seed)`, so the
same seed draws the same instances.  The ito suite then stacks them per
dimension as (n, d, d) arrays and checks each identity once per
dimension; the qprob suite checks each instance's algebra on its stack of
joint projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ito, qprob
from .linalg import (
    dagger,
    max_norm,
    random_density,
    random_hermitian,
    random_matrix,
    random_unitary,
)
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


def _random_triple(rng: np.random.Generator, dim: int):
    return random_unitary(rng, dim), random_matrix(rng, dim), random_hermitian(rng, dim)


def random_beta(rng: np.random.Generator) -> complex:
    return rng.standard_normal() + 1j * rng.standard_normal()


def _random_commuting_instance(rng: np.random.Generator, dim: int):
    """Two commuting Hermitian generators with a commutant element and a state.

    Generators share an eigenbasis; the commutant element is block-diagonal
    with respect to the joint eigenprojections.
    """
    u = random_unitary(rng, dim)
    gens = []
    for _ in range(2):
        # Repeat an eigenvalue now and then so degenerate blocks occur.
        vals = rng.integers(-2, 3, size=dim).astype(float)
        gens.append(u @ np.diag(vals).astype(complex) @ dagger(u))
    algebra = qprob.MeasurementAlgebra(tuple(gens))
    p = algebra.projections
    x = np.sum(p @ random_matrix(rng, dim) @ p, axis=0)
    rho = random_density(rng, dim)
    return algebra, x, rho


def qprob_suite(seed: int = 0, dims=(2, 4, 8), instances: int = 100):
    """Defining property, projection, least squares, and the two lemmas."""
    rng = np.random.default_rng(seed)
    res_def, res_proj, res_lsq, res_l1, res_l2 = [], [], [], [], []
    for _ in range(instances):
        dim = int(rng.choice(dims))
        algebra, x, rho = _random_commuting_instance(rng, dim)
        p = algebra.projections

        res_def.append(qprob.verify_defining_property(x, algebra, rho))

        cond = qprob.conditional_expectation(x, algebra, rho)
        twice = qprob.conditional_expectation(cond, algebra, rho)
        res_proj.append(max_norm(twice - cond))

        # Least squares against a random algebra element.
        y = np.sum(rng.standard_normal(len(p))[:, None, None] * p, axis=0)

        def state_norm(op):
            return np.sqrt(abs(np.trace(rho @ dagger(op) @ op)))

        res_lsq.append(state_norm(x - cond) - state_norm(x - y))

        u = random_unitary(rng, dim)
        lhs, rhs = qprob.rotated_conditional(x, algebra, rho, u)
        res_l1.append(max_norm(lhs - rhs))

        # Quantum Bayes: F block-diagonal in the commutant, normalized in rho.
        f = np.sum(p @ random_matrix(rng, dim) @ p, axis=0)
        norm = np.trace(rho @ dagger(f) @ f).real
        if norm < 1e-6:
            continue
        f = f / np.sqrt(norm)
        try:
            bayes = qprob.bayes_conditional(x, f, algebra, rho)
        except ZeroDivisionError:
            continue
        direct = qprob.conditional_expectation(x, algebra, f @ rho @ dagger(f))
        res_l2.append(max_norm(bayes - direct))

    return [
        CheckResult("qprob/defining-property", _worst(res_def), REPORT_TOL),
        CheckResult("qprob/projection-property", _worst(res_proj), 1e-10),
        CheckResult("qprob/least-squares", _worst(res_lsq), REPORT_TOL),
        CheckResult("qprob/unitary-rotation-lemma", _worst(res_l1), REPORT_TOL),
        CheckResult("qprob/quantum-bayes-lemma", _worst(res_l2), REPORT_TOL),
    ]


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

    # Draw every instance in order, as beta and one (17, d, d) array of its
    # matrices: S, L, H, X, rho and the coefficients of three polynomials.
    drawn = {dim: [] for dim in dims}
    for _ in range(instances):
        dim = int(rng.choice(dims))
        s, l, h = _random_triple(rng, dim)
        b = random_beta(rng)
        x, rho = random_hermitian(rng, dim), random_density(rng, dim)
        coeffs = [random_matrix(rng, dim) for _ in range(12)]
        drawn[dim].append((b, np.array([s, l, h, x, rho, *coeffs])))

    for dim in list(drawn):
        rows = drawn.pop(dim)  # the draws are freed dimension by dimension
        if not rows:
            continue
        betas, matrices = zip(*rows)
        del rows
        b = np.array(betas)[:, None, None]
        s, l, h, x, rho, *coeffs = np.stack(matrices, axis=1)
        del matrices
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

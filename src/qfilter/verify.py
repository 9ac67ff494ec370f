"""Machine verification suites for the operator-algebra identities.

Each check runs over randomized instances and reports its worst residual;
the CLI `verify` command prints one line per check and fails if any
residual exceeds the reporting threshold.
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


def random_model(rng: np.random.Generator, dim: int) -> HPModel:
    return HPModel(
        S=random_unitary(rng, dim),
        L=random_matrix(rng, dim),
        H=random_hermitian(rng, dim),
    )


def random_beta(rng: np.random.Generator) -> complex:
    return rng.standard_normal() + 1j * rng.standard_normal()


def _random_commuting_instance(rng: np.random.Generator, dim: int, n_generators: int = 2):
    """Commuting Hermitian generators with a commutant element and a state.

    Generators share an eigenbasis; the commutant element is block-diagonal
    with respect to the joint eigenprojections.
    """
    u = random_unitary(rng, dim)
    gens = []
    for _ in range(n_generators):
        # Repeat an eigenvalue now and then so degenerate blocks occur.
        vals = rng.integers(-2, 3, size=dim).astype(float)
        gens.append(u @ np.diag(vals).astype(complex) @ dagger(u))
    algebra = qprob.MeasurementAlgebra(tuple(gens))
    a = random_matrix(rng, dim)
    x = sum(p @ a @ p for p in algebra.projections)
    rho = random_density(rng, dim)
    return algebra, x, rho


def qprob_suite(seed: int = 0, dims=(2, 4, 8), instances: int = 100):
    """Defining property, projection, least squares, and the two lemmas."""
    rng = np.random.default_rng(seed)
    res_def = res_proj = res_lsq = res_l1 = res_l2 = 0.0
    for _ in range(instances):
        dim = int(rng.choice(dims))
        algebra, x, rho = _random_commuting_instance(rng, dim)

        res_def = max(res_def, qprob.verify_defining_property(x, algebra, rho))

        cond = qprob.conditional_expectation(x, algebra, rho)
        twice = qprob.conditional_expectation(cond, algebra, rho)
        res_proj = max(res_proj, max_norm(twice - cond))

        # Least squares against a random algebra element.
        coeffs = rng.standard_normal(len(algebra.projections))
        y = sum(c * p for c, p in zip(coeffs, algebra.projections))

        def state_norm(op):
            return np.sqrt(abs(np.trace(rho @ dagger(op) @ op)))

        res_lsq = max(res_lsq, state_norm(x - cond) - state_norm(x - y))

        u = random_unitary(rng, dim)
        lhs, rhs = qprob.rotated_conditional(x, algebra, rho, u)
        res_l1 = max(res_l1, max_norm(lhs - rhs))

        # Quantum Bayes: F block-diagonal in the commutant, normalized in rho.
        b = random_matrix(rng, dim)
        f = sum(p @ b @ p for p in algebra.projections)
        norm = np.trace(rho @ dagger(f) @ f).real
        if norm < 1e-6:
            continue
        f = f / np.sqrt(norm)
        try:
            bayes = qprob.bayes_conditional(x, f, algebra, rho)
        except ZeroDivisionError:
            continue
        rho_f = f @ rho @ dagger(f)
        direct = qprob.conditional_expectation(x, algebra, rho_f)
        res_l2 = max(res_l2, max_norm(bayes - direct))

    return [
        CheckResult("qprob/defining-property", res_def, REPORT_TOL),
        CheckResult("qprob/projection-property", res_proj, 1e-10),
        CheckResult("qprob/least-squares", max(res_lsq, 0.0), REPORT_TOL),
        CheckResult("qprob/unitary-rotation-lemma", res_l1, REPORT_TOL),
        CheckResult("qprob/quantum-bayes-lemma", res_l2, REPORT_TOL),
    ]


def ito_suite(seed: int = 0, dims=(2, 3, 4), instances: int = 100):
    """Ito-table, generator, Lindblad-form, duality and Zakai-coefficient checks."""
    rng = np.random.default_rng(seed)
    res = {
        "ito/table-identities": 0.0,
        "ito/associativity": 0.0,
        "ito/coherent-generator": 0.0,
        "model/lindblad-identity": 0.0,
        "model/generator-duality": 0.0,
        "ito/zakai-quadrature-gain": 0.0,
        "ito/zakai-quadrature-drift": 0.0,
        "ito/zakai-quadrature-rearranged": 0.0,
        "ito/zakai-counting-rearranged": 0.0,
        "ito/girsanov-tilde-k": 0.0,
        "ito/non-demolition": 0.0,
    }

    # Fixed spot identities of the Ito table at dim 2.
    eye = np.eye(2, dtype=complex)
    db = ito.IncrementPolynomial.single("dB", eye)
    dbdag = ito.IncrementPolynomial.single("dBdag", eye)
    dlam = ito.IncrementPolynomial.single("dLambda", eye)
    dt_poly = ito.IncrementPolynomial.single("dt", eye)
    spots = [
        ito.ito_product(db, dbdag) - dt_poly,
        ito.ito_product(dbdag, db),
        ito.ito_product(db, dlam) - db,
        ito.ito_product(dlam, dlam) - dlam,
        ito.ito_product(dlam, dbdag) - dbdag,
        ito.ito_product(dt_poly, db),
        ito.ito_product(db, dt_poly),
    ]
    for p in spots:
        res["ito/table-identities"] = max(
            res["ito/table-identities"],
            max(max_norm(p.coeff(s)) for s in ("dt", "dB", "dBdag", "dLambda")),
        )

    for _ in range(instances):
        dim = int(rng.choice(dims))
        model = random_model(rng, dim)
        b = random_beta(rng)
        x = random_hermitian(rng, dim)
        rho = random_density(rng, dim)

        def rand_poly():
            return ito.IncrementPolynomial(
                *(random_matrix(rng, dim) for _ in range(4))
            )

        p, q, r = rand_poly(), rand_poly(), rand_poly()
        left = ito.ito_product(ito.ito_product(p, q), r)
        right = ito.ito_product(p, ito.ito_product(q, r))
        res["ito/associativity"] = max(
            res["ito/associativity"],
            max(max_norm(left.coeff(s) - right.coeff(s)) for s in ("dt", "dB", "dBdag", "dLambda")),
        )

        res["ito/coherent-generator"] = max(
            res["ito/coherent-generator"], ito.verify_generator(model, b, x)
        )

        lb = modulated_coupling(model, b)
        hb = modulated_hamiltonian(model, b)
        res["model/lindblad-identity"] = max(
            res["model/lindblad-identity"],
            max_norm(heisenberg_generator(model, b, x) - lindblad_heisenberg(lb, hb, x)),
        )

        lhs = np.trace(rho @ heisenberg_generator(model, b, x))
        rhs = np.trace(adjoint_generator(model, b, rho) @ x)
        res["model/generator-duality"] = max(res["model/generator-duality"], abs(lhs - rhs))

        tilde_l, tilde_k = ito.girsanov_coefficients(model, b, "quadrature")
        gain, drift = ito.zakai_expansion(model, b, x, "quadrature")
        res["ito/zakai-quadrature-gain"] = max(
            res["ito/zakai-quadrature-gain"], max_norm(gain - (x @ tilde_l + dagger(tilde_l) @ x))
        )
        res["ito/zakai-quadrature-drift"] = max(
            res["ito/zakai-quadrature-drift"],
            max_norm(drift - (dagger(tilde_l) @ x @ tilde_l + x @ tilde_k + dagger(tilde_k) @ x)),
        )
        c = b + np.conj(b)
        res["ito/zakai-quadrature-rearranged"] = max(
            res["ito/zakai-quadrature-rearranged"],
            max_norm(drift + c * gain - heisenberg_generator(model, b, x)),
        )

        if abs(b) > 0.1:
            cgain, cdrift = ito.zakai_expansion(model, b, x, "counting")
            res["ito/zakai-counting-rearranged"] = max(
                res["ito/zakai-counting-rearranged"],
                max_norm(
                    cdrift + abs(b) ** 2 * cgain - heisenberg_generator(model, b, x)
                ),
            )

        cross = (
            -dagger(model.L) @ model.S * b
            - 0.5 * dagger(model.L) @ model.L
            - 1j * model.H
            - tilde_l * b
        )
        res["ito/girsanov-tilde-k"] = max(res["ito/girsanov-tilde-k"], max_norm(tilde_k - cross))

        res["ito/non-demolition"] = max(res["ito/non-demolition"], ito.nondemolition_residual(x))

    return [CheckResult(name, v, REPORT_TOL) for name, v in res.items()]


def full_suite(seed: int = 0, dims_check: bool = False):
    qprob_dims = (2, 4, 8) if dims_check else (2, 4)
    return qprob_suite(seed=seed, dims=qprob_dims) + ito_suite(seed=seed)

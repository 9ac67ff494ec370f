import numpy as np
import pytest

from qfilter.ito import (
    IncrementPolynomial,
    coherent_expectation,
    girsanov_coefficients,
    ito_product,
    ito_product_many,
    langevin_increment,
    nondemolition_residual,
    output_increments,
    verify_generator,
    zakai_expansion,
)
from qfilter.linalg import (
    dagger,
    max_norm,
    random_hermitian,
    random_matrix,
)
from qfilter.model import heisenberg_generator
from qfilter.verify import ito_suite, random_model

SYMBOLS = ("dt", "dB", "dBdag", "dLambda")


def poly_norm(p):
    return max(max_norm(p.coeff(s)) for s in SYMBOLS)


def test_ito_table_spot_values():
    eye = np.eye(2, dtype=complex)
    db = IncrementPolynomial.single("dB", eye)
    dbdag = IncrementPolynomial.single("dBdag", eye)
    dlam = IncrementPolynomial.single("dLambda", eye)
    dt = IncrementPolynomial.single("dt", eye)

    assert poly_norm(ito_product(db, dbdag) - dt) == 0
    assert poly_norm(ito_product(db, dlam) - db) == 0
    assert poly_norm(ito_product(dlam, dlam) - dlam) == 0
    assert poly_norm(ito_product(dlam, dbdag) - dbdag) == 0
    # Everything else vanishes, including all dt products.
    for left, right in [(dbdag, db), (dbdag, dlam), (dlam, db), (db, db), (dbdag, dbdag)]:
        assert poly_norm(ito_product(left, right)) == 0
    for other in (db, dbdag, dlam, dt):
        assert poly_norm(ito_product(dt, other)) == 0
        assert poly_norm(ito_product(other, dt)) == 0


def test_ito_product_bilinearity_and_adjoint():
    rng = np.random.default_rng(20)

    def rand_poly():
        return IncrementPolynomial(*(random_matrix(rng, 3) for _ in range(4)))

    p, q, r = rand_poly(), rand_poly(), rand_poly()
    assert poly_norm(ito_product(p + q, r) - (ito_product(p, r) + ito_product(q, r))) < 1e-12
    # (pq)† = q† p† under the table.
    lhs = ito_product(p, q).adjoint()
    rhs = ito_product(q.adjoint(), p.adjoint())
    assert poly_norm(lhs - rhs) < 1e-12


def test_ito_product_many_associativity():
    rng = np.random.default_rng(21)
    polys = [IncrementPolynomial(*(random_matrix(rng, 2) for _ in range(4))) for _ in range(4)]
    left = ito_product_many(*polys)
    right = ito_product(polys[0], ito_product(polys[1], ito_product(polys[2], polys[3])))
    assert poly_norm(left - right) < 1e-11


def test_coherent_expectation_rates():
    eye = np.eye(2, dtype=complex)
    p = IncrementPolynomial(1.0 * eye, 2.0 * eye, 3.0 * eye, 4.0 * eye)
    b = 0.5 - 0.25j
    expected = (1.0 + 2.0 * b + 3.0 * np.conj(b) + 4.0 * abs(b) ** 2) * eye
    assert max_norm(coherent_expectation(p, b) - expected) < 1e-14


def test_langevin_vacuum_expectation_is_lindblad_term():
    rng = np.random.default_rng(22)
    model = random_model(rng, 3)
    x = random_hermitian(rng, 3)
    rate = coherent_expectation(langevin_increment(model, x), 0.0)
    assert max_norm(rate - heisenberg_generator(model, 0j, x)) < 1e-12


def test_verify_generator_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        model = random_model(rng, int(rng.choice([2, 3])))
        b = rng.standard_normal() + 1j * rng.standard_normal()
        assert verify_generator(model, b, random_hermitian(rng, model.dim)) < 1e-10


def test_output_increments_preserve_ito_table():
    # The output pair must satisfy the same Ito table as the input pair:
    # dB_out dB_out† = dt, dLambda_out dLambda_out = dLambda_out, etc.
    rng = np.random.default_rng(24)
    model = random_model(rng, 3)
    db_out, dlam_out = output_increments(model)
    eye = np.eye(3, dtype=complex)
    dt = IncrementPolynomial.single("dt", eye)

    prod = ito_product(db_out, db_out.adjoint())
    assert poly_norm(prod - dt) < 1e-12
    assert poly_norm(ito_product(dlam_out, dlam_out) - dlam_out) < 1e-12
    assert poly_norm(ito_product(db_out, dlam_out) - db_out) < 1e-12
    assert poly_norm(ito_product(dlam_out, db_out.adjoint()) - db_out.adjoint()) < 1e-12
    assert poly_norm(ito_product(db_out.adjoint(), db_out)) < 1e-12


def test_girsanov_vacuum_counting_rejected():
    model = random_model(np.random.default_rng(25), 2)
    with pytest.raises(ValueError):
        girsanov_coefficients(model, 0j, "counting")
    with pytest.raises(ValueError):
        girsanov_coefficients(model, 1 + 0j, "heterodyne")


def test_girsanov_quadrature_identity():
    # tilde_L† tilde_L + b* tilde_L + b tilde_L† = L^b† L^b - |b|^2.
    rng = np.random.default_rng(26)
    for _ in range(10):
        model = random_model(rng, 3)
        b = rng.standard_normal() + 1j * rng.standard_normal()
        tilde_l, _ = girsanov_coefficients(model, b, "quadrature")
        lb = model.S * b + model.L
        lhs = dagger(tilde_l) @ tilde_l + np.conj(b) * tilde_l + b * dagger(tilde_l)
        rhs = dagger(lb) @ lb - abs(b) ** 2 * np.eye(3)
        assert max_norm(lhs - rhs) < 1e-10


def test_zakai_expansion_rearranges_to_generator():
    # drift + rate * gain must reproduce the Heisenberg generator, where the
    # compensator rate is b + b* (quadrature) or |b|^2 (counting).
    rng = np.random.default_rng(27)
    for _ in range(10):
        model = random_model(rng, 2)
        b = 0.5 + rng.standard_normal() + 1j * rng.standard_normal()
        x = random_hermitian(rng, 2)
        gen = heisenberg_generator(model, b, x)

        gain, drift = zakai_expansion(model, b, x, "quadrature")
        assert max_norm(drift + (b + np.conj(b)) * gain - gen) < 1e-10

        cgain, cdrift = zakai_expansion(model, b, x, "counting")
        assert max_norm(cdrift + abs(b) ** 2 * cgain - gen) < 1e-10


def test_nondemolition_residual_zero():
    rng = np.random.default_rng(28)
    assert nondemolition_residual(random_hermitian(rng, 4)) == 0.0


def test_ito_suite_residuals():
    for result in ito_suite(seed=1, dims=(2, 3), instances=30):
        assert result.passed, result.line()

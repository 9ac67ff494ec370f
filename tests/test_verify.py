"""The verify suites: injected faults fail their checks, NaN residuals fail,
each seed draws a fixed number of instances per dimension, checked in one stack,
every check passes on more seeds, and each stack equals its instances formed
one at a time from the same normals."""

from collections import Counter

import numpy as np
import pytest

from conftest import random_beta, random_model
from qfilter import ito, qprob, verify
from qfilter.cli import EXIT_NUMERICAL, main
from qfilter.linalg import (
    dagger,
    ginibre,
    haar_unitary,
    hermitian_part,
    max_norm,
    normalized_density,
    random_density,
    random_hermitian,
    random_matrix,
    random_unitary,
)
from qfilter.verify import full_suite, ito_suite, qprob_suite


def by_name(results):
    return {r.name: r for r in results}


def nan_like(x, *_):
    return np.full(np.shape(x), np.nan, dtype=complex)


@pytest.mark.parametrize(
    "module, function, fake, check",
    [
        (ito, "verify_generator", lambda *_: float("nan"), "ito/coherent-generator"),
        # Least squares goes through the clamp at 0.
        (qprob, "conditional_expectation", nan_like, "qprob/least-squares"),
    ],
    ids=["ito", "qprob-clamped"],
)
def test_nan_residual_fails_its_check_and_the_command(
    monkeypatch, capsys, module, function, fake, check
):
    monkeypatch.setattr(module, function, fake)
    result = by_name(full_suite(seed=0))[check]
    assert np.isnan(result.residual)
    assert not result.passed
    assert result.line().endswith("FAIL")
    assert main(["verify", "--seed", "0"]) == EXIT_NUMERICAL
    out = capsys.readouterr().out
    assert any(line.startswith(check) and line.endswith("FAIL") for line in out.splitlines())


def test_hamiltonian_without_s_factors_fails_the_lindblad_identity(monkeypatch):
    def without_s(model, b):
        return model.H + (b * dagger(model.L) - np.conj(b) * model.L) / 2j

    monkeypatch.setattr(verify, "modulated_hamiltonian", without_s)
    results = by_name(ito_suite(seed=0))
    assert not results["model/lindblad-identity"].passed
    assert results["ito/coherent-generator"].passed


def test_missing_ito_table_entry_fails_the_zakai_checks(monkeypatch):
    monkeypatch.delitem(ito._ITO_TABLE, ("dB", "dBdag"))
    results = by_name(ito_suite(seed=0))
    for name in ("ito/zakai-quadrature-drift", "ito/zakai-quadrature-rearranged"):
        assert not results[name].passed, name


def test_non_unitary_rotation_raises_in_the_suite(monkeypatch):
    rotated_conditional = qprob.rotated_conditional
    monkeypatch.setattr(
        qprob, "rotated_conditional", lambda x, alg, rho, u: rotated_conditional(x, alg, rho, 2 * u)
    )
    with pytest.raises(ValueError, match="not unitary"):
        qprob_suite(seed=0, dims=(2, 4))


# Instances per dimension drawn by full_suite: (qprob, ito).
INSTANCE_COUNTS = {
    (0, False): ({2: 51, 4: 49}, {2: 34, 3: 39, 4: 27}),
    (0, True): ({2: 34, 4: 39, 8: 27}, {2: 34, 3: 39, 4: 27}),
    (1, False): ({2: 45, 4: 55}, {2: 29, 3: 37, 4: 34}),
    (1, True): ({2: 29, 4: 37, 8: 34}, {2: 29, 3: 37, 4: 34}),
}


@pytest.mark.parametrize("seed, dims_check", sorted(INSTANCE_COUNTS))
def test_instances_per_dimension_are_pinned(monkeypatch, seed, dims_check):
    qprob_counts, ito_counts, calls = Counter(), Counter(), Counter()
    defining_property = qprob.verify_defining_property
    verify_generator = ito.verify_generator

    def count_qprob(x, algebra, rho):
        qprob_counts[x.shape[-1]] += x.shape[0]
        calls["qprob", x.shape[-1]] += 1
        return defining_property(x, algebra, rho)

    def count_ito(model, b, x):
        ito_counts[x.shape[-1]] += x.shape[0]
        calls["ito", x.shape[-1]] += 1
        return verify_generator(model, b, x)

    monkeypatch.setattr(qprob, "verify_defining_property", count_qprob)
    monkeypatch.setattr(ito, "verify_generator", count_ito)
    assert all(r.passed for r in full_suite(seed=seed, dims_check=dims_check))
    assert (dict(qprob_counts), dict(ito_counts)) == INSTANCE_COUNTS[seed, dims_check]
    # Each suite checks each identity once per dimension drawn, on its full stack.
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("seed", range(2, 10))
@pytest.mark.parametrize("dims_check", [False, True])
def test_every_check_passes_on_more_seeds(seed, dims_check):
    results = full_suite(seed=seed, dims_check=dims_check)
    assert len(results) == 16
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def reference_qprob_instances(rng, dim, n):
    """_qprob_stack's draws, each instance formed alone: (generators, X, rho, Y, U, F,
    projections padded to dim), Y from the coefficients of the nonzero projections only."""
    spectra = rng.integers(-2, 3, size=(n, 2, dim))
    v, x, rho, u, f = (rng.standard_normal((n, 2, dim, dim)) for _ in range(5))
    coefficients = rng.standard_normal((n, dim))
    for i in range(n):
        vi = haar_unitary(ginibre(v[i]))
        gens = [vi @ np.diag(e).astype(complex) @ dagger(vi) for e in spectra[i]]
        p = qprob.MeasurementAlgebra(tuple(gens)).projections
        xi, fi = (np.sum(p @ ginibre(a[i]) @ p, axis=0) for a in (x, f))
        yi = np.sum(coefficients[i, : len(p), None, None] * p, axis=0)
        padded = np.concatenate([p, np.zeros((dim - len(p), dim, dim))])
        rhoi, ui = normalized_density(ginibre(rho[i])), haar_unitary(ginibre(u[i]))
        yield gens, xi, rhoi, yi, ui, fi, padded


def reference_ito_instances(rng, dim, n):
    """_ito_stack's draws, each instance formed alone: (beta, S, L, H, X, rho, *coefficients)."""
    b = rng.standard_normal((n, 2))
    s, l, h, x, rho, *coeffs = (rng.standard_normal((n, 2, dim, dim)) for _ in range(17))
    for i in range(n):
        beta = np.full((1, 1), b[i, 0] + 1j * b[i, 1])
        si, li, hi, xi, rhoi, *ci = (ginibre(a[i]) for a in (s, l, h, x, rho, *coeffs))
        si, hi, xi = haar_unitary(si), hermitian_part(hi), hermitian_part(xi)
        yield beta, si, li, hi, xi, normalized_density(rhoi), *ci


def qprob_stack(rng, dim, n):
    algebra, *fields = verify._qprob_stack(rng, dim, n)
    return [algebra.generators, *fields, algebra.projections]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "stack, reference, dim",
    [
        *((qprob_stack, reference_qprob_instances, dim) for dim in (2, 4, 8)),
        *((verify._ito_stack, reference_ito_instances, dim) for dim in (2, 3, 4)),
    ],
    ids=["qprob-2", "qprob-4", "qprob-8", "ito-2", "ito-3", "ito-4"],
)
def test_stacks_equal_their_instances_formed_one_at_a_time(seed, stack, reference, dim):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stacked = list(stack(rng, dim, 30))
    instances = list(reference(reference_rng, dim, 30))
    assert len(instances) == 30
    for i, fields in enumerate(instances):
        assert len(fields) == len(stacked)
        for field, value in zip(stacked, fields):
            assert np.array_equal(field[i], value)
    # Both consumed the same stream.
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_stacked_calls_equal_per_instance_calls():
    rng = np.random.default_rng(3)
    models = [random_model(rng, 3) for _ in range(5)]
    betas = [random_beta(rng) for _ in models]
    xs = [random_hermitian(rng, 3) for _ in models]
    stacked = verify.HPModel(*(np.array([getattr(m, a) for m in models]) for a in "SLH"))
    b = np.array(betas)[:, None, None]
    x = np.array(xs)
    for kind in ("quadrature", "counting"):
        gain, drift = ito.zakai_expansion(stacked, b, x, kind)
        for i, (m, bi, xi) in enumerate(zip(models, betas, xs)):
            gain_i, drift_i = ito.zakai_expansion(m, bi, xi, kind)
            assert max_norm(gain[i] - gain_i) <= 1e-12
            assert max_norm(drift[i] - drift_i) <= 1e-12
    assert ito.verify_generator(stacked, b, x) <= 1e-12

    # Polynomials of shape (4, n, d, d): products, adjoints, rates and the
    # broadcast x @ p, p @ x agree with the per-instance calls.
    p, (_, q) = ito.langevin_increment(stacked, x), ito.output_increments(stacked)
    pq, p_adj, rate = ito.ito_product(p, q), ito.adjoint(p), ito.coherent_expectation(p, b)
    xp, qx = x @ p, q @ x
    for i, (m, bi, xi) in enumerate(zip(models, betas, xs)):
        p_i, (_, q_i) = ito.langevin_increment(m, xi), ito.output_increments(m)
        for stacked_value, value in [
            (p[:, i], p_i),
            (pq[:, i], ito.ito_product(p_i, q_i)),
            (p_adj[:, i], ito.adjoint(p_i)),
            (rate[i], ito.coherent_expectation(p_i, bi)),
            (xp[:, i], xi @ p_i),
            (qx[:, i], q_i @ xi),
        ]:
            assert max_norm(stacked_value - value) <= 1e-12


def test_stacked_qprob_calls_equal_per_instance_calls(monkeypatch):
    # Three d = 4 algebras with 1, 2 and 4 joint projections, so the stack
    # pads the first two with zero projections.
    rng = np.random.default_rng(4)
    spectra = [([1.0] * 4, [2.0] * 4), ([1, 1, -1, -1], [0.0] * 4), ([0, 0, 1, 1], [0, 1, 0, 1])]
    algebras, xs, rhos, us, fs = [], [], [], [], []
    for first, second in spectra:
        v = random_unitary(rng, 4)
        gens = tuple(v @ np.diag(e) @ dagger(v) for e in (first, second))
        algebras.append(qprob.MeasurementAlgebra(gens))
        p = algebras[-1].projections
        xs.append(np.sum(p @ random_matrix(rng, 4) @ p, axis=0))
        rhos.append(random_density(rng, 4))
        us.append(random_unitary(rng, 4))
        f = np.sum(p @ random_matrix(rng, 4) @ p, axis=0)
        fs.append(f / np.sqrt(np.trace(rhos[-1] @ dagger(f) @ f).real))
    assert [len(a.projections) for a in algebras] == [1, 2, 4]
    stacked = qprob.MeasurementAlgebra(np.array([a.generators for a in algebras]))
    x, rho, u, f = (np.array(v) for v in (xs, rhos, us, fs))

    means, live = qprob._branch_means(stacked, rho, x)
    lhs, rhs = qprob.rotated_conditional(x, stacked, rho, u)
    stacked_values = [
        qprob.conditional_expectation(x, stacked, rho),
        lhs,
        rhs,
        qprob.bayes_conditional(x, f, stacked, rho),
    ]
    for i, (alg, xi, rhoi, ui, fi) in enumerate(zip(algebras, xs, rhos, us, fs)):
        k = len(alg.projections)
        assert max_norm(stacked.projections[i, :k] - alg.projections) == 0
        assert not np.any(stacked.projections[i, k:]) and not np.any(live[i, k:])
        assert not np.any(means[i, k:])
        values = [
            qprob.conditional_expectation(xi, alg, rhoi),
            *qprob.rotated_conditional(xi, alg, rhoi, ui),
            qprob.bayes_conditional(xi, fi, alg, rhoi),
        ]
        for stacked_value, value in zip(stacked_values, values):
            assert max_norm(stacked_value[i] - value) <= 1e-12
    per_instance = [qprob.verify_defining_property(*args) for args in zip(xs, algebras, rhos)]
    assert abs(qprob.verify_defining_property(x, stacked, rho) - max(per_instance)) <= 1e-12

    # F = the first projection of instance 1 kills its live second branch:
    # the stacked Bayes call names that instance, and the suite skips it alone.
    p0 = algebras[1].projections[0]
    f[1] = p0 / np.sqrt(np.trace(rhos[1] @ p0).real)
    with pytest.raises(qprob.ZeroDenominatorError, match=r"instance \(1,\)") as caught:
        qprob.bayes_conditional(x, f, stacked, rho)
    assert caught.value.index == (1,)
    kept = []
    for i in (0, 2):
        direct = qprob.conditional_expectation(xs[i], algebras[i], fs[i] @ rhos[i] @ dagger(fs[i]))
        kept.append(max_norm(qprob.bayes_conditional(xs[i], fs[i], algebras[i], rhos[i]) - direct))
    calls, bayes_conditional = [], qprob.bayes_conditional

    def counted(x, *args):
        calls.append(len(x))
        return bayes_conditional(x, *args)

    monkeypatch.setattr(qprob, "bayes_conditional", counted)
    assert abs(verify._bayes_residual(x, f, stacked, rho) - max(kept)) <= 1e-12
    assert calls == [3, 2]

"""The verify suites: injected faults fail their checks, NaN residuals fail,
and each seed draws a fixed number of instances per dimension."""

from collections import Counter

import numpy as np
import pytest

from conftest import random_model
from qfilter import ito, qprob, verify
from qfilter.cli import EXIT_NUMERICAL, main
from qfilter.linalg import dagger, max_norm, random_hermitian
from qfilter.verify import full_suite, ito_suite, qprob_suite, random_beta


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
    (0, False): ({2: 51, 4: 49}, {2: 32, 3: 30, 4: 38}),
    (0, True): ({2: 31, 4: 36, 8: 33}, {2: 32, 3: 30, 4: 38}),
    (1, False): ({2: 38, 4: 62}, {2: 35, 3: 35, 4: 30}),
    (1, True): ({2: 35, 4: 27, 8: 38}, {2: 35, 3: 35, 4: 30}),
}


@pytest.mark.parametrize("seed, dims_check", sorted(INSTANCE_COUNTS))
def test_instances_per_dimension_are_pinned(monkeypatch, seed, dims_check):
    qprob_counts, ito_counts = Counter(), Counter()
    defining_property = qprob.verify_defining_property
    verify_generator = ito.verify_generator

    def count_qprob(x, algebra, rho):
        qprob_counts[x.shape[-1]] += 1
        return defining_property(x, algebra, rho)

    def count_ito(model, b, x):
        ito_counts[x.shape[-1]] += x.shape[0]
        return verify_generator(model, b, x)

    monkeypatch.setattr(qprob, "verify_defining_property", count_qprob)
    monkeypatch.setattr(ito, "verify_generator", count_ito)
    assert all(r.passed for r in full_suite(seed=seed, dims_check=dims_check))
    assert (dict(qprob_counts), dict(ito_counts)) == INSTANCE_COUNTS[seed, dims_check]


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
